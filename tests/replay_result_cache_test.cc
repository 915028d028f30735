/**
 * @file
 * The store's timed replay results (ArtifactStore::replayResult): a
 * cached result equals a fresh replay for every GPM app and FSM on the
 * fig12 ladder; the CPU result keys on the core and memory parameters
 * only, so a ladder of compare jobs replays the CPU baseline once;
 * run siblings of a compare job hit; store-off runs never read the
 * cache; clear() drops the results; concurrent
 * compare jobs build each result once. The timing keys write every
 * config field, and the cost-bound summary keys on them too.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/artifact_store.hh"
#include "api/machine.hh"
#include "backend/cpu_backend.hh"
#include "backend/sparsecore_backend.hh"
#include "gpm/executor.hh"
#include "gpm/fsm.hh"
#include "graph/generators.hh"
#include "test_util.hh"
#include "trace/replay.hh"

using namespace sc;
using namespace sc::api;

namespace {

const unsigned kLadderSus[] = {1, 2, 4, 8, 16};
const unsigned kLadderBandwidth[] = {16, 64};

/** Per-test seeds give each test a cold key in the process-wide
 *  store, whichever tests ran before it. */
graph::CsrGraph
storeGraph(std::uint64_t seed)
{
    return graph::generateChungLu(500, 5000, 120, 2.0, seed, "result");
}

RunOptions
cached()
{
    RunOptions options;
    options.artifactCache = true;
    return options;
}

/** One config field changed away from its default. `cpu` marks the
 *  fields CpuBackend reads. */
struct FieldChange
{
    std::string field;
    bool cpu;
    std::function<void(arch::SparseCoreConfig &)> apply;
};

std::vector<FieldChange>
everyFieldChange()
{
    using C = arch::SparseCoreConfig;
    std::vector<FieldChange> changes = {
        {"numSus", false, [](C &c) { c.numSus = 8; }},
        {"suWindow", false, [](C &c) { c.suWindow = 32; }},
        {"suPipelineLatency", false, [](C &c) { c.suPipelineLatency = 5; }},
        {"scacheSlotKeys", false, [](C &c) { c.scacheSlotKeys = 32; }},
        {"numStreamRegs", false, [](C &c) { c.numStreamRegs = 12; }},
        {"aggregateBandwidth", false,
         [](C &c) { c.aggregateBandwidth = 64; }},
        {"scratchpadBytes", false,
         [](C &c) { c.scratchpadBytes = 8 * 1024; }},
        {"scratchpadLatency", false, [](C &c) { c.scratchpadLatency = 2; }},
        {"translationBufferSize", false,
         [](C &c) { c.translationBufferSize = 8; }},
        {"valueLoadMlp", false, [](C &c) { c.valueLoadMlp = 4; }},
        {"valueLoadsPerCycle", false, [](C &c) { c.valueLoadsPerCycle = 1; }},
        {"maxOutstandingOps", false, [](C &c) { c.maxOutstandingOps = 16; }},
        {"nestedIntersection", false,
         [](C &c) { c.nestedIntersection = false; }},
        {"core.issueWidth", true, [](C &c) { c.core.issueWidth = 2; }},
        {"core.robSize", true, [](C &c) { c.core.robSize = 64; }},
        {"core.loadQueueSize", true, [](C &c) { c.core.loadQueueSize = 16; }},
        {"core.mispredictPenalty", true,
         [](C &c) { c.core.mispredictPenalty = 20; }},
        {"core.missStallFraction", true,
         [](C &c) { c.core.missStallFraction = 0.6000001; }},
        {"mem.l1Latency", true, [](C &c) { c.mem.l1Latency = 5; }},
        {"mem.l2Latency", true, [](C &c) { c.mem.l2Latency = 13; }},
        {"mem.l3Latency", true, [](C &c) { c.mem.l3Latency = 39; }},
        {"mem.memLatency", true, [](C &c) { c.mem.memLatency = 121; }},
    };
    const std::pair<const char *, sim::CacheParams sim::MemParams::*>
        levels[] = {{"mem.l1", &sim::MemParams::l1},
                    {"mem.l2", &sim::MemParams::l2},
                    {"mem.l3", &sim::MemParams::l3}};
    for (const auto &[level, member] : levels) {
        const auto add = [&](const char *suffix,
                             std::function<void(sim::CacheParams &)> f) {
            changes.push_back({std::string(level) + suffix, true,
                               [member, f](C &c) { f(c.mem.*member); }});
        };
        add(".name", [](sim::CacheParams &p) { p.name += "x"; });
        add(".sizeBytes", [](sim::CacheParams &p) { p.sizeBytes *= 2; });
        add(".ways", [](sim::CacheParams &p) { p.ways *= 2; });
        add(".lineBytes", [](sim::CacheParams &p) { p.lineBytes *= 2; });
    }
    return changes;
}

/** A fresh replay of `program` on a new backend (no SU-cost table). */
trace::ReplayResult
freshReplay(const trace::BytecodeProgram &program, Substrate substrate,
            const arch::SparseCoreConfig &config)
{
    if (substrate == Substrate::Cpu) {
        backend::CpuBackend be(config.core, config.mem);
        return trace::replayCompiled(program, be, /*verify=*/false);
    }
    backend::SparseCoreBackend be(config);
    return trace::replayCompiled(program, be, /*verify=*/false);
}

/** Cached (miss, then hit) equals fresh at every ladder point. */
void
expectCachedEqualsFresh(const std::string &key,
                        const ArtifactStore::CaptureFn &capture,
                        const std::string &label)
{
    ArtifactStore store;
    const auto cached = store.trace(key, capture);
    const auto program = store.program(key, cached->trace, false);
    for (const unsigned sus : kLadderSus) {
        for (const unsigned bandwidth : kLadderBandwidth) {
            arch::SparseCoreConfig config;
            config.numSus = sus;
            config.aggregateBandwidth = bandwidth;
            for (const Substrate substrate :
                 {Substrate::Cpu, Substrate::SparseCore}) {
                const std::string at =
                    label + " sus " + std::to_string(sus) + " bw " +
                    std::to_string(bandwidth) +
                    (substrate == Substrate::Cpu ? " cpu" : " sc");
                const trace::ReplayResult fresh =
                    freshReplay(*program, substrate, config);
                for (int pass = 0; pass < 2; ++pass) {
                    const auto got = store.replayResult(
                        key, *program, substrate, config);
                    EXPECT_EQ(got->cycles, fresh.cycles) << at;
                    EXPECT_EQ(got->breakdown.cycles,
                              fresh.breakdown.cycles)
                        << at;
                }
            }
        }
    }
    // One CPU baseline for the whole ladder, one result per
    // SparseCore point; every other request hit.
    const std::size_t points =
        std::size(kLadderSus) * std::size(kLadderBandwidth);
    EXPECT_EQ(store.stats().results.misses, 1 + points) << label;
    EXPECT_EQ(store.stats().results.hits, 4 * points - 1 - points)
        << label;
}

} // namespace

TEST(ReplayResultCache, CachedEqualsFreshForGpmAppsOnFig12Ladder)
{
    const auto g = test::randomTestGraph(100, 700, 5);
    for (const gpm::GpmApp app : gpm::allGpmApps()) {
        expectCachedEqualsFresh(
            ArtifactStore::gpmTraceKey(app, g, 1),
            [&g, app](trace::TraceRecorder &rec) {
                gpm::PlanExecutor executor(g, rec);
                return executor.runMany(gpm::gpmAppPlans(app)).embeddings;
            },
            std::string("gpm ") + gpm::gpmAppName(app));
    }
}

TEST(ReplayResultCache, CachedEqualsFreshForFsmOnFig12Ladder)
{
    auto base = test::randomTestGraph(60, 350, 13);
    std::vector<graph::Label> labels(base.numVertices());
    for (VertexId v = 0; v < base.numVertices(); ++v)
        labels[v] = static_cast<graph::Label>(v % 3);
    const graph::LabeledGraph lg(std::move(base), labels);
    expectCachedEqualsFresh(
        ArtifactStore::fsmTraceKey(lg, 2),
        [&lg](trace::TraceRecorder &rec) {
            return gpm::runFsm(lg, rec, 2).totalFrequent();
        },
        "fsm");
}

TEST(ReplayResultCache, WarmLadderBuildsOneCpuBaseline)
{
    // N compare jobs over one program at N arch points: one CPU
    // result and N SparseCore results are built; the other N - 1 CPU
    // legs hit.
    const auto g = storeGraph(401);
    const RunRequest req = RunRequest::gpm(gpm::GpmApp::T, g, cached());
    ArtifactStore &store = ArtifactStore::global();
    const auto before = store.stats().results;

    unsigned points = 0;
    Cycles baseline = 0;
    for (const unsigned sus : kLadderSus) {
        for (const unsigned bandwidth : kLadderBandwidth) {
            arch::SparseCoreConfig config;
            config.numSus = sus;
            config.aggregateBandwidth = bandwidth;
            const Comparison cmp = Machine(config).compare(req);
            if (points == 0)
                baseline = cmp.baseline.cycles;
            EXPECT_EQ(cmp.baseline.cycles, baseline);
            EXPECT_FALSE(cmp.trace->resultCacheHit);
            ++points;
        }
    }
    const auto after = store.stats().results;
    EXPECT_EQ(after.misses - before.misses, points + 1);
    EXPECT_EQ(after.hits - before.hits, points - 1);

    // Every ladder point maps to the one CPU key.
    const std::string key =
        ArtifactStore::gpmTraceKey(gpm::GpmApp::T, g, 1);
    arch::SparseCoreConfig top;
    top.numSus = 16;
    top.aggregateBandwidth = 64;
    EXPECT_EQ(ArtifactStore::resultKey(key, Substrate::Cpu, top),
              ArtifactStore::resultKey(key, Substrate::Cpu, {}));
    EXPECT_NE(ArtifactStore::resultKey(key, Substrate::SparseCore, top),
              ArtifactStore::resultKey(key, Substrate::SparseCore, {}));
}

TEST(ReplayResultCache, RunSiblingAfterCompareHits)
{
    const auto g = storeGraph(402);
    const RunRequest req = RunRequest::gpm(gpm::GpmApp::TC, g, cached());
    arch::SparseCoreConfig config;
    config.numSus = 2;
    const Machine machine(config);

    const Comparison cmp = machine.compare(req);
    EXPECT_FALSE(cmp.trace->resultCacheHit);
    const RunResult cpu = machine.run(req, Substrate::Cpu);
    const RunResult sc = machine.run(req, Substrate::SparseCore);
    EXPECT_TRUE(cpu.trace->resultCacheHit);
    EXPECT_TRUE(sc.trace->resultCacheHit);
    EXPECT_EQ(cpu.cycles, cmp.baseline.cycles);
    EXPECT_EQ(cpu.breakdown.cycles, cmp.baseline.breakdown.cycles);
    EXPECT_EQ(sc.cycles, cmp.accelerated.cycles);
    EXPECT_EQ(sc.breakdown.cycles, cmp.accelerated.breakdown.cycles);
    EXPECT_EQ(cpu.functionalResult, cmp.functionalResult);
    EXPECT_TRUE(machine.compare(req).trace->resultCacheHit);

    // The hit flag is host bookkeeping: it leaves with the trace
    // stats, which --no-timing reports drop.
    EXPECT_NE(jsonValue(sc).dump().find("\"result_cache_hit\":true"),
              std::string::npos);
}

TEST(ReplayResultCache, StoreOffNeverReadsTheCache)
{
    const auto g = storeGraph(403);
    RunOptions off;
    off.artifactCache = false;
    const Machine machine;
    ArtifactStore &store = ArtifactStore::global();
    const auto before = store.stats().results;

    const RunRequest req = RunRequest::gpm(gpm::GpmApp::T, g, off);
    for (int i = 0; i < 2; ++i) {
        // A store-off run executes live and carries no trace stats.
        for (const Substrate substrate :
             {Substrate::Cpu, Substrate::SparseCore})
            EXPECT_FALSE(machine.run(req, substrate).trace.has_value());
        EXPECT_FALSE(machine.compare(req).trace->resultCacheHit);
    }
    const auto after = store.stats().results;
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);

    // The store path then replays once and agrees with it.
    const Comparison bytecode =
        machine.compare(RunRequest::gpm(gpm::GpmApp::T, g, cached()));
    const Comparison live =
        machine.compare(RunRequest::gpm(gpm::GpmApp::T, g, off));
    EXPECT_EQ(bytecode.baseline.cycles, live.baseline.cycles);
    EXPECT_EQ(bytecode.accelerated.cycles, live.accelerated.cycles);
    EXPECT_EQ(store.stats().results.misses - before.misses, 2u);
}

TEST(ReplayResultCache, ClearDropsResultsAndTheirBytes)
{
    const auto g = test::randomTestGraph(80, 500, 3);
    const std::string key =
        ArtifactStore::gpmTraceKey(gpm::GpmApp::T, g, 1);
    const ArtifactStore::CaptureFn capture =
        [&g](trace::TraceRecorder &rec) {
            gpm::PlanExecutor executor(g, rec);
            return executor.runMany(gpm::gpmAppPlans(gpm::GpmApp::T))
                .embeddings;
        };
    ArtifactStore store;
    const arch::SparseCoreConfig config;
    auto cached = store.trace(key, capture);
    auto program = store.program(key, cached->trace, false);
    bool replayed = false;
    const Cycles cycles =
        store.replayResult(key, *program, Substrate::Cpu, config, &replayed)
            ->cycles;
    EXPECT_TRUE(replayed);
    store.replayResult(key, *program, Substrate::SparseCore, config);
    EXPECT_EQ(store.stats().results.entries, 2u);
    EXPECT_GT(store.stats().results.bytes, 0u);

    store.clear();
    EXPECT_EQ(store.stats().results.entries, 0u);
    EXPECT_EQ(store.stats().results.bytes, 0u);

    cached = store.trace(key, capture);
    program = store.program(key, cached->trace, false);
    EXPECT_EQ(store.replayResult(key, *program, Substrate::Cpu, config,
                                 &replayed)
                  ->cycles,
              cycles);
    EXPECT_TRUE(replayed);
    EXPECT_EQ(store.stats().results.misses, 3u);
}

TEST(ReplayResultCache, ConcurrentComparesBuildEachResultOnce)
{
    const auto g = storeGraph(404);
    const RunRequest req = RunRequest::gpm(gpm::GpmApp::T, g, cached());
    arch::SparseCoreConfig config;
    config.numSus = 8;
    ArtifactStore &store = ArtifactStore::global();
    const auto before = store.stats().results;

    RunOptions off;
    off.artifactCache = false;
    const Comparison expected =
        Machine(config).compare(RunRequest::gpm(gpm::GpmApp::T, g, off));

    std::vector<Comparison> got(4);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < got.size(); ++i)
        threads.emplace_back(
            [&, i] { got[i] = Machine(config).compare(req); });
    for (std::thread &t : threads)
        t.join();
    for (const Comparison &cmp : got) {
        EXPECT_EQ(cmp.baseline.cycles, expected.baseline.cycles);
        EXPECT_EQ(cmp.baseline.breakdown.cycles,
                  expected.baseline.breakdown.cycles);
        EXPECT_EQ(cmp.accelerated.cycles, expected.accelerated.cycles);
        EXPECT_EQ(cmp.accelerated.breakdown.cycles,
                  expected.accelerated.breakdown.cycles);
    }
    const auto after = store.stats().results;
    EXPECT_EQ(after.misses - before.misses, 2u);
    EXPECT_EQ(after.hits - before.hits, 6u);
}

TEST(ReplayResultCache, TimingKeysWriteEveryField)
{
    // Changing any one field changes the SparseCore key; the CPU key
    // changes exactly when the field is one CpuBackend reads.
    const arch::SparseCoreConfig base;
    const std::string sc_key = ArtifactStore::timingKey(base);
    const std::string cpu_key =
        ArtifactStore::timingKey(base.core, base.mem);
    for (const FieldChange &change : everyFieldChange()) {
        arch::SparseCoreConfig config;
        change.apply(config);
        EXPECT_NE(ArtifactStore::timingKey(config), sc_key)
            << change.field;
        EXPECT_EQ(ArtifactStore::timingKey(config.core, config.mem) !=
                      cpu_key,
                  change.cpu)
            << change.field;
        EXPECT_EQ(ArtifactStore::resultKey("k", Substrate::Cpu, config) !=
                      ArtifactStore::resultKey("k", Substrate::Cpu, base),
                  change.cpu)
            << change.field;
    }
}

TEST(ReplayResultCache, SummaryMissesOnEveryTimingField)
{
    // The cost-bound summary reads core, memory and stream-component
    // timing fields; two configs differing in any of them must not
    // share one cached bracket.
    const auto g = test::randomTestGraph(80, 500, 3);
    const std::string key =
        ArtifactStore::gpmTraceKey(gpm::GpmApp::T, g, 1);
    ArtifactStore store;
    const auto cached = store.trace(key, [&g](trace::TraceRecorder &rec) {
        gpm::PlanExecutor executor(g, rec);
        return executor.runMany(gpm::gpmAppPlans(gpm::GpmApp::T))
            .embeddings;
    });
    store.summary(key, cached->trace, {});
    std::uint64_t misses = 1;
    for (const FieldChange &change : everyFieldChange()) {
        arch::SparseCoreConfig config;
        change.apply(config);
        store.summary(key, cached->trace, config);
        EXPECT_EQ(store.stats().summaries.misses, ++misses)
            << change.field;
    }
    // The same configs again: all hits.
    const auto hits = store.stats().summaries.hits;
    store.summary(key, cached->trace, {});
    EXPECT_EQ(store.stats().summaries.hits, hits + 1);
    EXPECT_EQ(store.stats().summaries.misses, misses);
}
