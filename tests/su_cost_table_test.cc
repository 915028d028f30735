/**
 * @file
 * The SU-cost table (trace/su_cost_table.hh): replaying a program with
 * its precomputed table is bit-identical to computing every SU cost
 * during the replay — cycles, breakdown and engine statistics — for
 * every GPM app and FSM on the fig12 SU ladder with nested
 * intersection on and off at three SU windows, and for spmspm/TTV
 * value traces. A table that runs out or is left partly unread
 * panics. The store builds one table per (program, window) and every
 * store-backed SparseCore replay reads it.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "api/artifact_store.hh"
#include "api/machine.hh"
#include "api/parallel.hh"
#include "backend/sparsecore_backend.hh"
#include "gpm/apps.hh"
#include "gpm/executor.hh"
#include "gpm/fsm.hh"
#include "graph/generators.hh"
#include "kernels/spmspm.hh"
#include "kernels/ttv.hh"
#include "tensor/tensor_gen.hh"
#include "test_util.hh"
#include "trace/compile.hh"
#include "trace/recorder.hh"
#include "trace/replay.hh"
#include "trace/su_cost_table.hh"

using namespace sc;
using streams::SetOpKind;

namespace {

const unsigned kLadderSus[] = {1, 2, 4, 8, 16};
const unsigned kWindows[] = {8, 16, 64};

/** Everything a replay leaves observable on a SparseCore backend. */
struct ReplayOutcome
{
    Cycles cycles = 0;
    sim::CycleBreakdown breakdown;
    std::string engineStats;
    std::vector<std::uint64_t> lengthBuckets;
    std::uint64_t lengthSamples = 0;
    std::uint64_t lengthSum = 0;
    std::vector<Cycles> suBusy;
};

ReplayOutcome
replayOn(const trace::BytecodeProgram &bc,
         const arch::SparseCoreConfig &config,
         std::shared_ptr<const streams::SuCostTable> table)
{
    backend::SparseCoreBackend be(config, std::move(table));
    const trace::ReplayResult rep =
        trace::replayCompiled(bc, be, /*verify=*/false);
    const arch::Engine &engine = be.engine();
    ReplayOutcome out;
    out.cycles = rep.cycles;
    out.breakdown = rep.breakdown;
    out.engineStats = engine.stats().dump();
    out.lengthBuckets = engine.streamLengthHist().buckets();
    out.lengthSamples = engine.streamLengthHist().samples();
    out.lengthSum = engine.streamLengthHist().sum();
    for (const arch::StreamUnit &su : engine.streamUnits())
        out.suBusy.push_back(su.busyCycles());
    return out;
}

void
expectSameOutcome(const ReplayOutcome &got, const ReplayOutcome &want,
                  const std::string &label)
{
    EXPECT_EQ(got.cycles, want.cycles) << label;
    EXPECT_EQ(got.breakdown.cycles, want.breakdown.cycles) << label;
    EXPECT_EQ(got.engineStats, want.engineStats) << label;
    EXPECT_EQ(got.lengthBuckets, want.lengthBuckets) << label;
    EXPECT_EQ(got.lengthSamples, want.lengthSamples) << label;
    EXPECT_EQ(got.lengthSum, want.lengthSum) << label;
    EXPECT_EQ(got.suBusy, want.suBusy) << label;
}

/** Table vs no table at every (window, SU count, nested) point. */
void
expectTableEquivalent(const trace::Trace &tr, const std::string &label)
{
    const trace::BytecodeProgram bc = trace::compileTrace(tr);
    for (const unsigned width : kWindows) {
        const auto table = std::make_shared<const streams::SuCostTable>(
            trace::suCostTable(bc, width));
        ASSERT_EQ(table->entries.size(), trace::suCostCount(bc)) << label;
        for (const unsigned sus : kLadderSus) {
            for (const bool nested : {true, false}) {
                arch::SparseCoreConfig config;
                config.suWindow = width;
                config.numSus = sus;
                config.nestedIntersection = nested;
                const std::string at =
                    label + " window " + std::to_string(width) + " sus " +
                    std::to_string(sus) + (nested ? " nested" : " lowered");
                expectSameOutcome(replayOn(bc, config, table),
                                  replayOn(bc, config, nullptr), at);
            }
        }
    }
}

trace::Trace
gpmTrace(const graph::CsrGraph &g, gpm::GpmApp app)
{
    trace::TraceRecorder rec;
    gpm::PlanExecutor executor(g, rec);
    executor.runMany(gpm::gpmAppPlans(app));
    return rec.takeTrace();
}

/** A T trace on a small random graph: nested groups plus set ops. */
trace::BytecodeProgram
triangleProgram()
{
    return trace::compileTrace(
        gpmTrace(test::randomTestGraph(80, 500, 3), gpm::GpmApp::T));
}

graph::CsrGraph
storeGraph(std::uint64_t seed)
{
    return graph::generateChungLu(500, 5000, 120, 2.0, seed, "sucost");
}

api::RunOptions
cached()
{
    api::RunOptions options;
    options.artifactCache = true;
    return options;
}

} // namespace

TEST(SuCostTable, ReplayIdenticalForGpmAppsOnFig12Ladder)
{
    const auto g = test::randomTestGraph(100, 700, 5);
    for (const gpm::GpmApp app : gpm::allGpmApps())
        expectTableEquivalent(gpmTrace(g, app),
                              std::string("gpm ") + gpm::gpmAppName(app));
}

TEST(SuCostTable, ReplayIdenticalForFsmOnFig12Ladder)
{
    auto base = test::randomTestGraph(60, 350, 13);
    std::vector<graph::Label> labels(base.numVertices());
    for (VertexId v = 0; v < base.numVertices(); ++v)
        labels[v] = static_cast<graph::Label>(v % 3);
    const graph::LabeledGraph lg(std::move(base), labels);

    trace::TraceRecorder rec;
    gpm::runFsm(lg, rec, 2);
    expectTableEquivalent(rec.takeTrace(), "fsm");
}

TEST(SuCostTable, ReplayIdenticalForValueTraces)
{
    const auto a = tensor::generateMatrix(
        30, 40, 240, tensor::MatrixStructure::Uniform, 31, "A");
    const auto b = tensor::generateMatrix(
        40, 25, 220, tensor::MatrixStructure::Uniform, 32, "B");
    for (const auto algorithm : {kernels::SpmspmAlgorithm::Inner,
                                 kernels::SpmspmAlgorithm::Outer,
                                 kernels::SpmspmAlgorithm::Gustavson}) {
        trace::TraceRecorder rec;
        kernels::runSpmspm(a, b, algorithm, rec);
        expectTableEquivalent(rec.takeTrace(), "spmspm");
    }
    const auto t = tensor::generateTensor(15, 12, 20, 260, 43, "T");
    trace::TraceRecorder rec;
    kernels::runTtv(t, std::vector<Value>(20, 1.5), rec);
    expectTableEquivalent(rec.takeTrace(), "ttv");
}

TEST(SuCostTable, EntriesFollowTheEngineOrder)
{
    // Oracle over the captured event list: one suCost per set op and
    // value op and one per nested element, in event order, with the
    // arguments the engine passes.
    const trace::Trace tr =
        gpmTrace(test::randomTestGraph(80, 500, 3), gpm::GpmApp::T);
    const trace::BytecodeProgram bc = trace::compileTrace(tr);
    ASSERT_GT(bc.profile().nestedElements, 0u);
    const unsigned width = 8;
    std::vector<streams::SuCost> want;
    auto add = [&](trace::SpanRef a, streams::KeySpan b, SetOpKind kind,
                   Key bound) {
        want.push_back(streams::suCost(tr.span(a), b, kind, bound, width));
    };
    for (const trace::Event &e : tr.events()) {
        switch (e.kind) {
          case trace::EventKind::SetOp:
          case trace::EventKind::SetOpCount:
            add(e.s0, tr.span(e.s1), static_cast<SetOpKind>(e.aux),
                e.bound);
            break;
          case trace::EventKind::ValueIntersect:
          case trace::EventKind::DenseValueIntersect:
            add(e.s0, tr.span(e.s1), SetOpKind::Intersect, noBound);
            break;
          case trace::EventKind::ValueMerge:
            add(e.s0, tr.span(e.s1), SetOpKind::Merge, noBound);
            break;
          case trace::EventKind::NestedGroup:
            for (std::uint32_t i = 0; i < e.aux2; ++i) {
                const trace::NestedEntry &entry = tr.nestedEntry(e.n + i);
                add(e.s0, tr.span(entry.nested), SetOpKind::Intersect,
                    entry.bound);
            }
            break;
          default:
            break;
        }
    }

    const streams::SuCostTable table = trace::suCostTable(bc, width);
    EXPECT_EQ(table.width, width);
    EXPECT_EQ(trace::suCostCount(bc), want.size());
    ASSERT_EQ(table.entries.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        const streams::SuCost got = streams::unpackSuCost(table.entries[i]);
        EXPECT_EQ(got.cycles, want[i].cycles) << "entry " << i;
        EXPECT_EQ(got.aConsumed, want[i].aConsumed) << "entry " << i;
        EXPECT_EQ(got.bConsumed, want[i].bConsumed) << "entry " << i;
    }
    EXPECT_GE(table.memoryBytes(),
              table.entries.size() * sizeof(streams::PackedSuCost));
}

TEST(SuCostTable, ShortTablePanics)
{
    const trace::BytecodeProgram bc = triangleProgram();
    auto table = trace::suCostTable(bc, 16);
    ASSERT_FALSE(table.entries.empty());
    table.entries.pop_back();
    for (const bool nested : {true, false}) {
        arch::SparseCoreConfig config;
        config.nestedIntersection = nested;
        backend::SparseCoreBackend be(
            config, std::make_shared<const streams::SuCostTable>(table));
        EXPECT_THROW(trace::replayCompiled(bc, be, false), SimError);
    }
}

TEST(SuCostTable, PartlyUnreadTablePanics)
{
    const trace::BytecodeProgram bc = triangleProgram();
    auto table = trace::suCostTable(bc, 16);
    table.entries.push_back(table.entries.front());
    backend::SparseCoreBackend be(
        arch::SparseCoreConfig{},
        std::make_shared<const streams::SuCostTable>(std::move(table)));
    EXPECT_THROW(trace::replayCompiled(bc, be, false), SimError);
}

TEST(SuCostTable, WindowMismatchPanics)
{
    const trace::BytecodeProgram bc = triangleProgram();
    arch::SparseCoreConfig config;
    config.suWindow = 8;
    EXPECT_THROW(backend::SparseCoreBackend(
                     config, std::make_shared<const streams::SuCostTable>(
                                 trace::suCostTable(bc, 16))),
                 SimError);
}

TEST(SuCostTable, PackingRejectsOverflow)
{
    streams::SuCost cost{1, 2, 3};
    const streams::PackedSuCost packed = streams::packSuCost(cost);
    EXPECT_EQ(streams::unpackSuCost(packed).cycles, 1u);
    EXPECT_EQ(streams::unpackSuCost(packed).aConsumed, 2u);
    EXPECT_EQ(streams::unpackSuCost(packed).bConsumed, 3u);
    cost.cycles = std::uint64_t{1} << 32;
    EXPECT_THROW(streams::packSuCost(cost), SimError);
    cost.cycles = 0;
    cost.bConsumed = std::uint64_t{1} << 33;
    EXPECT_THROW(streams::packSuCost(cost), SimError);
}

TEST(SuCostTable, StoreBuildsOnceAcrossLadderConfigs)
{
    // N ladder points over one warm trace: one table miss, N - 1
    // hits. Another SU window is its own miss; clear() drops both.
    const auto g = storeGraph(301);
    const api::RunRequest req =
        api::RunRequest::gpm(gpm::GpmApp::T, g, cached());
    api::ArtifactStore &store = api::ArtifactStore::global();

    api::Machine().run(req, api::Substrate::Cpu); // warm the trace
    const auto before = store.stats().suCosts;
    unsigned points = 0;
    for (const unsigned sus : kLadderSus) {
        for (const unsigned bandwidth : {16u, 64u}) {
            arch::SparseCoreConfig config;
            config.numSus = sus;
            config.aggregateBandwidth = bandwidth;
            api::Machine(config).run(req, api::Substrate::SparseCore);
            ++points;
        }
    }
    auto after = store.stats().suCosts;
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(after.hits - before.hits, points - 1);

    arch::SparseCoreConfig narrow;
    narrow.suWindow = 8;
    api::Machine(narrow).run(req, api::Substrate::SparseCore);
    after = store.stats().suCosts;
    EXPECT_EQ(after.misses - before.misses, 2u);
    EXPECT_GT(after.entries, 0u);
    EXPECT_GT(after.bytes, 0u);

    store.clear();
    after = store.stats().suCosts;
    EXPECT_EQ(after.entries, 0u);
    EXPECT_EQ(after.bytes, 0u);
    api::Machine(narrow).run(req, api::Substrate::SparseCore);
    EXPECT_EQ(store.stats().suCosts.misses - before.misses, 3u);
}

TEST(SuCostTable, StorePathsMatchStoreOffCycles)
{
    // Machine::run, compare() and both host-parallel miners attach
    // the store's table; cycles match the store-off path exactly.
    const auto g = storeGraph(302);
    arch::SparseCoreConfig config;
    config.numSus = 2;
    config.nestedIntersection = false;
    const api::Machine machine(config);
    api::RunOptions off;
    off.artifactCache = false;
    api::ArtifactStore &store = api::ArtifactStore::global();
    const auto misses0 = store.stats().suCosts.misses;

    for (const gpm::GpmApp app : {gpm::GpmApp::T, gpm::GpmApp::TC}) {
        const auto on_run = machine.run(
            api::RunRequest::gpm(app, g, cached()),
            api::Substrate::SparseCore);
        const auto off_run = machine.run(api::RunRequest::gpm(app, g, off),
                                         api::Substrate::SparseCore);
        EXPECT_EQ(on_run.cycles, off_run.cycles);
        EXPECT_EQ(on_run.breakdown.cycles, off_run.breakdown.cycles);

        const auto on_cmp =
            machine.compare(api::RunRequest::gpm(app, g, cached()));
        const auto off_cmp =
            machine.compare(api::RunRequest::gpm(app, g, off));
        EXPECT_EQ(on_cmp.accelerated.cycles, off_cmp.accelerated.cycles);
        EXPECT_EQ(on_cmp.accelerated.breakdown.cycles,
                  off_cmp.accelerated.breakdown.cycles);
        EXPECT_EQ(on_cmp.baseline.cycles, off_cmp.baseline.cycles);
    }
    // One table per app: compare() reused the result run() built.
    EXPECT_EQ(store.stats().suCosts.misses - misses0, 2u);

    api::HostOptions host_on;
    host_on.artifactCache = true;
    api::HostOptions host_off;
    host_off.artifactCache = false;
    const auto mined_on = api::mineParallelSparseCore(
        gpm::GpmApp::T, g, 2, config, 1, host_on);
    const auto mined_off = api::mineParallelSparseCore(
        gpm::GpmApp::T, g, 2, config, 1, host_off);
    EXPECT_EQ(mined_on.perCore, mined_off.perCore);
    const auto after_mine = store.stats().suCosts.misses;
    EXPECT_GT(after_mine, misses0 + 2);

    const auto cmp_on = api::compareParallelGpm(gpm::GpmApp::T, g, 2,
                                                config, 1, host_on);
    const auto cmp_off = api::compareParallelGpm(gpm::GpmApp::T, g, 2,
                                                 config, 1, host_off);
    EXPECT_EQ(cmp_on.accelerated.perCore, cmp_off.accelerated.perCore);
    EXPECT_EQ(cmp_on.baseline.perCore, cmp_off.baseline.perCore);
    // The chunk programs are shared with the miner above, so are
    // their tables.
    EXPECT_EQ(store.stats().suCosts.misses, after_mine);
}

TEST(SuCostTable, ConcurrentLadderPointsShareOneTable)
{
    // Compare jobs at different arch points replaying one warm
    // program concurrently build its table once and read it from
    // several threads at a time.
    const auto g = storeGraph(303);
    const api::RunRequest req =
        api::RunRequest::gpm(gpm::GpmApp::T, g, cached());
    api::ArtifactStore &store = api::ArtifactStore::global();
    const api::Comparison reference = api::Machine().compare(req);
    const auto before = store.stats().suCosts;

    std::vector<std::thread> threads;
    std::vector<Cycles> cycles(4);
    std::vector<Cycles> expected(4);
    for (unsigned i = 0; i < 4; ++i) {
        arch::SparseCoreConfig config;
        config.numSus = 1u << i;
        api::RunOptions off;
        off.artifactCache = false;
        expected[i] = api::Machine(config)
                          .run(api::RunRequest::gpm(gpm::GpmApp::T, g, off),
                               api::Substrate::SparseCore)
                          .cycles;
        threads.emplace_back([&, i, config] {
            cycles[i] = api::Machine(config).compare(req).accelerated.cycles;
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(cycles, expected);
    EXPECT_EQ(cycles[2], reference.accelerated.cycles); // 4 SUs: default
    const auto after = store.stats().suCosts;
    EXPECT_EQ(after.misses, before.misses);
    // The 4-SU point's SparseCore result is already resident (the
    // reference compare built it), so only the other three replay
    // and read the table.
    EXPECT_EQ(after.hits - before.hits, 3u);
}
