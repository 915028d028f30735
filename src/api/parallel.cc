#include "api/parallel.hh"

#include <algorithm>
#include <memory>

#include "analysis/trace_check.hh"
#include "api/artifact_store.hh"
#include "backend/cpu_backend.hh"
#include "backend/sparsecore_backend.hh"
#include "common/logging.hh"
#include "common/parallel_for.hh"
#include "gpm/executor.hh"
#include "trace/compile.hh"
#include "trace/recorder.hh"
#include "trace/replay.hh"

namespace sc::api {

namespace {

/** One root-loop chunk's contribution (per-task backend session). */
struct ChunkRun
{
    std::uint64_t embeddings = 0;
    Cycles cycles = 0;
};

void
checkParallelArgs(unsigned num_cores, unsigned root_stride)
{
    if (num_cores == 0)
        fatal("need at least one core");
    if (root_stride == 0)
        fatal("root stride must be positive");
}

/**
 * Capture one root-loop chunk's event trace. Chunk m covers roots
 * { (m + i*M) * root_stride } — the same interleaved split as the
 * legacy per-core loop, just finer, so a heavy root region spreads
 * over every simulated core AND over every host thread.
 */
gpm::GpmRunResult
captureChunk(const std::vector<gpm::MiningPlan> &plans,
             const graph::CsrGraph &g,
             unsigned chunk, unsigned num_chunks, unsigned root_stride,
             trace::TraceRecorder &recorder)
{
    gpm::PlanExecutor executor(g, recorder);
    executor.setRootRange(chunk * root_stride,
                          num_chunks * root_stride);
    return executor.runMany(plans);
}

/**
 * The host-parallel miner shared by both substrates.
 * make_backend(key, bc) builds one chunk's backend: on the
 * store-backed bytecode path `bc` is the chunk's stored program and
 * `key` its trace key (so SparseCore can attach the store's SU-cost
 * table); elsewhere `bc` is null.
 */
template <typename MakeBackend>
ParallelGpmResult
mineParallel(gpm::GpmApp app, const graph::CsrGraph &g,
             unsigned num_cores, unsigned root_stride,
             const HostOptions &host, MakeBackend &&make_backend)
{
    checkParallelArgs(num_cores, root_stride);
    const auto plans = gpm::gpmAppPlans(app);
    ThreadPool &pool = host.pool ? *host.pool : ThreadPool::global();
    std::optional<streams::ScopedKernelOverride> forced;
    if (host.kernel)
        forced.emplace(*host.kernel);
    std::optional<streams::setindex::ScopedIndexPolicyOverride>
        forced_index;
    if (host.indexPolicy)
        forced_index.emplace(*host.indexPolicy);

    // K * num_cores chunks, stolen dynamically by the host threads.
    // Chunk m is attributed to simulated core m % num_cores. Each
    // chunk captures its event trace once and replays it onto a
    // private backend — the chunk outcome is a pure function of the
    // chunk index, so the result is independent of host scheduling.
    const unsigned k = std::max(1u, host.chunksPerCore);
    const unsigned num_chunks = num_cores * k;

    const trace::ReplayMode mode =
        trace::resolveReplayMode(host.replayMode);
    const bool use_store =
        ArtifactStore::resolveEnabled(host.artifactCache);
    const auto runs = parallelMap<ChunkRun>(
        pool, num_chunks, [&](std::size_t chunk) {
            if (use_store) {
                // Per-chunk content key: concurrent chunks dedup
                // in-flight builds inside the store, and a warm run
                // (same app/graph/split) skips capture and compile
                // entirely.
                const std::string key =
                    ArtifactStore::gpmChunkTraceKey(
                        app, g, root_stride,
                        static_cast<unsigned>(chunk), num_chunks);
                ArtifactStore &store = ArtifactStore::global();
                const auto cached = store.trace(
                    key, [&](trace::TraceRecorder &recorder) {
                        return captureChunk(
                                   plans, g,
                                   static_cast<unsigned>(chunk),
                                   num_chunks, root_stride, recorder)
                            .embeddings;
                    });
                trace::ReplayResult rep;
                if (mode == trace::ReplayMode::Bytecode) {
                    const auto bc = store.program(key, cached->trace);
                    auto backend = make_backend(key, bc.get());
                    rep = trace::replayCompiled(*bc, *backend, false);
                } else {
                    auto backend = make_backend(key, nullptr);
                    rep = trace::replay(cached->trace, *backend,
                                        std::nullopt,
                                        trace::ReplayMode::Event);
                }
                return ChunkRun{cached->functionalResult, rep.cycles};
            }
            trace::TraceRecorder recorder;
            const auto run =
                captureChunk(plans, g, static_cast<unsigned>(chunk),
                             num_chunks, root_stride, recorder);
            const trace::Trace tr = recorder.takeTrace();
            auto backend = make_backend(std::string{}, nullptr);
            const auto rep =
                trace::replay(tr, *backend, std::nullopt, mode);
            return ChunkRun{run.embeddings, rep.cycles};
        });

    // Ordered reduction: chunk-index order, fixed chunk→core cycle
    // attribution — bit-identical for any host thread count.
    ParallelGpmResult result;
    result.perCore.assign(num_cores, 0);
    for (unsigned chunk = 0; chunk < num_chunks; ++chunk) {
        result.embeddings += runs[chunk].embeddings;
        result.perCore[chunk % num_cores] += runs[chunk].cycles;
    }
    for (Cycles c : result.perCore)
        result.cycles = std::max(result.cycles, c);
    return result;
}

} // namespace

ParallelGpmResult
mineParallelSparseCore(gpm::GpmApp app, const graph::CsrGraph &g,
                       unsigned num_cores,
                       const arch::SparseCoreConfig &config,
                       unsigned root_stride, const HostOptions &host)
{
    return mineParallel(
        app, g, num_cores, root_stride, host,
        [&](const std::string &key, const trace::BytecodeProgram *bc) {
            return std::make_unique<backend::SparseCoreBackend>(
                config, bc ? ArtifactStore::global().suCosts(
                                 key, *bc, config.suWindow)
                           : nullptr);
        });
}

ParallelGpmResult
mineParallelCpu(gpm::GpmApp app, const graph::CsrGraph &g,
                unsigned num_cores,
                const arch::SparseCoreConfig &config,
                unsigned root_stride, const HostOptions &host)
{
    return mineParallel(
        app, g, num_cores, root_stride, host,
        [&](const std::string &, const trace::BytecodeProgram *) {
            return std::make_unique<backend::CpuBackend>(config.core,
                                                         config.mem);
        });
}

ParallelComparison
compareParallelGpm(gpm::GpmApp app, const graph::CsrGraph &g,
                   unsigned num_cores,
                   const arch::SparseCoreConfig &config,
                   unsigned root_stride, const HostOptions &host)
{
    checkParallelArgs(num_cores, root_stride);
    const auto plans = gpm::gpmAppPlans(app);
    ThreadPool &pool = host.pool ? *host.pool : ThreadPool::global();
    std::optional<streams::ScopedKernelOverride> forced;
    if (host.kernel)
        forced.emplace(*host.kernel);
    std::optional<streams::setindex::ScopedIndexPolicyOverride>
        forced_index;
    if (host.indexPolicy)
        forced_index.emplace(*host.indexPolicy);
    const unsigned k = std::max(1u, host.chunksPerCore);
    const unsigned num_chunks = num_cores * k;

    struct ChunkCompare
    {
        std::uint64_t embeddings = 0;
        Cycles cpuCycles = 0;
        Cycles scCycles = 0;
    };

    // One capture per chunk; the trace replays onto both substrates
    // within the same host task, so the chunk outcome stays a pure
    // function of the chunk index. In Bytecode mode the chunk
    // compiles its trace once and both substrates replay the shared
    // program.
    const trace::ReplayMode mode =
        trace::resolveReplayMode(host.replayMode);
    const bool use_store =
        ArtifactStore::resolveEnabled(host.artifactCache);
    const auto runs = parallelMap<ChunkCompare>(
        pool, num_chunks, [&](std::size_t chunk) {
            if (use_store) {
                const std::string key =
                    ArtifactStore::gpmChunkTraceKey(
                        app, g, root_stride,
                        static_cast<unsigned>(chunk), num_chunks);
                ArtifactStore &store = ArtifactStore::global();
                const auto cached = store.trace(
                    key, [&](trace::TraceRecorder &recorder) {
                        return captureChunk(
                                   plans, g,
                                   static_cast<unsigned>(chunk),
                                   num_chunks, root_stride, recorder)
                            .embeddings;
                    });
                backend::CpuBackend cpu(config.core, config.mem);
                if (mode == trace::ReplayMode::Bytecode) {
                    const auto bc = store.program(key, cached->trace);
                    backend::SparseCoreBackend sc(
                        config,
                        store.suCosts(key, *bc, config.suWindow));
                    return ChunkCompare{
                        cached->functionalResult,
                        trace::replayCompiled(*bc, cpu, false).cycles,
                        trace::replayCompiled(*bc, sc, false).cycles};
                }
                backend::SparseCoreBackend sc(config);
                return ChunkCompare{
                    cached->functionalResult,
                    trace::replay(cached->trace, cpu, std::nullopt,
                                  trace::ReplayMode::Event)
                        .cycles,
                    trace::replay(cached->trace, sc, std::nullopt,
                                  trace::ReplayMode::Event)
                        .cycles};
            }
            trace::TraceRecorder recorder;
            const auto run =
                captureChunk(plans, g, static_cast<unsigned>(chunk),
                             num_chunks, root_stride, recorder);
            const trace::Trace tr = recorder.takeTrace();
            backend::CpuBackend cpu(config.core, config.mem);
            backend::SparseCoreBackend sc(config);
            if (mode == trace::ReplayMode::Bytecode) {
                if (analysis::verifyByDefault()) {
                    const analysis::VerifyReport report =
                        analysis::verifyTrace(tr);
                    if (report.hasErrors())
                        throw analysis::VerifyError(report.format());
                }
                const trace::BytecodeProgram bc =
                    trace::compileTrace(tr);
                return ChunkCompare{
                    run.embeddings,
                    trace::replayCompiled(bc, cpu, false).cycles,
                    trace::replayCompiled(bc, sc, false).cycles};
            }
            return ChunkCompare{
                run.embeddings,
                trace::replay(tr, cpu, std::nullopt, mode).cycles,
                trace::replay(tr, sc, std::nullopt, mode).cycles};
        });

    ParallelComparison cmp;
    cmp.baseline.perCore.assign(num_cores, 0);
    cmp.accelerated.perCore.assign(num_cores, 0);
    for (unsigned chunk = 0; chunk < num_chunks; ++chunk) {
        cmp.functionalResult += runs[chunk].embeddings;
        cmp.baseline.perCore[chunk % num_cores] +=
            runs[chunk].cpuCycles;
        cmp.accelerated.perCore[chunk % num_cores] +=
            runs[chunk].scCycles;
    }
    cmp.baseline.embeddings = cmp.functionalResult;
    cmp.accelerated.embeddings = cmp.functionalResult;
    for (unsigned core = 0; core < num_cores; ++core) {
        cmp.baseline.cycles =
            std::max(cmp.baseline.cycles, cmp.baseline.perCore[core]);
        cmp.accelerated.cycles = std::max(
            cmp.accelerated.cycles, cmp.accelerated.perCore[core]);
    }
    return cmp;
}

} // namespace sc::api
