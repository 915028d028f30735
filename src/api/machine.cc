#include "api/machine.hh"

#include <chrono>
#include <optional>
#include <string>

#include "analysis/trace_check.hh"
#include "analysis/verifying_backend.hh"
#include "api/artifact_store.hh"
#include "backend/cpu_backend.hh"
#include "backend/sparsecore_backend.hh"
#include "common/logging.hh"
#include "common/parallel_for.hh"
#include "gpm/executor.hh"
#include "gpm/fsm.hh"
#include "kernels/ttm.hh"
#include "kernels/ttv.hh"
#include "trace/compile.hh"
#include "trace/recorder.hh"
#include "trace/replay.hh"

namespace sc::api {

namespace {

void
validate(const RunRequest &req)
{
    switch (req.workload) {
      case RunRequest::Workload::Gpm:
        if (!req.graph)
            fatal("GPM request needs a graph");
        break;
      case RunRequest::Workload::Fsm:
        if (!req.labeledGraph)
            fatal("FSM request needs a labeled graph");
        break;
      case RunRequest::Workload::Spmspm:
        if (!req.matrixA || !req.matrixB)
            fatal("spmspm request needs both matrices");
        break;
      case RunRequest::Workload::Ttv:
        if (!req.tensor || !req.vector)
            fatal("TTV request needs a tensor and a dense vector");
        break;
      case RunRequest::Workload::Ttm:
        if (!req.tensor || !req.matrixB)
            fatal("TTM request needs a tensor and a matrix");
        break;
    }
    if (req.options.stride == 0 || req.options.rootStride == 0)
        fatal("strides must be positive");
}

/** Run the request's workload against one backend. Works for timing
 *  backends and the TraceRecorder alike — the capture leg of
 *  compare() is the same code path as run(). */
RunResult
executeOn(const RunRequest &req, backend::ExecBackend &be)
{
    RunResult out;
    switch (req.workload) {
      case RunRequest::Workload::Gpm: {
        gpm::PlanExecutor executor(*req.graph, be);
        executor.setRootStride(req.options.rootStride);
        const auto r = executor.runMany(gpm::gpmAppPlans(req.app));
        out.functionalResult = r.embeddings;
        out.cycles = r.cycles;
        out.breakdown = r.breakdown;
        break;
      }
      case RunRequest::Workload::Fsm: {
        const auto r =
            gpm::runFsm(*req.labeledGraph, be, req.minSupport);
        out.functionalResult = r.totalFrequent();
        out.cycles = r.cycles;
        out.breakdown = r.breakdown;
        break;
      }
      case RunRequest::Workload::Spmspm: {
        const auto r = kernels::runSpmspm(
            *req.matrixA, *req.matrixB, req.algorithm, be,
            req.options.stride, req.spmspmResult);
        out.functionalResult = r.valueOps;
        out.cycles = r.cycles;
        out.breakdown = r.breakdown;
        break;
      }
      case RunRequest::Workload::Ttv: {
        const auto r = kernels::runTtv(*req.tensor, *req.vector, be,
                                       req.options.stride);
        out.functionalResult = r.valueOps;
        out.cycles = r.cycles;
        out.breakdown = r.breakdown;
        break;
      }
      case RunRequest::Workload::Ttm: {
        const auto r = kernels::runTtm(*req.tensor, *req.matrixB, be,
                                       req.options.stride);
        out.functionalResult = r.valueOps;
        out.cycles = r.cycles;
        out.breakdown = r.breakdown;
        break;
      }
    }
    return out;
}

/**
 * ArtifactStore key for the request, or "" when the workload is not
 * content-keyed. GPM and FSM datasets carry content fingerprints, so
 * their captures are pure functions of the key; the tensor workloads
 * stay uncached for now (each bench point runs them once, and spmspm
 * may materialize a caller-owned result matrix the cache could not
 * replay).
 */
std::string
traceKeyFor(const RunRequest &req)
{
    switch (req.workload) {
      case RunRequest::Workload::Gpm:
        return ArtifactStore::gpmTraceKey(req.app, *req.graph,
                                          req.options.rootStride);
      case RunRequest::Workload::Fsm:
        return ArtifactStore::fsmTraceKey(*req.labeledGraph,
                                          req.minSupport);
      default:
        return {};
    }
}

/** Capture the request's trace into the store (or reuse it).
 *  `cache_hit` reports whether *this call* skipped the capture —
 *  detected by a flag the capture lambda sets, which is race-free
 *  under concurrent callers (the builder runs at most once),
 *  unlike sampling the store's aggregate miss counters. */
std::shared_ptr<const ArtifactStore::CachedTrace>
storeTrace(const RunRequest &req, const std::string &key,
           bool *cache_hit)
{
    ArtifactStore &store = ArtifactStore::global();
    bool captured = false;
    auto cached =
        store.trace(key, [&](trace::TraceRecorder &recorder) {
            captured = true;
            return executeOn(req, recorder).functionalResult;
        });
    if (cache_hit)
        *cache_hit = !captured;
    return cached;
}

double
secondsBetween(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Store-backed verification for Event-mode replays: recall (or
 *  compute exactly once) the trace's verified bit and throw the same
 *  VerifyError trace::replay would. Callers then replay with
 *  verify=false; the verdict is settled entirely before any timing
 *  backend starts, so cycles are bit-identical either way. */
void
verifyViaStore(const std::string &key, const trace::Trace &tr,
               std::optional<bool> verify)
{
    if (!verify.value_or(analysis::verifyByDefault()))
        return;
    const auto report =
        ArtifactStore::global().verdict(key, tr, isa::numStreamRegs);
    if (report->hasErrors())
        throw analysis::VerifyError(report->format());
}

/**
 * The capture-once/replay-twice comparison core: the workload runs
 * functionally against a TraceRecorder once; the captured trace is
 * then replayed onto the CPU baseline and SparseCore concurrently on
 * `pool`. In Bytecode mode (the default) the trace is compiled once
 * and both substrates replay the shared program through the
 * devirtualized loops. The timing is bit-identical to running the
 * workload directly on each backend and identical across replay
 * modes (see tests/trace_test.cc).
 */
template <typename CaptureFn>
Comparison
compareViaTrace(const arch::SparseCoreConfig &config, ThreadPool &pool,
                const RunOptions &options, CaptureFn &&capture)
{
    Comparison cmp;
    const auto t0 = std::chrono::steady_clock::now();
    trace::TraceRecorder recorder;
    cmp.functionalResult = capture(recorder);
    const trace::Trace tr = recorder.takeTrace();
    const auto t1 = std::chrono::steady_clock::now();

    const trace::ReplayMode mode =
        trace::resolveReplayMode(options.replayMode);
    cmp.trace.replayMode = trace::replayModeName(mode);

    trace::ReplayResult cpu, sc;
    auto t2 = t1;
    if (mode == trace::ReplayMode::Bytecode) {
        // Verify the trace once up front (the compile preserves event
        // order), compile once, replay the shared program twice.
        if (options.verify.value_or(analysis::verifyByDefault())) {
            const analysis::VerifyReport report =
                analysis::verifyTrace(tr);
            if (report.hasErrors())
                throw analysis::VerifyError(report.format());
        }
        const trace::BytecodeProgram bc = trace::compileTrace(tr);
        t2 = std::chrono::steady_clock::now();
        cmp.trace.bytecodeBytes = bc.codeBytes();
        cmp.trace.compileSeconds = secondsBetween(t1, t2);
        parallelInvoke(
            pool,
            [&] {
                backend::CpuBackend be(config.core, config.mem);
                cpu = trace::replayCompiled(bc, be, /*verify=*/false);
            },
            [&] {
                backend::SparseCoreBackend be(config);
                sc = trace::replayCompiled(bc, be, /*verify=*/false);
            });
    } else {
        parallelInvoke(
            pool,
            [&] {
                backend::CpuBackend be(config.core, config.mem);
                cpu = trace::replay(tr, be, options.verify,
                                    trace::ReplayMode::Event);
            },
            [&] {
                backend::SparseCoreBackend be(config);
                sc = trace::replay(tr, be, options.verify,
                                   trace::ReplayMode::Event);
            });
    }
    const auto t3 = std::chrono::steady_clock::now();

    cmp.baseline = {"cpu", cpu.cycles, cpu.breakdown};
    cmp.accelerated = {"sparsecore", sc.cycles, sc.breakdown};
    cmp.trace.events = tr.numEvents();
    cmp.trace.arenaBytes = tr.arenaBytes();
    cmp.trace.captureSeconds = secondsBetween(t0, t1);
    cmp.trace.replaySeconds = secondsBetween(t2, t3);
    return cmp;
}

/**
 * The store-backed comparison core: the trace (and in Bytecode mode
 * the compiled program and both replay results) comes out of the
 * shared ArtifactStore, so a sweep of compare() calls over one (app,
 * dataset) captures and compiles exactly once, replays the CPU
 * baseline once and each SparseCore point once. A miss issues the
 * identical replay calls as compareViaTrace and a hit returns an
 * earlier miss's result, so cycles are bit-identical either way.
 */
Comparison
compareViaStore(const arch::SparseCoreConfig &config, ThreadPool &pool,
                const RunOptions &options, const RunRequest &req,
                const std::string &key)
{
    Comparison cmp;
    const auto t0 = std::chrono::steady_clock::now();
    const auto cached = storeTrace(req, key, &cmp.trace.traceCacheHit);
    cmp.functionalResult = cached->functionalResult;
    const trace::Trace &tr = cached->trace;
    const auto t1 = std::chrono::steady_clock::now();

    const trace::ReplayMode mode =
        trace::resolveReplayMode(options.replayMode);
    cmp.trace.replayMode = trace::replayModeName(mode);

    trace::ReplayResult cpu, sc;
    auto t2 = t1;
    if (mode == trace::ReplayMode::Bytecode) {
        bool compiled = false;
        const auto bc = ArtifactStore::global().program(
            key, tr, options.verify, &compiled);
        cmp.trace.bytecodeCacheHit = !compiled;
        t2 = std::chrono::steady_clock::now();
        cmp.trace.bytecodeBytes = bc->codeBytes();
        cmp.trace.compileSeconds =
            cmp.trace.bytecodeCacheHit ? 0 : secondsBetween(t1, t2);
        // Each substrate's result comes out of the store: the CPU
        // baseline is shared by every arch point of the program.
        bool cpu_replayed = false, sc_replayed = false;
        parallelInvoke(
            pool,
            [&] {
                cpu = *ArtifactStore::global().replayResult(
                    key, *bc, Substrate::Cpu, config, &cpu_replayed);
            },
            [&] {
                sc = *ArtifactStore::global().replayResult(
                    key, *bc, Substrate::SparseCore, config,
                    &sc_replayed);
            });
        cmp.trace.resultCacheHit = !cpu_replayed && !sc_replayed;
    } else {
        verifyViaStore(key, tr, options.verify);
        parallelInvoke(
            pool,
            [&] {
                backend::CpuBackend be(config.core, config.mem);
                cpu = trace::replay(tr, be, /*verify=*/false,
                                    trace::ReplayMode::Event);
            },
            [&] {
                backend::SparseCoreBackend be(config);
                sc = trace::replay(tr, be, /*verify=*/false,
                                   trace::ReplayMode::Event);
            });
    }
    const auto t3 = std::chrono::steady_clock::now();

    cmp.baseline = {"cpu", cpu.cycles, cpu.breakdown};
    cmp.accelerated = {"sparsecore", sc.cycles, sc.breakdown};
    cmp.trace.events = tr.numEvents();
    cmp.trace.arenaBytes = tr.arenaBytes();
    cmp.trace.captureSeconds =
        cmp.trace.traceCacheHit ? 0 : secondsBetween(t0, t1);
    cmp.trace.replaySeconds = secondsBetween(t2, t3);
    return cmp;
}

} // namespace

Machine::Machine(const arch::SparseCoreConfig &config) : config_(config)
{
}

RunResult
Machine::run(const RunRequest &request, Substrate substrate) const
{
    validate(request);
    std::optional<streams::ScopedKernelOverride> forced;
    if (request.options.kernel)
        forced.emplace(*request.options.kernel);
    std::optional<streams::setindex::ScopedIndexPolicyOverride>
        forced_index;
    if (request.options.indexPolicy)
        forced_index.emplace(*request.options.indexPolicy);

    const bool verify =
        request.options.verify.value_or(analysis::verifyByDefault());

    // Store-backed path: capture (or reuse) the content-keyed trace
    // and replay it onto the requested substrate — a warm run skips
    // the functional enumeration and the compile, and in Bytecode
    // mode a replay of the same program and timing config too.
    // Replay is bit-identical to direct execution (the PR-2
    // invariant), so this only moves host wall-clock. Trace-level
    // verification replaces the live VerifyingBackend wrapper here:
    // both run the same stream-lifetime rules over the same call
    // sequence.
    const std::string key =
        ArtifactStore::resolveEnabled(request.options.artifactCache)
            ? traceKeyFor(request)
            : std::string{};
    if (!key.empty()) {
        RunResult out;
        const auto t0 = std::chrono::steady_clock::now();
        const auto cached =
            storeTrace(request, key, &out.trace.traceCacheHit);
        const trace::Trace &tr = cached->trace;
        const auto t1 = std::chrono::steady_clock::now();
        const trace::ReplayMode mode =
            trace::resolveReplayMode(request.options.replayMode);
        out.trace.replayMode = trace::replayModeName(mode);
        out.trace.events = tr.numEvents();
        out.trace.arenaBytes = tr.arenaBytes();
        out.trace.captureSeconds = out.trace.traceCacheHit
                                       ? 0
                                       : secondsBetween(t0, t1);
        trace::ReplayResult rep;
        auto t2 = t1;
        if (mode == trace::ReplayMode::Bytecode) {
            bool compiled = false;
            const auto bc = ArtifactStore::global().program(
                key, tr, request.options.verify, &compiled);
            out.trace.bytecodeCacheHit = !compiled;
            t2 = std::chrono::steady_clock::now();
            out.trace.bytecodeBytes = bc->codeBytes();
            out.trace.compileSeconds =
                compiled ? secondsBetween(t1, t2) : 0;
            bool replayed = false;
            rep = *ArtifactStore::global().replayResult(
                key, *bc, substrate, config_, &replayed);
            out.trace.resultCacheHit = !replayed;
        } else if (substrate == Substrate::Cpu) {
            verifyViaStore(key, tr, request.options.verify);
            backend::CpuBackend be(config_.core, config_.mem);
            rep = trace::replay(tr, be, /*verify=*/false,
                                trace::ReplayMode::Event);
        } else {
            verifyViaStore(key, tr, request.options.verify);
            backend::SparseCoreBackend be(config_);
            rep = trace::replay(tr, be, /*verify=*/false,
                                trace::ReplayMode::Event);
        }
        out.trace.replaySeconds = secondsBetween(
            t2, std::chrono::steady_clock::now());
        out.functionalResult = cached->functionalResult;
        out.cycles = rep.cycles;
        out.breakdown = rep.breakdown;
        return out;
    }

    // Cold path: execute directly on the timing backend, optionally
    // wrapped in the stream-lifetime checker. The wrapper forwards
    // every call unchanged, so verified and unverified runs report
    // the same cycles — it only adds VerifyError on contract
    // violations.
    if (substrate == Substrate::Cpu) {
        backend::CpuBackend be(config_.core, config_.mem);
        if (!verify)
            return executeOn(request, be);
        analysis::VerifyingBackend vbe(be);
        return executeOn(request, vbe);
    }
    backend::SparseCoreBackend be(config_);
    if (!verify)
        return executeOn(request, be);
    analysis::VerifyingBackend vbe(be);
    return executeOn(request, vbe);
}

Comparison
Machine::compare(const RunRequest &request) const
{
    validate(request);
    std::optional<streams::ScopedKernelOverride> forced;
    if (request.options.kernel)
        forced.emplace(*request.options.kernel);
    std::optional<streams::setindex::ScopedIndexPolicyOverride>
        forced_index;
    if (request.options.indexPolicy)
        forced_index.emplace(*request.options.indexPolicy);

    std::optional<ThreadPool> local;
    if (request.options.hostThreads)
        local.emplace(request.options.hostThreads);
    ThreadPool &pool = local ? *local : ThreadPool::global();

    const std::string key =
        ArtifactStore::resolveEnabled(request.options.artifactCache)
            ? traceKeyFor(request)
            : std::string{};
    if (!key.empty())
        return compareViaStore(config_, pool, request.options, request,
                               key);

    return compareViaTrace(config_, pool, request.options,
                           [&](trace::TraceRecorder &rec) {
                               return executeOn(request, rec)
                                   .functionalResult;
                           });
}

} // namespace sc::api
