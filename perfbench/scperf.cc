/**
 * @file
 * scperf — the repository benchmark program (run by perfbench/run.py).
 *
 * Reads a plan of JSON job lines generated from a seed and runs them
 * through the public job API (parseJobSpec -> api::JobQueue) as a
 * closed loop from this single submitting thread, keeping the plan's
 * fixed number of jobs in flight. After an untimed warm-up batch,
 * whole cycles of passes over the plan run until the cycle end nearest
 * to --seconds of pass time, and at least 100 jobs. Every report
 * is checked against the pinned reference for its spec (result,
 * cycles, breakdown).
 *
 * --trace 1 adds the layer view, measured from outside the library:
 *   phase A  the same queue loop for half the time, with spans around
 *            parse, JobQueue::submit and the wait for each future;
 *   phase B  the jobs phase A ran, re-executed one at a time through
 *            the public layer calls the job path makes (resolve,
 *            store, capture, compile, admission analysis, replay onto
 *            fresh undecorated backends, direct kernels, JSON
 *            emission), each inside a span;
 *   probes   per-layer re-drives that are not part of any job
 *            (no-op-backend replay, replay onto hook-timing decorated
 *            backends, verifyTrace, suCost, l1Access).
 * Spans are written as Chrome trace-event JSON at exit.
 *
 * Usage:
 *   scperf --plan FILE [--seconds S] [--trace 0|1] [--refs FILE]
 *          [--bless FILE] [--setup-only] [--chrome FILE]
 *
 * Prints a human-readable table, then one JSON object as the last
 * line of stdout. Exit status 0 unless the arguments, plan or refs
 * are unusable, or a job fails while blessing references.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/diagnostics.hh"
#include "analysis/summary.hh"
#include "analysis/trace_check.hh"
#include "analysis/verifying_backend.hh"
#include "api/artifact_store.hh"
#include "api/job_queue.hh"
#include "api/jobspec.hh"
#include "backend/cpu_backend.hh"
#include "backend/sparsecore_backend.hh"
#include "common/config.hh"
#include "common/json.hh"
#include "gpm/executor.hh"
#include "gpm/fsm.hh"
#include "graph/datasets.hh"
#include "kernels/spmspm.hh"
#include "kernels/ttm.hh"
#include "kernels/ttv.hh"
#include "layers.hh"
#include "tensor/tensor_datasets.hh"
#include "trace/compile.hh"
#include "trace/recorder.hh"
#include "trace/replay.hh"

namespace {

using namespace sc;
using scperf::HookStats;
using scperf::nowNs;
using scperf::ProbeSamples;
using scperf::Scope;
using scperf::SpanLog;

constexpr int kQueuePhase = 1;
constexpr int kLayerPhase = 2;
constexpr std::size_t kMinJobs = 100;

double
secs(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

// ------------------------------------------------------------ plan

struct PlanJob
{
    int pass = 0;
    std::string line; ///< the JSON job line handed to parseJobSpec
};

struct Plan
{
    std::string workload;
    unsigned inFlight = 1;
    /** Clear the artifact store before every pass (cold workloads). */
    bool coldPasses = false;
    std::vector<std::string> graphs, labeled, matrices, tensors;
    std::vector<std::string> warm; ///< job lines run at setup
    /** Job lines run untimed after set-up, so lazy process state
     *  (heap growth, first-touch pages) settles before timing. */
    std::vector<std::string> warmup;
    /** Passes that together run every pool job once; a timed run
     *  stops only at a multiple, so its job mix is seed-independent. */
    int cyclePasses = 1;
    std::vector<PlanJob> jobs;
    int numPasses = 0;
};

std::vector<std::string>
stringList(const JsonValue &obj, const char *key)
{
    std::vector<std::string> out;
    if (const JsonValue *v = obj.find(key))
        for (const JsonValue &item : v->items())
            out.push_back(item.isString() ? item.asString() : item.dump());
    return out;
}

Plan
loadPlan(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open plan " + path);
    Plan plan;
    std::string text;
    bool header = true;
    while (std::getline(in, text)) {
        if (text.empty())
            continue;
        const JsonParseResult parsed = parseJson(text);
        if (!parsed.ok())
            throw std::runtime_error("bad plan line: " + parsed.describe());
        const JsonValue &v = *parsed.value;
        if (header) {
            header = false;
            plan.workload = v.find("workload")->asString();
            plan.inFlight =
                static_cast<unsigned>(v.find("in_flight")->asUint());
            plan.coldPasses = v.find("cold_passes")->asBool();
            plan.graphs = stringList(v, "graphs");
            plan.labeled = stringList(v, "labeled");
            plan.matrices = stringList(v, "matrices");
            plan.tensors = stringList(v, "tensors");
            plan.warm = stringList(v, "warm");
            plan.warmup = stringList(v, "warmup");
            if (const JsonValue *c = v.find("cycle_passes"))
                plan.cyclePasses = static_cast<int>(c->asUint());
            continue;
        }
        PlanJob job;
        job.pass = static_cast<int>(v.find("pass")->asUint());
        job.line = v.find("job")->dump();
        plan.numPasses = std::max(plan.numPasses, job.pass + 1);
        plan.jobs.push_back(std::move(job));
    }
    if (header || plan.jobs.empty() || plan.inFlight == 0)
        throw std::runtime_error("plan " + path + " has no jobs");
    return plan;
}

// ------------------------------------------------------ references

/** Reference key: the canonical spec without its client id. */
std::string
refKey(api::JobSpec spec)
{
    spec.id.clear();
    return spec.toJson();
}

/** The deterministic part of a report (no id, no timing). */
std::string
refValue(const api::JobReport &report)
{
    JsonValue v = report.toJsonValue(/*include_timing=*/false);
    v.remove("id");
    return v.dump();
}

using Refs = std::map<std::string, std::string>;

Refs
loadRefs(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open refs " + path);
    std::stringstream buf;
    buf << in.rdbuf();
    const JsonParseResult parsed = parseJson(buf.str());
    if (!parsed.ok() || !parsed.value->isObject())
        throw std::runtime_error("bad refs file " + path);
    Refs refs;
    for (const auto &[key, value] : parsed.value->members())
        refs[key] = value.asString();
    return refs;
}

/** One reference per line, so a re-bless diffs job by job. */
void
writeRefs(const std::string &path, const Refs &refs)
{
    std::ofstream out(path);
    const char *sep = "{\n";
    for (const auto &[key, value] : refs) {
        out << sep << "  " << jsonQuote(key) << ": " << jsonQuote(value);
        sep = ",\n";
    }
    out << "\n}\n";
}

/** Checks reports against the references; collects mismatches. */
struct Checker
{
    const Refs *refs = nullptr; ///< null in bless mode
    Refs *bless = nullptr;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> firstErrors;

    void
    check(const api::JobReport &report, const std::string &value)
    {
        ++attempted;
        std::string problem;
        if (!report.ok) {
            problem = "job failed: " + value;
        } else if (bless) {
            (*bless)[refKey(report.spec)] = value;
        } else if (refs) {
            const auto it = refs->find(refKey(report.spec));
            if (it == refs->end())
                problem = "no pinned reference for " + refKey(report.spec);
            else if (it->second != value)
                problem = "mismatch for " + refKey(report.spec) +
                          ": got " + value + " want " + it->second;
        }
        if (problem.empty())
            return;
        ++failed;
        if (firstErrors.size() < 5)
            firstErrors.push_back(problem);
    }
};

// ----------------------------------------------------------- setup

struct SetupTimes
{
    double graphS = 0;
    double tensorS = 0;
    double warmS = 0;
};

/** Run job lines to completion (never timed as jobs). */
void
runUntimed(const std::vector<std::string> &lines)
{
    api::JobQueue queue(0);
    std::vector<std::future<api::JobReport>> futures;
    for (const std::string &line : lines)
        futures.push_back(queue.submitJson(line));
    for (auto &f : futures) {
        const api::JobReport report = f.get();
        if (!report.ok)
            throw std::runtime_error("untimed job failed: " +
                                     report.toJsonValue().dump());
    }
}

SetupTimes
setup(const Plan &plan, SpanLog *log)
{
    SetupTimes t;
    std::int64_t t0 = nowNs();
    {
        Scope s(log, "setup.graph", -1, kLayerPhase);
        for (const std::string &key : plan.graphs)
            graph::loadGraph(key);
        for (const std::string &key : plan.labeled)
            graph::loadLabeledGraph(key);
    }
    std::int64_t t1 = nowNs();
    t.graphS = secs(t1 - t0);
    {
        Scope s(log, "setup.tensor", -1, kLayerPhase);
        for (const std::string &key : plan.matrices)
            tensor::loadMatrix(key);
        for (const std::string &key : plan.tensors)
            tensor::loadTensor(key);
    }
    t0 = nowNs();
    t.tensorS = secs(t0 - t1);
    {
        // Resolve every distinct job once: dataset references and
        // fingerprints are what the first timed submit would pay.
        Scope s(log, "setup.resolve", -1, kLayerPhase);
        std::map<std::string, bool> seen;
        for (const PlanJob &job : plan.jobs) {
            if (!seen.emplace(job.line, true).second)
                continue;
            const api::JobSpecParse parsed = api::parseJobSpec(job.line);
            if (!parsed.ok() || !api::resolveJob(*parsed.spec).ok())
                throw std::runtime_error("plan job does not resolve: " +
                                         job.line);
        }
    }
    {
        Scope s(log, "setup.warm", -1, kLayerPhase);
        runUntimed(plan.warm);
    }
    t.warmS = secs(nowNs() - t0);
    return t;
}

// ------------------------------------------------------ queue loop

struct QueueRun
{
    std::vector<double> latencies; ///< submit() -> future ready
    std::vector<double> admitS;    ///< time inside JobQueue::submit
    std::vector<double> queueS;    ///< JobReport::queueSeconds
    std::vector<double> execS;     ///< JobReport::execSeconds
    std::vector<std::size_t> ran;  ///< plan job indices, in order
    std::vector<int> ranPass;      ///< run pass of each `ran` entry
    std::vector<double> passS;     ///< wall time of each pass
    double wallS = 0;              ///< Σ passS
    int passes = 0;
    std::uint64_t peakParked = 0;
    /** Sums of JobQueueStats over the run's queues. */
    std::uint64_t storeHits = 0;
    std::uint64_t storeLookups = 0;
    std::uint64_t storeWaits = 0;
    std::uint64_t convoyAvoided = 0;
    std::uint64_t warmers = 0;

    void
    add(const api::JobQueueStats &s)
    {
        storeHits += s.traceHits + s.programHits;
        storeLookups +=
            s.traceHits + s.traceMisses + s.programHits + s.programMisses;
        storeWaits += s.traceWaits + s.programWaits;
        convoyAvoided += s.scheduler.convoyAvoided;
        warmers += s.scheduler.warmers;
    }

    /** Completed jobs per wall second of each pass. */
    std::vector<double>
    passRates() const
    {
        std::vector<double> jobs(passS.size(), 0);
        for (const int p : ranPass)
            ++jobs[static_cast<std::size_t>(p)];
        for (std::size_t p = 0; p < jobs.size(); ++p)
            jobs[p] = passS[p] > 0 ? jobs[p] / passS[p] : 0;
        return jobs;
    }
};

/** Does run pass `pass` start from a reset store? Cold plans reset
 *  every pass; warm plans re-warm at every cycle after the first, so
 *  each cycle pays the same admission analysis (the store memoizes
 *  summaries per ladder point). */
bool
resetsBefore(const Plan &plan, int pass)
{
    return pass > 0 &&
           (plan.coldPasses || pass % plan.cyclePasses == 0);
}

/** Empty the store and re-run the plan's warm jobs (untimed). */
void
resetStore(const Plan &plan)
{
    api::ArtifactStore::global().clear();
    runUntimed(plan.warm);
}

/**
 * Closed loop over whole passes: keep plan.inFlight jobs submitted,
 * submit the next one as soon as one completes, and drain at the end
 * of each pass. Only passes are timed; the store resets between them
 * (resetsBefore) are not. Stops at the end of the cycle (`cycle`
 * passes) that ends nearest to `seconds` of pass time, once `min_jobs`
 * have run, or after `max_passes`. A cold plan runs
 * each pass as its own service batch: a fresh JobQueue over a cleared
 * store, so the scheduler's lane state and the store agree on what is
 * warm.
 */
QueueRun
runQueue(const Plan &plan, double seconds, std::size_t min_jobs, int cycle,
         int max_passes, Checker &checker, SpanLog *log, int &next_job_id)
{
    QueueRun run;
    // Every queue executes on the global pool (submit() returns after
    // admission), whose one worker runs one job at a time; jobs beyond
    // the first wait in the default scheduler.
    constexpr unsigned workers = 0;
    std::optional<api::JobQueue> queue;
    queue.emplace(workers);

    struct InFlight
    {
        std::size_t index;
        int jobId;
        int span;
        std::int64_t submitted;
        std::int64_t admitted;
        std::future<api::JobReport> future;
    };
    std::deque<InFlight> inflight;

    const auto complete = [&](InFlight &f, std::int64_t ready) {
        const api::JobReport report = f.future.get();
        run.latencies.push_back(secs(ready - f.submitted));
        run.queueS.push_back(report.queueSeconds);
        run.execS.push_back(report.execSeconds);
        run.ran.push_back(f.index);
        run.ranPass.push_back(run.passes);
        if (log) {
            log->setEnd(f.span, ready);
            const std::int64_t exec_start =
                ready - static_cast<std::int64_t>(report.execSeconds * 1e9);
            log->add("api.queue_wait", f.admitted,
                     std::max(f.admitted, exec_start), f.span, f.jobId,
                     kQueuePhase);
            log->add("api.exec", std::max(f.admitted, exec_start), ready,
                     f.span, f.jobId, kQueuePhase);
        }
        const std::int64_t e0 = nowNs();
        const std::string value = refValue(report);
        if (log)
            log->add("emit.json", e0, nowNs(), -1, f.jobId, kQueuePhase);
        checker.check(report, value);
    };
    const auto reapOne = [&] {
        if (plan.inFlight <= 1) {
            inflight.front().future.wait();
            complete(inflight.front(), nowNs());
            inflight.pop_front();
            return;
        }
        for (;;) {
            for (auto it = inflight.begin(); it != inflight.end(); ++it) {
                if (it->future.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready) {
                    complete(*it, nowNs());
                    inflight.erase(it);
                    return;
                }
            }
            inflight.front().future.wait_for(
                std::chrono::microseconds(200));
        }
    };

    std::size_t pos = 0;
    double cycleStartS = 0;
    if (plan.coldPasses)
        api::ArtifactStore::global().clear();
    for (int pass = 0; pass < max_passes; ++pass) {
        const int plan_pass = pass % plan.numPasses;
        if (resetsBefore(plan, pass)) {
            if (plan.coldPasses) {
                run.add(queue->stats());
                queue.reset();
            }
            resetStore(plan);
            if (!queue)
                queue.emplace(workers);
        }
        run.passes = pass;
        const std::int64_t passStart = nowNs();
        for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
            if (plan.jobs[i].pass != plan_pass)
                continue;
            while (inflight.size() >= plan.inFlight)
                reapOne();
            const int id = next_job_id++;
            const std::int64_t p0 = nowNs();
            api::JobSpecParse parsed = api::parseJobSpec(plan.jobs[i].line);
            const std::int64_t t0 = nowNs();
            std::future<api::JobReport> future =
                parsed.ok() ? queue->submit(std::move(*parsed.spec))
                            : std::future<api::JobReport>{};
            const std::int64_t t1 = nowNs();
            if (!future.valid()) {
                // A plan line that fails to parse is a benchmark bug;
                // count it, never submit it.
                api::JobReport bad;
                bad.errors = parsed.errors;
                checker.check(bad, "unparseable plan line");
                continue;
            }
            run.admitS.push_back(secs(t1 - t0));
            int span = -1;
            if (log) {
                span = log->add("job", p0, t1, -1, id, kQueuePhase);
                log->add("api.parse", p0, t0, span, id, kQueuePhase);
                log->add("api.admit", t0, t1, span, id, kQueuePhase);
                run.peakParked = std::max(
                    run.peakParked, queue->stats().scheduler.parked);
            }
            inflight.push_back({i, id, span, t0, t1, std::move(future)});
            ++pos;
        }
        while (!inflight.empty())
            reapOne();
        run.passes = pass + 1;
        run.passS.push_back(secs(nowNs() - passStart));
        run.wallS += run.passS.back();
        if (run.passes % cycle != 0)
            continue;
        // Stop if another cycle would end further from `seconds`.
        const double cycleS = run.wallS - cycleStartS;
        cycleStartS = run.wallS;
        if (run.wallS + cycleS / 2 >= seconds && pos >= min_jobs)
            break;
    }
    run.add(queue->stats());
    return run;
}

// ------------------------------------------------ layer pipeline

/** Accumulators of the layer pipeline (phase B). */
struct LayerRun
{
    std::size_t jobs = 0;
    double jobWallS = 0; ///< Σ job span durations
    HookStats hooks[2];  ///< [0] sparsecore, [1] cpu (probe)
    std::int64_t hookReplayNs[2] = {0, 0}; ///< decorated replays (probe)
    ProbeSamples samples;
    std::uint64_t capturedEvents = 0;
    std::uint64_t replayedEvents[2] = {0, 0};
    std::size_t peakCodeBytes = 0;
    double dispatchS = 0; ///< no-op-backend replays (probe)
    double verifyS = 0;   ///< verifyTrace per job's trace (probe)
    std::size_t verified = 0;
    std::int64_t probeNs = 0;
};

/** The workload's functional run against a backend (the same calls
 *  api::Machine makes for each workload kind). */
api::RunResult
executeOn(const api::RunRequest &req, backend::ExecBackend &be)
{
    api::RunResult out;
    const auto take = [&](std::uint64_t result, Cycles cycles,
                          const sim::CycleBreakdown &breakdown) {
        out.functionalResult = result;
        out.cycles = cycles;
        out.breakdown = breakdown;
    };
    switch (req.workload) {
      case api::RunRequest::Workload::Gpm: {
        gpm::PlanExecutor executor(*req.graph, be);
        executor.setRootStride(req.options.rootStride);
        const auto r = executor.runMany(gpm::gpmAppPlans(req.app));
        take(r.embeddings, r.cycles, r.breakdown);
        break;
      }
      case api::RunRequest::Workload::Fsm: {
        const auto r = gpm::runFsm(*req.labeledGraph, be, req.minSupport);
        take(r.totalFrequent(), r.cycles, r.breakdown);
        break;
      }
      case api::RunRequest::Workload::Spmspm: {
        const auto r = kernels::runSpmspm(*req.matrixA, *req.matrixB,
                                          req.algorithm, be,
                                          req.options.stride,
                                          req.spmspmResult);
        take(r.valueOps, r.cycles, r.breakdown);
        break;
      }
      case api::RunRequest::Workload::Ttv: {
        const auto r = kernels::runTtv(*req.tensor, *req.vector, be,
                                       req.options.stride);
        take(r.valueOps, r.cycles, r.breakdown);
        break;
      }
      case api::RunRequest::Workload::Ttm: {
        const auto r = kernels::runTtm(*req.tensor, *req.matrixB, be,
                                       req.options.stride);
        take(r.valueOps, r.cycles, r.breakdown);
        break;
      }
    }
    return out;
}

/** One replay a job made: its substrate and the cycles it reported. */
struct Replayed
{
    api::Substrate substrate;
    Cycles cycles;
};

class LayerPipeline
{
  public:
    LayerPipeline(SpanLog &log, LayerRun &acc) : log_(log), acc_(acc) {}

    /** Execute one job line through the layer calls; returns the
     *  report the queue would have produced. */
    api::JobReport runJob(const std::string &line, int id);

  private:
    trace::ReplayResult replay(const trace::BytecodeProgram &program,
                               api::Substrate substrate,
                               const arch::SparseCoreConfig &config,
                               int id);
    api::Comparison compareBoth(const trace::BytecodeProgram &program,
                                std::uint64_t result,
                                const arch::SparseCoreConfig &config,
                                int id);
    api::RunResult direct(const api::ResolvedJob &job, int id);
    void probeProgram(const trace::BytecodeProgram &program,
                      const std::vector<Replayed> &replayed,
                      const arch::SparseCoreConfig &config,
                      const trace::Trace &trace, int id);

    SpanLog &log_;
    LayerRun &acc_;
};

trace::ReplayResult
LayerPipeline::replay(const trace::BytecodeProgram &program,
                      api::Substrate substrate,
                      const arch::SparseCoreConfig &config, int id)
{
    const bool cpu = substrate == api::Substrate::Cpu;
    Scope s(&log_, cpu ? "replay.cpu" : "replay.sparsecore", id,
            kLayerPhase);
    acc_.replayedEvents[cpu] += program.numSourceEvents();
    // Undecorated, as on the job path: replayCompiled's devirtualized
    // loop only serves the concrete backend classes.
    if (cpu) {
        backend::CpuBackend be(config.core, config.mem);
        return trace::replayCompiled(program, be, /*verify=*/false);
    }
    backend::SparseCoreBackend be(config);
    return trace::replayCompiled(program, be, /*verify=*/false);
}

api::Comparison
LayerPipeline::compareBoth(const trace::BytecodeProgram &program,
                           std::uint64_t result,
                           const arch::SparseCoreConfig &config, int id)
{
    // Machine::compare replays both substrates concurrently; here they
    // run one after the other so each replay is its own span.
    const auto cpu = replay(program, api::Substrate::Cpu, config, id);
    const auto sc = replay(program, api::Substrate::SparseCore, config, id);
    api::Comparison cmp;
    cmp.functionalResult = result;
    cmp.baseline = {"cpu", cpu.cycles, cpu.breakdown};
    cmp.accelerated = {"sparsecore", sc.cycles, sc.breakdown};
    return cmp;
}

std::vector<Replayed>
bothReplays(const api::Comparison &cmp)
{
    return {{api::Substrate::Cpu, cmp.baseline.cycles},
            {api::Substrate::SparseCore, cmp.accelerated.cycles}};
}

api::RunResult
LayerPipeline::direct(const api::ResolvedJob &job, int id)
{
    // Machine::run's direct path for jobs that are not store-keyed.
    Scope s(&log_, "kernels.direct", id, kLayerPhase);
    const bool verify =
        job.spec.options.verify.value_or(analysis::verifyByDefault());
    const auto runOn = [&](backend::ExecBackend &be) {
        if (!verify)
            return executeOn(job.request, be);
        analysis::VerifyingBackend vbe(be);
        return executeOn(job.request, vbe);
    };
    if (job.spec.substrate == api::Substrate::Cpu) {
        backend::CpuBackend be(job.config.core, job.config.mem);
        return runOn(be);
    }
    backend::SparseCoreBackend be(job.config);
    return runOn(be);
}

void
LayerPipeline::probeProgram(const trace::BytecodeProgram &program,
                            const std::vector<Replayed> &replayed,
                            const arch::SparseCoreConfig &config,
                            const trace::Trace &trace, int id)
{
    // Not part of the job: the job span is already closed. The no-op
    // and decorated backends are not concrete library classes, so both
    // replays take replayCompiled's generic loop (a virtual call per
    // event), not the devirtualized one the job's replays take.
    const std::int64_t t0 = nowNs();
    {
        Scope s(&log_, "probe.dispatch", id, kLayerPhase);
        scperf::NullBackend null;
        const std::int64_t r0 = nowNs();
        trace::replayCompiled(program, null, /*verify=*/false);
        acc_.dispatchS +=
            secs(nowNs() - r0) * static_cast<double>(replayed.size());
    }
    for (const Replayed &r : replayed) {
        // Hook calls and their split; the decorator forwards every
        // call unchanged, so the cycles must match the job's replay.
        const bool cpu = r.substrate == api::Substrate::Cpu;
        Scope s(&log_, "probe.hooks", id, kLayerPhase);
        const std::int64_t r0 = nowNs();
        const auto replayOn = [&](backend::ExecBackend &be) {
            scperf::TimingBackend timed(be, acc_.hooks[cpu], &acc_.samples);
            return trace::replayCompiled(program, timed, /*verify=*/false);
        };
        Cycles cycles = 0;
        if (cpu) {
            backend::CpuBackend be(config.core, config.mem);
            cycles = replayOn(be).cycles;
        } else {
            backend::SparseCoreBackend be(config);
            cycles = replayOn(be).cycles;
        }
        acc_.hookReplayNs[cpu] += nowNs() - r0;
        if (cycles != r.cycles)
            throw std::runtime_error("decorated replay reported " +
                                     std::to_string(cycles) +
                                     " cycles, the job " +
                                     std::to_string(r.cycles));
    }
    {
        Scope s(&log_, "probe.verify", id, kLayerPhase);
        const std::int64_t v0 = nowNs();
        analysis::verifyTrace(trace);
        acc_.verifyS += secs(nowNs() - v0);
        ++acc_.verified;
    }
    acc_.probeNs += nowNs() - t0;
}

api::JobReport
LayerPipeline::runJob(const std::string &line, int id)
{
    api::JobReport report;
    std::optional<api::ResolvedJob> resolved;
    // Kept alive past the job span for the probes.
    std::shared_ptr<const api::ArtifactStore::CachedTrace> cached;
    std::shared_ptr<const trace::BytecodeProgram> program;
    std::optional<trace::Trace> ownTrace;
    std::vector<Replayed> replayed;
    {
        Scope job(&log_, "job", id, kLayerPhase);
        const std::int64_t job0 = nowNs();
        {
            Scope s(&log_, "api.parse", id, kLayerPhase);
            api::JobSpecParse parsed = api::parseJobSpec(line);
            if (parsed.ok()) {
                api::JobResolve r = api::resolveJob(*parsed.spec);
                report.errors = std::move(r.errors);
                resolved = std::move(r.job);
            } else {
                report.errors = std::move(parsed.errors);
            }
        }
        if (!resolved || !report.errors.empty())
            return report;
        const api::ResolvedJob &rj = *resolved;
        const api::JobSpec &spec = rj.spec;
        const arch::SparseCoreConfig &cfg = rj.config;
        report.id = spec.id;
        report.spec = spec;
        const bool verify =
            spec.options.verify.value_or(analysis::verifyByDefault());
        api::ArtifactStore &store = api::ArtifactStore::global();
        const std::string &key = rj.affinityKey;

        if (!key.empty()) {
            {
                // JobQueue::submit's admission checks on a warm trace.
                Scope s(&log_, "api.admit", id, kLayerPhase);
                if (const auto warm = store.peekTrace(key)) {
                    if (verify) {
                        Scope v(&log_, "analysis.verify", id, kLayerPhase);
                        if (store.verdict(key, warm->trace,
                                          cfg.numStreamRegs)
                                ->hasErrors())
                            report.errors.push_back({"program", "verifier"});
                    }
                    if (spec.numSus) {
                        Scope v(&log_, "analysis.summary", id, kLayerPhase);
                        if (store.summary(key, warm->trace, cfg)
                                ->maxPressure > *spec.numSus)
                            report.errors.push_back({"arch.sus", "pressure"});
                    }
                }
            }
            if (!report.errors.empty())
                return report;
            {
                Scope s(&log_, "api.store", id, kLayerPhase);
                cached = store.trace(key, [&](trace::TraceRecorder &rec) {
                    Scope c(&log_, "trace.capture", id, kLayerPhase);
                    const std::uint64_t result =
                        executeOn(rj.request, rec).functionalResult;
                    acc_.capturedEvents += rec.trace().numEvents();
                    return result;
                });
            }
            {
                Scope s(&log_, "api.store", id, kLayerPhase);
                bool compiled = false;
                program = store.program(key, cached->trace,
                                        spec.options.verify, &compiled);
                if (compiled)
                    s.rename("trace.compile");
            }
            const std::uint64_t result = cached->functionalResult;
            if (spec.mode == api::JobMode::Run) {
                const auto rep = replay(*program, spec.substrate, cfg, id);
                report.run = api::RunResult{result, rep.cycles,
                                            rep.breakdown, {}};
                replayed = {{spec.substrate, rep.cycles}};
            } else {
                report.comparison = compareBoth(*program, result, cfg, id);
                replayed = bothReplays(*report.comparison);
            }
        } else if (spec.mode == api::JobMode::Run) {
            report.run = direct(rj, id);
        } else {
            // Machine::compare for jobs the store does not key:
            // capture, verify, compile once, replay on both.
            std::uint64_t result = 0;
            {
                Scope c(&log_, "trace.capture", id, kLayerPhase);
                trace::TraceRecorder rec;
                result = executeOn(rj.request, rec).functionalResult;
                ownTrace = rec.takeTrace();
                acc_.capturedEvents += ownTrace->numEvents();
            }
            if (verify) {
                Scope v(&log_, "analysis.verify", id, kLayerPhase);
                if (analysis::verifyTrace(*ownTrace).hasErrors())
                    report.errors.push_back({"", "verifier"});
            }
            if (!report.errors.empty())
                return report;
            {
                Scope s(&log_, "trace.compile", id, kLayerPhase);
                program = std::make_shared<const trace::BytecodeProgram>(
                    trace::compileTrace(*ownTrace));
            }
            report.comparison = compareBoth(*program, result, cfg, id);
            replayed = bothReplays(*report.comparison);
        }
        if (program)
            acc_.peakCodeBytes =
                std::max(acc_.peakCodeBytes, program->codeBytes());
        report.ok = true;
        {
            Scope e(&log_, "emit.json", id, kLayerPhase);
            (void)report.toJsonValue().dump();
        }
        ++acc_.jobs;
        acc_.jobWallS += secs(nowNs() - job0);
    }
    if (program)
        probeProgram(*program, replayed, resolved->config,
                     ownTrace ? *ownTrace : cached->trace, id);
    return report;
}

// ------------------------------------------------------- reporting

/**
 * Harrell-Davis estimate of the q-quantile: a weighted mean of all
 * order statistics, weights from the Beta((n+1)q, (n+1)(1-q)) mass
 * on each rank interval. The job mix is discrete (a few job kinds of
 * very different size), so a single nearest-rank order statistic
 * jumps between kinds from run to run; the weighted estimate moves
 * smoothly instead. `beyond` (optional) is the number of samples
 * above the nearest-rank q-quantile.
 */
double
quantile(std::vector<double> v, double q, std::size_t *beyond = nullptr)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (beyond) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(n)));
        *beyond = n - std::max<std::size_t>(rank, 1);
    }
    if (n == 1)
        return v[0];
    // Beta CDF at i/n by trapezoid integration of the density on a
    // grid fine enough for the peak (sd ~ 1/sqrt(n)).
    const double a = (static_cast<double>(n) + 1) * q;
    const double b = (static_cast<double>(n) + 1) * (1 - q);
    const double logNorm =
        std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
    const auto pdf = [&](double x) {
        if (x <= 0 || x >= 1)
            return 0.0;
        return std::exp((a - 1) * std::log(x) + (b - 1) * std::log1p(-x) -
                        logNorm);
    };
    const std::size_t steps = 64 * n;
    double estimate = 0, cdf = 0, prevCdf = 0, prevPdf = pdf(0);
    std::size_t rank = 0;
    for (std::size_t k = 1; k <= steps; ++k) {
        const double x = static_cast<double>(k) / static_cast<double>(steps);
        const double f = pdf(x);
        cdf += (prevPdf + f) / (2.0 * static_cast<double>(steps));
        prevPdf = f;
        if (k % 64 == 0) {
            estimate += (cdf - prevCdf) * v[rank++];
            prevCdf = cdf;
        }
    }
    return cdf > 0 ? estimate / cdf : v[n / 2];
}

/** Plain sample median (the mean of the middle two for even n). */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (const double x : v)
        sum += x;
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

JsonValue
provenance()
{
    JsonValue out = JsonValue::object();
    out.set("build_type", JsonValue::str(SCPERF_BUILD_TYPE));
    out.set("compiler", JsonValue::str(SCPERF_COMPILER));
    out.set("hardware_threads",
            JsonValue::number(std::uint64_t{
                std::thread::hardware_concurrency()}));
    out.set("verify_default",
            JsonValue::boolean(analysis::verifyByDefault()));
    JsonValue knobs = JsonValue::object();
    for (const ConfigKnob &knob : describeConfig())
        knobs.set(knob.name, JsonValue::str(knob.value + " (" +
                                            knob.source + ")"));
    out.set("knobs", std::move(knobs));
    return out;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

JsonValue
metricsJson(const std::vector<Metric> &metrics)
{
    JsonValue out = JsonValue::object();
    for (const Metric &m : metrics) {
        JsonValue v = JsonValue::object();
        v.set("value", JsonValue::number(m.value));
        v.set("unit", JsonValue::str(m.unit));
        out.set(m.name, std::move(v));
    }
    return out;
}

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("%s\n", title);
    for (const Metric &m : metrics)
        std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

/** Per-layer self-time table of phase B, plus remainder/overhead. */
void
printLayerTable(const SpanLog &log, const LayerRun &acc,
                double untraced_job_s)
{
    const std::vector<std::int64_t> self = log.selfTimes();
    std::map<std::string, double> byName;
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
        const scperf::Span &span = log.spans()[i];
        if (span.phase == kLayerPhase && span.job >= 0 &&
            span.name.rfind("probe.", 0) != 0)
            byName[span.name] += secs(self[i]);
    }
    const double wall = acc.jobWallS;
    const double n = static_cast<double>(std::max<std::size_t>(acc.jobs, 1));
    std::printf("layer self time over %zu traced jobs (phase B, one at a "
                "time)\n",
                acc.jobs);
    std::printf("  %-28s %12s %12s %8s\n", "layer", "total s", "s/job",
                "share");
    double covered = 0;
    for (const auto &[name, s] : byName) {
        if (name == "job")
            continue;
        covered += s;
        std::printf("  %-28s %12.6f %12.6f %7.2f%%\n", name.c_str(), s,
                    s / n, wall > 0 ? 100 * s / wall : 0);
    }
    const double remainder = wall - covered;
    std::printf("  %-28s %12.6f %12.6f %7.2f%%\n", "(remainder)", remainder,
                remainder / n, wall > 0 ? 100 * remainder / wall : 0);
    std::printf("  traced job wall %.6f s/job, untraced %.6f s/job, "
                "tracing overhead %.6f s/job; probes %.3f s outside jobs\n",
                wall / n, untraced_job_s, wall / n - untraced_job_s,
                secs(acc.probeNs));

    // The hook split comes from the decorated probe replays, which run
    // replayCompiled's generic loop: its shares apportion replay.*_s,
    // its absolute times are those of the slower loop.
    static const char *subs[2] = {"sparsecore", "cpu"};
    std::printf("hook split of the decorated probe replays (generic "
                "loop)\n");
    std::printf("  %-28s %12s %12s %8s\n", "hook", "calls/job", "s/job",
                "share");
    for (int s = 0; s < 2; ++s) {
        const double probe = secs(acc.hookReplayNs[s]);
        double hooked = 0;
        for (unsigned h = 0; h < scperf::NumHooks; ++h) {
            const double hs = secs(acc.hooks[s].ns[h]);
            hooked += hs;
            std::printf("  %-28s %12.1f %12.6f %7.2f%%\n",
                        (std::string(subs[s]) + "." +
                         scperf::hookName(static_cast<scperf::Hook>(h)))
                            .c_str(),
                        static_cast<double>(acc.hooks[s].calls[h]) / n,
                        hs / n, probe > 0 ? 100 * hs / probe : 0);
        }
        std::printf("  %-28s %12s %12.6f %7.2f%%\n",
                    (std::string(subs[s]) + ".(dispatch)").c_str(), "",
                    (probe - hooked) / n,
                    probe > 0 ? 100 * (probe - hooked) / probe : 0);
    }
}

struct Options
{
    std::string planPath;
    std::string refsPath;
    std::string blessPath;
    std::string chromePath;
    double seconds = 10;
    bool trace = false;
    bool setupOnly = false;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::runtime_error("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--plan")
            o.planPath = value();
        else if (arg == "--refs")
            o.refsPath = value();
        else if (arg == "--bless")
            o.blessPath = value();
        else if (arg == "--chrome")
            o.chromePath = value();
        else if (arg == "--seconds")
            o.seconds = std::stod(value());
        else if (arg == "--trace")
            o.trace = value() == "1";
        else if (arg == "--setup-only")
            o.setupOnly = true;
        else
            throw std::runtime_error("unknown argument " + arg);
    }
    if (o.planPath.empty())
        throw std::runtime_error("--plan is required");
    if (o.refsPath.empty() && o.blessPath.empty() && !o.setupOnly)
        throw std::runtime_error("--refs or --bless is required");
    return o;
}

int
run(const Options &opt)
{
    const std::int64_t process0 = nowNs();
    const Plan plan = loadPlan(opt.planPath);
    Refs refs, blessed;
    if (!opt.refsPath.empty())
        refs = loadRefs(opt.refsPath);

    SpanLog log;
    SpanLog *tlog = opt.trace ? &log : nullptr;
    const SetupTimes st = setup(plan, tlog);
    const double setupS = secs(nowNs() - process0);

    JsonValue out = JsonValue::object();
    out.set("workload", JsonValue::str(plan.workload));
    out.set("setup_s", JsonValue::number(setupS));
    out.set("provenance", provenance());
    if (opt.setupOnly) {
        std::printf("%s\n", out.dump().c_str());
        return 0;
    }

    Checker checker;
    checker.refs = opt.blessPath.empty() ? &refs : nullptr;
    checker.bless = opt.blessPath.empty() ? nullptr : &blessed;
    int nextId = 0;

    const bool bless = !opt.blessPath.empty();
    // Bless: one pass over every plan pass. Traced: half the time for
    // phase A, leaving the rest to the layer pipeline; the latency
    // percentiles (and so kMinJobs) belong to the untraced run.
    if (!bless)
        runUntimed(plan.warmup);
    const QueueRun q =
        bless ? runQueue(plan, 0, 0, 1, plan.numPasses, checker, tlog, nextId)
        : opt.trace
            ? runQueue(plan, opt.seconds / 2, 0, 1, 1 << 20, checker, tlog,
                       nextId)
            : runQueue(plan, opt.seconds, kMinJobs, plan.cyclePasses, 1 << 20,
                       checker, tlog, nextId);
    if (bless) {
        if (checker.failed) {
            for (const std::string &e : checker.firstErrors)
                std::fprintf(stderr, "scperf: %s\n", e.c_str());
            return 1;
        }
        writeRefs(opt.blessPath, blessed);
        out.set("blessed", JsonValue::number(std::uint64_t{blessed.size()}));
        std::printf("%s\n", out.dump().c_str());
        return 0;
    }

    std::size_t beyond = 0;
    const double p90 = quantile(q.latencies, 0.90, &beyond);
    const double finished = static_cast<double>(q.latencies.size());
    std::vector<Metric> e2e = {
        {"setup_s", setupS, "s"},
        {"jobs_per_s", median(q.passRates()), "1/s"},
        {"job_p50_s", quantile(q.latencies, 0.50), "s"},
        {"job_p90_s", p90, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    std::vector<Metric> layer;
    if (opt.trace) {
        // Phase B: the same jobs, one at a time, through the layers.
        LayerRun acc;
        LayerPipeline pipeline(log, acc);
        int lastPass = 0;
        resetStore(plan);
        for (std::size_t k = 0; k < q.ran.size(); ++k) {
            const PlanJob &job = plan.jobs[q.ran[k]];
            if (q.ranPass[k] != lastPass && resetsBefore(plan, q.ranPass[k]))
                resetStore(plan);
            lastPass = q.ranPass[k];
            api::JobReport report;
            try {
                report = pipeline.runJob(job.line, nextId++);
            } catch (const std::exception &e) {
                // The queue would have caught this into the report.
                report.errors.push_back({"", e.what()});
            }
            checker.check(report, refValue(report));
        }

        const std::int64_t pr0 = nowNs();
        const double sucostNs =
            scperf::probeSuCost(acc.samples, arch::SparseCoreConfig{}.suWindow);
        const scperf::MemProbe mem = scperf::probeMemHierarchy(acc.samples);
        acc.probeNs += nowNs() - pr0;

        const double n = static_cast<double>(std::max<std::size_t>(acc.jobs, 1));
        const std::vector<std::int64_t> self = log.selfTimes();
        std::map<std::string, double> total;
        for (std::size_t i = 0; i < log.spans().size(); ++i) {
            const scperf::Span &span = log.spans()[i];
            if (span.phase == kLayerPhase)
                total[span.name] += secs(span.end - span.start);
        }
        const double untracedJob =
            (std::accumulate(q.admitS.begin(), q.admitS.end(), 0.0) +
             std::accumulate(q.execS.begin(), q.execS.end(), 0.0)) /
            std::max(1.0, finished);
        double rootSelf = 0;
        for (std::size_t i = 0; i < log.spans().size(); ++i)
            if (log.spans()[i].phase == kLayerPhase &&
                log.spans()[i].name == "job")
                rootSelf += secs(self[i]);

        const auto per = [&](double v) { return v / n; };
        const auto perQ = [&](double v) { return v / std::max(1.0, finished); };
        layer = {
            {"api.parse_s", per(total["api.parse"]), "s/job"},
            {"api.admit_s", mean(q.admitS), "s/job"},
            {"api.queue_wait_s", mean(q.queueS), "s/job"},
            {"api.store_hit_ratio",
             q.storeLookups ? static_cast<double>(q.storeHits) /
                                  static_cast<double>(q.storeLookups)
                            : 0,
             "ratio"},
            {"api.store_waits", perQ(static_cast<double>(q.storeWaits)),
             "count/job"},
            {"sched.parked", static_cast<double>(q.peakParked), "count"},
            {"sched.convoy_avoided",
             perQ(static_cast<double>(q.convoyAvoided)), "count/job"},
            {"trace.capture_s", per(total["trace.capture"]), "s/job"},
            {"trace.capture_events",
             per(static_cast<double>(acc.capturedEvents)), "count/job"},
            {"trace.compile_s", per(total["trace.compile"]), "s/job"},
            {"trace.code_bytes", static_cast<double>(acc.peakCodeBytes),
             "bytes"},
            {"analysis.verify_s",
             acc.verified ? acc.verifyS / static_cast<double>(acc.verified)
                          : 0,
             "s/job"},
            {"analysis.summary_s", per(total["analysis.summary"]), "s/job"},
            {"replay.sparsecore_s", per(total["replay.sparsecore"]), "s/job"},
            {"replay.cpu_s", per(total["replay.cpu"]), "s/job"},
            {"replay.sparsecore_events_per_s",
             total["replay.sparsecore"] > 0
                 ? static_cast<double>(acc.replayedEvents[0]) /
                       total["replay.sparsecore"]
                 : 0,
             "1/s"},
            {"replay.cpu_events_per_s",
             total["replay.cpu"] > 0
                 ? static_cast<double>(acc.replayedEvents[1]) /
                       total["replay.cpu"]
                 : 0,
             "1/s"},
            {"replay.dispatch_s", per(acc.dispatchS), "s/job"},
        };
        static const char *subs[2] = {"sparsecore", "cpu"};
        for (int s = 0; s < 2; ++s) {
            for (unsigned h = 0; h < scperf::NumHooks; ++h) {
                const std::string base =
                    std::string(subs[s]) + "." +
                    scperf::hookName(static_cast<scperf::Hook>(h));
                layer.push_back(
                    {base + ".calls",
                     per(static_cast<double>(acc.hooks[s].calls[h])),
                     "count/job"});
                layer.push_back(
                    {base + ".self_s", per(secs(acc.hooks[s].ns[h])),
                     "s/job"});
            }
        }
        const double tracedJob = acc.jobWallS / n;
        layer.insert(
            layer.end(),
            {
                {"streams.sucost_ns", sucostNs, "ns"},
                {"sim.access_ns", mem.accessNs, "ns"},
                {"sim.l1_miss_ratio", mem.l1MissRatio, "ratio"},
                {"sim.l2_miss_ratio", mem.l2MissRatio, "ratio"},
                {"sim.l3_miss_ratio", mem.l3MissRatio, "ratio"},
                {"kernels.direct_s", per(total["kernels.direct"]), "s/job"},
                {"emit.json_s", per(total["emit.json"]), "s/job"},
                {"setup.graph_s", st.graphS, "s"},
                {"setup.tensor_s", st.tensorS, "s"},
                {"job_error_rate",
                 checker.attempted
                     ? static_cast<double>(checker.failed) /
                           static_cast<double>(checker.attempted)
                     : 0,
                 "ratio"},
                {"job_samples", finished, "count"},
                {"bench.untraced_job_s", untracedJob, "s/job"},
                {"bench.traced_job_s", tracedJob, "s/job"},
                {"bench.overhead_s", tracedJob - untracedJob, "s/job"},
                {"bench.remainder_s", rootSelf / n, "s/job"},
            });
        printLayerTable(log, acc, untracedJob);
        if (!opt.chromePath.empty())
            std::ofstream(opt.chromePath) << log.chromeTrace() << "\n";
    }

    std::printf("workload %s: %zu jobs in %d passes, %.3f s, %zu beyond "
                "p90, in flight %u\n",
                plan.workload.c_str(), q.latencies.size(), q.passes, q.wallS,
                beyond, plan.inFlight);
    std::printf("latency deciles (s):");
    for (int d = 1; d <= 9; ++d)
        std::printf(" %.4f", quantile(q.latencies, d / 10.0));
    std::printf("\n");
    std::printf("queue: store %llu/%llu hits, %llu store waits, %llu "
                "warmers, %llu convoys avoided\n",
                static_cast<unsigned long long>(q.storeHits),
                static_cast<unsigned long long>(q.storeLookups),
                static_cast<unsigned long long>(q.storeWaits),
                static_cast<unsigned long long>(q.warmers),
                static_cast<unsigned long long>(q.convoyAvoided));
    printMetrics(opt.trace ? "phase A (reported only by --trace 0 runs)"
                           : "end-to-end",
                 e2e);
    if (opt.trace)
        printMetrics("per-layer", layer);
    for (const std::string &e : checker.firstErrors)
        std::printf("error: %s\n", e.c_str());

    out.set("attempted", JsonValue::number(std::uint64_t{checker.attempted}));
    out.set("failed", JsonValue::number(std::uint64_t{checker.failed}));
    out.set("passes", JsonValue::number(std::int64_t{q.passes}));
    out.set("tail_samples", JsonValue::number(std::uint64_t{beyond}));
    JsonValue passWalls = JsonValue::array();
    for (const double w : q.passS)
        passWalls.push(JsonValue::number(w));
    out.set("pass_s", std::move(passWalls));
    out.set("end_to_end", metricsJson(e2e));
    if (opt.trace)
        out.set("per_layer", metricsJson(layer));
    std::fflush(stdout);
    std::printf("%s\n", out.dump().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "scperf: %s\n", e.what());
        return 2;
    }
}
