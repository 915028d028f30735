#include "api/artifact_store.hh"

#include <cstdlib>
#include <cstring>
#include <sstream>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "analysis/trace_check.hh"
#include "arch/config.hh"
#include "backend/cpu_backend.hh"
#include "backend/sparsecore_backend.hh"
#include "common/config.hh"
#include "common/logging.hh"

namespace sc::api {

namespace {

std::size_t
cachedTraceBytes(const ArtifactStore::CachedTrace &cached)
{
    return cached.trace.memoryBytes() + sizeof(cached.functionalResult);
}

std::size_t
programBytes(const trace::BytecodeProgram &program)
{
    return program.memoryBytes();
}

std::size_t
verdictBytes(const analysis::VerifyReport &report)
{
    std::size_t bytes = sizeof(report);
    for (const analysis::Diagnostic &d : report.diagnostics)
        bytes += sizeof(d) + d.message.size();
    return bytes;
}

std::size_t
pressureBytes(const analysis::PressureSummary &pressure)
{
    return sizeof(pressure) +
           pressure.profile.size() * sizeof(analysis::PressurePoint);
}

std::size_t
summaryBytes(const analysis::ProgramSummary &summary)
{
    return sizeof(summary) +
           summary.profile.size() * sizeof(analysis::PressurePoint);
}

std::size_t
suCostBytes(const streams::SuCostTable &table)
{
    return table.memoryBytes();
}

/** One cache level's geometry (its name included: every field of
 *  CacheParams is part of the key). */
void
appendCacheKey(std::ostringstream &os, const sim::CacheParams &cache)
{
    const auto &[name, size_bytes, ways, line_bytes] = cache;
    os << name << ":" << size_bytes << "x" << ways << "x" << line_bytes;
}

void
appendCounters(std::ostringstream &os, const char *name,
               const CacheStats &stats)
{
    os << name << " " << stats.hits << " hits / " << stats.misses
       << " misses";
    if (stats.evictions)
        os << " / " << stats.evictions << " evicted";
}

} // namespace

std::size_t
ArtifactStoreStats::residentBytes() const
{
    return graphs.bytes + labeledGraphs.bytes + traces.bytes +
           programs.bytes + verdicts.bytes + summaries.bytes +
           pressures.bytes + suCosts.bytes + results.bytes;
}

std::string
ArtifactStoreStats::str() const
{
    std::ostringstream os;
    os << "artifact store: ";
    appendCounters(os, "graphs", graphs);
    os << " | ";
    appendCounters(os, "labeled graphs", labeledGraphs);
    os << " | ";
    appendCounters(os, "traces", traces);
    os << " | ";
    appendCounters(os, "programs", programs);
    os << " | ";
    appendCounters(os, "verdicts", verdicts);
    os << " | ";
    appendCounters(os, "summaries", summaries);
    os << " | ";
    appendCounters(os, "pressures", pressures);
    os << " | ";
    appendCounters(os, "sucosts", suCosts);
    os << " | ";
    appendCounters(os, "results", results);
    os << " | resident " << residentBytes() << " bytes";
    return os.str();
}

ArtifactStore::ArtifactStore(std::size_t capacity_bytes)
    : traces_(capacity_bytes, cachedTraceBytes),
      programs_(capacity_bytes, programBytes),
      verdicts_(capacity_bytes, verdictBytes),
      summaries_(capacity_bytes, summaryBytes),
      pressures_(capacity_bytes, pressureBytes),
      suCosts_(capacity_bytes, suCostBytes),
      results_(capacity_bytes) // sizeof(ReplayResult) each
{
}

ArtifactStore &
ArtifactStore::global()
{
    static ArtifactStore store;
    return store;
}

bool
ArtifactStore::enabledByDefault()
{
    // SC_ARTIFACT_CACHE, validated by the common/config loader.
    return config().artifactCache;
}

bool
ArtifactStore::resolveEnabled(std::optional<bool> override_)
{
    return override_.value_or(enabledByDefault());
}

std::size_t
ArtifactStore::defaultCapacityBytes()
{
    // SC_ARTIFACT_CACHE_BYTES, validated by the common/config loader.
    return config().artifactCacheBytes;
}

std::shared_ptr<const ArtifactStore::CachedTrace>
ArtifactStore::trace(const std::string &key, const CaptureFn &capture)
{
    return traces_.getOrBuild(key, [&] {
        auto cached = std::make_shared<CachedTrace>();
        trace::TraceRecorder recorder;
        cached->functionalResult = capture(recorder);
        cached->trace = recorder.takeTrace();
        return std::shared_ptr<const CachedTrace>(std::move(cached));
    });
}

std::shared_ptr<const trace::BytecodeProgram>
ArtifactStore::program(const std::string &trace_key,
                       const trace::Trace &tr,
                       std::optional<bool> verify, bool *compiled)
{
    bool built = false;
    auto program = programs_.getOrBuild(programKey(trace_key), [&] {
        built = true;
        if (verify.value_or(analysis::verifyByDefault())) {
            const auto report =
                verdict(trace_key, tr, isa::numStreamRegs);
            if (report->hasErrors())
                throw analysis::VerifyError(report->format());
        }
        return std::make_shared<const trace::BytecodeProgram>(
            trace::compileTrace(tr));
    });
    if (compiled)
        *compiled = built;
    return program;
}

std::shared_ptr<const analysis::VerifyReport>
ArtifactStore::verdict(const std::string &trace_key,
                       const trace::Trace &tr, unsigned capacity)
{
    return verdicts_.getOrBuild(verdictKey(trace_key, capacity), [&] {
        analysis::StreamLifetimeChecker::Options options;
        options.maxLiveStreams = capacity;
        return std::make_shared<const analysis::VerifyReport>(
            analysis::verifyTrace(tr, options));
    });
}

std::shared_ptr<const analysis::ProgramSummary>
ArtifactStore::summary(const std::string &trace_key,
                       const trace::Trace &tr,
                       const arch::SparseCoreConfig &config)
{
    return summaries_.getOrBuild(summaryKey(trace_key, config), [&] {
        return std::make_shared<const analysis::ProgramSummary>(
            analysis::summarizeTrace(tr, config));
    });
}

std::shared_ptr<const analysis::PressureSummary>
ArtifactStore::pressure(const std::string &trace_key,
                        const trace::Trace &tr)
{
    return pressures_.getOrBuild(pressureKey(trace_key), [&] {
        return std::make_shared<const analysis::PressureSummary>(
            analysis::summarizePressure(tr));
    });
}

std::shared_ptr<const streams::SuCostTable>
ArtifactStore::suCosts(const std::string &trace_key,
                       const trace::BytecodeProgram &program,
                       unsigned width)
{
    return suCosts_.getOrBuild(suCostKey(trace_key, width), [&] {
        return std::make_shared<const streams::SuCostTable>(
            trace::suCostTable(program, width));
    });
}

std::shared_ptr<const trace::ReplayResult>
ArtifactStore::replayResult(const std::string &trace_key,
                            const trace::BytecodeProgram &program,
                            Substrate substrate,
                            const arch::SparseCoreConfig &config,
                            bool *replayed)
{
    bool built = false;
    auto result = results_.getOrBuild(
        resultKey(trace_key, substrate, config), [&] {
            built = true;
            trace::ReplayResult rep;
            if (substrate == Substrate::Cpu) {
                backend::CpuBackend be(config.core, config.mem);
                rep = trace::replayCompiled(program, be, false);
            } else {
                backend::SparseCoreBackend be(
                    config,
                    suCosts(trace_key, program, config.suWindow));
                rep = trace::replayCompiled(program, be, false);
            }
            return std::make_shared<const trace::ReplayResult>(rep);
        });
    if (replayed)
        *replayed = built;
    return result;
}

std::shared_ptr<const ArtifactStore::CachedTrace>
ArtifactStore::peekTrace(const std::string &key)
{
    return traces_.peek(key);
}

std::shared_ptr<const graph::CsrGraph>
ArtifactStore::graph(const std::string &dataset_key) const
{
    return graph::loadGraphShared(dataset_key);
}

std::shared_ptr<const graph::LabeledGraph>
ArtifactStore::labeledGraph(const std::string &dataset_key,
                            std::uint32_t num_labels) const
{
    return graph::loadLabeledGraphShared(dataset_key, num_labels);
}

ArtifactStoreStats
ArtifactStore::stats() const
{
    ArtifactStoreStats stats;
    stats.graphs = graph::graphCacheStats();
    stats.labeledGraphs = graph::labeledGraphCacheStats();
    stats.traces = traces_.stats();
    stats.programs = programs_.stats();
    stats.verdicts = verdicts_.stats();
    stats.summaries = summaries_.stats();
    stats.pressures = pressures_.stats();
    stats.suCosts = suCosts_.stats();
    stats.results = results_.stats();
    return stats;
}

void
ArtifactStore::clear()
{
    traces_.clear();
    programs_.clear();
    verdicts_.clear();
    summaries_.clear();
    pressures_.clear();
    suCosts_.clear();
    results_.clear();
#if defined(__GLIBC__)
    // Hand the dropped artifacts' pages back to the OS. Otherwise
    // they stay resident as free heap, and re-warming the store
    // allocates around the fragments: a warm sweep that clears and
    // re-warms once per cycle saw its peak RSS drift from 165 to
    // 235 MB over a dozen cycles; with the trim it stays at 165 MB.
    malloc_trim(0);
#endif
}

std::string
ArtifactStore::gpmTraceKey(gpm::GpmApp app, const graph::CsrGraph &g,
                           unsigned root_stride)
{
    std::ostringstream os;
    os << "gpm/" << gpm::gpmAppName(app) << "/g" << std::hex
       << g.fingerprint() << std::dec << "/s" << root_stride << "/tr"
       << trace::traceFormatVersion;
    return os.str();
}

std::string
ArtifactStore::gpmChunkTraceKey(gpm::GpmApp app,
                                const graph::CsrGraph &g,
                                unsigned root_stride, unsigned chunk,
                                unsigned num_chunks)
{
    std::ostringstream os;
    os << "gpm/" << gpm::gpmAppName(app) << "/g" << std::hex
       << g.fingerprint() << std::dec << "/s" << root_stride << "/c"
       << chunk << "of" << num_chunks << "/tr"
       << trace::traceFormatVersion;
    return os.str();
}

std::string
ArtifactStore::fsmTraceKey(const graph::LabeledGraph &g,
                           std::uint64_t min_support)
{
    std::ostringstream os;
    os << "fsm/lg" << std::hex << g.fingerprint() << std::dec
       << "/sup" << min_support << "/tr"
       << trace::traceFormatVersion;
    return os.str();
}

std::string
ArtifactStore::programKey(const std::string &trace_key, bool fused)
{
    std::ostringstream os;
    os << trace_key << "/scbc" << trace::bytecodeFormatVersion;
    if (fused)
        os << "f";
    return os.str();
}

std::string
ArtifactStore::verdictKey(const std::string &trace_key,
                          unsigned capacity)
{
    std::ostringstream os;
    os << trace_key << "/vfy" << capacity;
    return os.str();
}

std::string
ArtifactStore::summaryKey(const std::string &trace_key,
                          const arch::SparseCoreConfig &config)
{
    // The cost bounds read the core, memory and stream-component
    // timing parameters; pressure is config-independent and has its
    // own key (pressureKey).
    return trace_key + "/sum/" + timingKey(config);
}

std::string
ArtifactStore::pressureKey(const std::string &trace_key)
{
    return trace_key + "/pressure";
}

std::string
ArtifactStore::suCostKey(const std::string &trace_key, unsigned width)
{
    return programKey(trace_key) + "/sucost/w" + std::to_string(width);
}

std::string
ArtifactStore::resultKey(const std::string &trace_key, Substrate substrate,
                         const arch::SparseCoreConfig &config)
{
    // CpuBackend reads only the core and memory parameters, so the
    // CPU baseline of a program is shared by every SparseCore point.
    if (substrate == Substrate::Cpu)
        return programKey(trace_key) + "/result/cpu/" +
               timingKey(config.core, config.mem);
    return programKey(trace_key) + "/result/sc/" + timingKey(config);
}

std::string
ArtifactStore::timingKey(const sim::CoreParams &core,
                         const sim::MemParams &mem)
{
    // Structured bindings name every field: adding one to a struct
    // breaks the build here until the key writes it.
    const auto &[issue_width, rob_size, load_queue_size,
                 mispredict_penalty, miss_stall_fraction] = core;
    const auto &[l1, l2, l3, l1_latency, l2_latency, l3_latency,
                 mem_latency] = mem;
    std::ostringstream os;
    os << "iw" << issue_width << "rob" << rob_size << "lq"
       << load_queue_size << "mp" << mispredict_penalty << "ms"
       << std::hexfloat << miss_stall_fraction << std::defaultfloat
       << "/";
    appendCacheKey(os, l1);
    os << "," << l1_latency << "/";
    appendCacheKey(os, l2);
    os << "," << l2_latency << "/";
    appendCacheKey(os, l3);
    os << "," << l3_latency << "/mem" << mem_latency;
    return os.str();
}

std::string
ArtifactStore::timingKey(const arch::SparseCoreConfig &config)
{
    const auto &[num_sus, su_window, su_pipeline_latency,
                 scache_slot_keys, num_stream_regs, aggregate_bandwidth,
                 scratchpad_bytes, scratchpad_latency,
                 translation_buffer_size, value_load_mlp,
                 value_loads_per_cycle, max_outstanding_ops,
                 nested_intersection, core, mem] = config;
    std::ostringstream os;
    os << "su" << num_sus << "w" << su_window << "pl"
       << su_pipeline_latency << "sk" << scache_slot_keys << "sr"
       << num_stream_regs << "bw" << aggregate_bandwidth << "sp"
       << scratchpad_bytes << "spl" << scratchpad_latency << "tb"
       << translation_buffer_size << "vm" << value_load_mlp << "vl"
       << value_loads_per_cycle << "oo" << max_outstanding_ops
       << (nested_intersection ? "n1" : "n0") << "/"
       << timingKey(core, mem);
    return os.str();
}

} // namespace sc::api
