/**
 * @file
 * Quantitative program summaries: scverify v2's extension of the
 * boolean lifetime rules (verifier.hh, trace_check.hh) to numbers.
 *
 * Two analyses share the ProgramSummary result type:
 *
 *  - **Pressure**: the maximum live-stream count per program point.
 *    For ISA programs it rides the verifier's branch-aware fixpoint
 *    (per-pc live counts from the block in-states, exact whenever the
 *    constant lattice kept every sid); for traces and compiled SCBC
 *    images it is the concrete running live count of the event walk.
 *    Pressure is a property of the program, not of the machine, so
 *    summarizePressure() computes it without any SparseCoreConfig;
 *    admission control (api/job_queue.hh) checks it against the
 *    job's declared `arch.sus` once per trace, not per arch point.
 *
 *  - **Cost bounds**: a [lower, upper] simulated-cycle interval for a
 *    SparseCore replay of a trace/SCBC image, derived from the same
 *    streams::suCost model the engine charges. The lower bound is the
 *    max of four independently-sound resource bounds (deterministic
 *    scalar issue cycles, SU occupancy, aggregate stream bandwidth,
 *    value-load queue); the upper bound is a potential-function sum of
 *    per-event worst cases (all-miss memory, every branch mispredicts,
 *    exact SMT-spill accounting via a mirrored arch::Smt). The sweep
 *    property tests pin lower <= simulated cycles <= upper for every
 *    (app, dataset) in the fig07/11/12/13 smoke sweeps; see
 *    DESIGN.md §17 for the soundness argument.
 *
 * Both run over all three program forms (ISA program, captured trace,
 * compiled bytecode), and the JSON emitters here are the one output
 * path shared by `scverify --json`, the verdict cache and the tests.
 */

#ifndef SPARSECORE_ANALYSIS_SUMMARY_HH
#define SPARSECORE_ANALYSIS_SUMMARY_HH

#include <cstdint>
#include <vector>

#include "analysis/diagnostics.hh"
#include "analysis/verifier.hh"
#include "common/json.hh"
#include "isa/stream_inst.hh"
#include "trace/trace.hh"

namespace sc::arch {
struct SparseCoreConfig;
} // namespace sc::arch

namespace sc::trace {
class BytecodeProgram;
} // namespace sc::trace

namespace sc::analysis {

/** One pressure sample: `live` streams after executing `pc`. */
struct PressurePoint
{
    std::uint64_t pc = 0;
    unsigned live = 0;

    bool operator==(const PressurePoint &) const = default;
};

/** Static [lower, upper] simulated-cycle interval (SparseCore). */
struct CostBounds
{
    Cycles lower = 0;
    Cycles upper = 0;
    /** False when no cost model applies (ISA programs, which carry no
     *  operand data to cost). */
    bool valid = false;

    bool
    contains(Cycles cycles) const
    {
        return valid && lower <= cycles && cycles <= upper;
    }
};

/** The config-free pressure half of a summary. */
struct PressureSummary
{
    /** Program points analyzed: instructions (ISA) or events. */
    std::uint64_t points = 0;
    /** Stream definitions (loads + producing ops) encountered. */
    std::uint64_t defines = 0;
    /** Stream frees encountered. */
    std::uint64_t frees = 0;

    /** Peak live-stream pressure and the first point reaching it. */
    unsigned maxPressure = 0;
    std::uint64_t maxPressurePc = 0;
    /**
     * Pressure profile. ISA programs record one point per executed
     * pc (program order); traces record the watermark envelope — the
     * event index of each new live-count maximum — so the profile
     * stays O(maxPressure) for million-event traces.
     */
    std::vector<PressurePoint> profile;
};

/** Quantitative result of one summarize*() run. */
struct ProgramSummary : PressureSummary
{
    /**
     * True when the pressure numbers are exact: always for the
     * concrete trace/bytecode walk; for ISA programs only while the
     * verifier's lattice kept every sid (no sidsUnknown, no stream
     * merged to Top).
     */
    bool pressureExact = true;

    CostBounds cost;
};

/**
 * Summarize an ISA program: per-pc pressure from the verifier's
 * branch-aware fixpoint. Cost bounds stay invalid (assembly carries
 * no operand spans to cost). Defined alongside verify() so the
 * abstract domain stays private to verifier.cc.
 */
ProgramSummary summarizeProgram(const isa::Program &program,
                                const VerifyOptions &options = {});

/** Pressure only of a captured trace: the same walk summarizeTrace
 *  runs, minus every cost charge, so it needs no config. */
PressureSummary summarizePressure(const trace::Trace &trace);

/** Pressure only of a compiled SCBC image; equals summarizePressure
 *  of the source trace. */
PressureSummary summarizePressure(const trace::BytecodeProgram &program);

/** Summarize a captured trace: concrete pressure + cost bounds for a
 *  SparseCore replay under `config`. */
ProgramSummary summarizeTrace(const trace::Trace &trace,
                              const arch::SparseCoreConfig &config);

/** Summarize a compiled SCBC image — decodes nothing: walks the
 *  bytecode directly, so it doubles as a structural check and yields
 *  numbers identical to summarizeTrace on the source trace. */
ProgramSummary summarizeBytecode(const trace::BytecodeProgram &program,
                                 const arch::SparseCoreConfig &config);

// ---------------- JSON emission ----------------
// The one scverify/--json shape, shared with the golden fixtures and
// the admission tests (same idiom as api::jsonValue in api/report.hh).

JsonValue jsonValue(const Diagnostic &diagnostic);
JsonValue jsonValue(const VerifyReport &report);
JsonValue jsonValue(const CostBounds &bounds);
JsonValue jsonValue(const ProgramSummary &summary);

} // namespace sc::analysis

#endif // SPARSECORE_ANALYSIS_SUMMARY_HH
