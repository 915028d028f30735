/**
 * @file
 * suCostTable(): the SU costs of one compiled program at one
 * comparator window, computed once and read by every timed replay
 * onto SparseCore that keeps the window.
 *
 * streams::suCost is a pure function of (operands, kind, bound,
 * window). The operands and bounds are fixed by the program; the
 * Fig. 12/13 ladders sweep SU count and bandwidth, not the window.
 * So a sweep that replays one program at N arch points would compute
 * every cost N times. The table computes it once, in the order the
 * engine asks for costs, and arch::Engine reads the next entry
 * instead of calling suCost.
 *
 * Order contract (one entry per SU-scheduled operation, in program
 * order; this is exactly the sequence of suCost calls a replay onto
 * SparseCoreBackend makes):
 *
 *   SetOp, SetOpCount       (kind, operand spans, bound)
 *   ValueIntersect (dense)  (Intersect, operand spans, no bound)
 *   ValueMerge              (Merge, operand spans, no bound)
 *   NestedGroup             one entry per nested element:
 *                           (Intersect, group span, element keys,
 *                            element bound)
 *
 * The lowered nested loop (ExecBackend::nestedIntersect, taken when
 * nested intersection is off) issues one setOpCount per element with
 * those same arguments in the same order, so one table serves both
 * designs.
 */

#ifndef SPARSECORE_TRACE_SU_COST_TABLE_HH
#define SPARSECORE_TRACE_SU_COST_TABLE_HH

#include "streams/set_ops.hh"
#include "trace/bytecode.hh"

namespace sc::trace {

/** Number of SU-scheduled operations a replay of the program issues
 *  (the table's exact size), read from its EventProfile. */
std::size_t suCostCount(const BytecodeProgram &program);

/**
 * Build the table for `program` at comparator window `width` with
 * one walk of the shared decoder (walkBytecode). Panics if a cost
 * does not fit a packed entry.
 */
streams::SuCostTable suCostTable(const BytecodeProgram &program,
                                 unsigned width);

} // namespace sc::trace

#endif // SPARSECORE_TRACE_SU_COST_TABLE_HH
