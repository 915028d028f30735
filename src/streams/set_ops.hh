/**
 * @file
 * Sorted-stream set operations: intersection, subtraction, merge, and
 * their (key,value) variants — the primitives behind S_INTER/S_SUB/
 * S_MERGE/S_VINTER/S_VMERGE (§3.3).
 *
 * Each operation supports the paper's upper-bound early termination
 * (operand R3): for intersection/subtraction, computation stops once
 * every remaining output element would be >= the bound.
 *
 * Two cost views are produced:
 *  - scalar steps + per-step advance outcomes (drives the CPU
 *    baseline's branch predictor and Fig. 9's mispredict cycles), and
 *  - SU parallel-comparison cycles under the Fig. 6 model (16-wide
 *    window, both pointers may skip up to the window per cycle),
 *    computed by suCycles().
 */

#ifndef SPARSECORE_STREAMS_SET_OPS_HH
#define SPARSECORE_STREAMS_SET_OPS_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"

namespace sc::streams {

using KeySpan = std::span<const Key>;
using ValueSpan = std::span<const Value>;

/** The three set-operation kinds of the stream ISA. */
enum class SetOpKind : unsigned { Intersect, Subtract, Merge };
inline constexpr std::size_t numSetOpKinds = 3;

const char *setOpName(SetOpKind kind);

/** Per-step outcome of the scalar dual-pointer loop. */
enum class StepOutcome : std::uint8_t { Match, AdvanceA, AdvanceB };

/** Work summary of one set operation. */
struct SetOpResult
{
    std::uint64_t count = 0;     ///< output length
    std::uint64_t steps = 0;     ///< scalar loop iterations
    std::uint64_t aConsumed = 0; ///< elements read from operand A
    std::uint64_t bConsumed = 0; ///< elements read from operand B
};

/** A no-op step visitor (keeps the hot path branch-free). */
struct NullVisitor
{
    void operator()(StepOutcome) const {}
};

/**
 * Intersection of two sorted key streams with optional upper bound.
 * @param a,b sorted operands
 * @param bound exclusive upper bound on output keys (noBound = none)
 * @param out optional output vector (appended); null for .C variants
 * @param vis called once per scalar loop step with its outcome
 */
template <typename Visitor = NullVisitor>
SetOpResult
intersect(KeySpan a, KeySpan b, Key bound = noBound,
          std::vector<Key> *out = nullptr, Visitor &&vis = Visitor{})
{
    SetOpResult res;
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        const Key ka = a[i], kb = b[j];
        // Every future match is >= max(ka, kb): once either side
        // reaches the bound nothing below it can still be produced.
        if (ka >= bound || kb >= bound)
            break;
        ++res.steps;
        if (ka == kb) {
            vis(StepOutcome::Match);
            if (out)
                out->push_back(ka);
            ++res.count;
            ++i;
            ++j;
        } else if (ka < kb) {
            vis(StepOutcome::AdvanceA);
            ++i;
        } else {
            vis(StepOutcome::AdvanceB);
            ++j;
        }
    }
    res.aConsumed = i;
    res.bConsumed = j;
    return res;
}

/**
 * Subtraction a - b (keys of a absent from b), optional upper bound on
 * output keys.
 */
template <typename Visitor = NullVisitor>
SetOpResult
subtract(KeySpan a, KeySpan b, Key bound = noBound,
         std::vector<Key> *out = nullptr, Visitor &&vis = Visitor{})
{
    SetOpResult res;
    std::size_t i = 0, j = 0;
    while (i < a.size()) {
        const Key ka = a[i];
        if (ka >= bound)
            break;
        if (j >= b.size() || ka < b[j]) {
            ++res.steps;
            vis(StepOutcome::AdvanceA);
            if (out)
                out->push_back(ka);
            ++res.count;
            ++i;
        } else if (ka == b[j]) {
            ++res.steps;
            vis(StepOutcome::Match);
            ++i;
            ++j;
        } else {
            ++res.steps;
            vis(StepOutcome::AdvanceB);
            ++j;
        }
    }
    res.aConsumed = i;
    res.bConsumed = j;
    return res;
}

/** Merge (set union) of two sorted key streams. */
template <typename Visitor = NullVisitor>
SetOpResult
merge(KeySpan a, KeySpan b, std::vector<Key> *out = nullptr,
      Visitor &&vis = Visitor{})
{
    SetOpResult res;
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        ++res.steps;
        const Key ka = a[i], kb = b[j];
        Key k;
        if (ka == kb) {
            vis(StepOutcome::Match);
            k = ka;
            ++i;
            ++j;
        } else if (ka < kb) {
            vis(StepOutcome::AdvanceA);
            k = ka;
            ++i;
        } else {
            vis(StepOutcome::AdvanceB);
            k = kb;
            ++j;
        }
        if (out)
            out->push_back(k);
        ++res.count;
    }
    // Tail copy of the survivor (§3.4 Gustavson tail handling).
    for (; i < a.size(); ++i) {
        if (out)
            out->push_back(a[i]);
        ++res.count;
    }
    for (; j < b.size(); ++j) {
        if (out)
            out->push_back(b[j]);
        ++res.count;
    }
    res.aConsumed = a.size();
    res.bConsumed = b.size();
    return res;
}

/** Value-combination operators of S_VINTER's IMM field. */
enum class ValueOp : unsigned { Mac, MaxAcc, MinAcc };

const char *valueOpName(ValueOp op);

/**
 * S_VINTER semantics: intersect keys, combine matching values, and
 * accumulate (sum of products for Mac; running max/min otherwise).
 * When one operand's remainder is >= 32x the other's, the long side
 * advances by galloping search; the returned value, work summary and
 * match positions are identical to the two-pointer reference.
 * @param match_pos_a optional matched element positions in stream A
 *        (drives VA_gen value-address generation in the SVPU model)
 * @param match_pos_b same for stream B
 */
Value valueIntersect(KeySpan ak, ValueSpan av, KeySpan bk, ValueSpan bv,
                     ValueOp op, SetOpResult *work = nullptr,
                     std::vector<std::uint32_t> *match_pos_a = nullptr,
                     std::vector<std::uint32_t> *match_pos_b = nullptr);

/**
 * S_VMERGE semantics: merged keys; each output value is
 * scale_a*av + scale_b*bv with missing operands contributing zero.
 */
SetOpResult valueMerge(KeySpan ak, ValueSpan av, KeySpan bk, ValueSpan bv,
                       Value scale_a, Value scale_b,
                       std::vector<Key> &out_keys,
                       std::vector<Value> &out_vals);

/** SU execution cost of one set operation (see suCost()). */
struct SuCost
{
    Cycles cycles = 0;           ///< comparator cycles
    std::uint64_t aConsumed = 0; ///< elements transferred from A
    std::uint64_t bConsumed = 0; ///< elements transferred from B
};

/**
 * Cycle count and data volume of one set operation on a Stream Unit
 * under the Fig. 6 parallel-comparison model.
 *
 * Each cycle the head of each stream is compared against a window of
 * the other stream; a pointer may skip up to `width` elements per
 * cycle. Intersection emits at most one result per cycle; subtraction
 * and merge may emit several.
 *
 * Host-side fast paths (identical returned costs, faster to compute):
 * heavily skewed remainders (>= 32x) advance by galloping search and
 * charge ceil(distance/width) cycles analytically, and the Subtract
 * tail below the bound is counted with one binary search.
 *
 * @param width SU comparator window (the paper's buffer is 16)
 */
SuCost suCost(KeySpan a, KeySpan b, SetOpKind kind, Key bound = noBound,
              unsigned width = 16);

/**
 * One SuCost narrowed to three u32s: the entry of an SU-cost table.
 * Operand lengths are u32, so the consumed counts always fit; cycles
 * never exceed the operands' total length. packSuCost checks both.
 */
struct PackedSuCost
{
    std::uint32_t cycles = 0;
    std::uint32_t aConsumed = 0;
    std::uint32_t bConsumed = 0;
};

/** Narrow a cost into a table entry; panics if a field overflows. */
PackedSuCost packSuCost(const SuCost &cost);

inline SuCost
unpackSuCost(const PackedSuCost &packed)
{
    return SuCost{packed.cycles, packed.aConsumed, packed.bConsumed};
}

/**
 * Every SU cost one replay of a compiled program asks for, at one
 * comparator window, in request order (built by trace::suCostTable).
 * The cost is a pure function of (operands, kind, bound, width), so
 * one table serves every arch point that keeps the window.
 */
struct SuCostTable
{
    unsigned width = 0;
    std::vector<PackedSuCost> entries;

    std::size_t
    memoryBytes() const
    {
        return sizeof(*this) + entries.capacity() * sizeof(PackedSuCost);
    }
};

/** Convenience wrapper returning only the cycle count. */
Cycles suCycles(KeySpan a, KeySpan b, SetOpKind kind, Key bound = noBound,
                unsigned width = 16);

// ---------------- dispatched host kernels ----------------
// The templates above are the scalar REFERENCE (and the per-step
// visitor source for the CPU cost model). Functional hot paths go
// through these entry points instead, which route to the process's
// active kernel table (streams/simd/kernel_table.hh): AVX2 or
// scalar, CPUID-selected, SC_FORCE_KERNEL-overridable. All levels
// return bit-identical SetOpResults and outputs; only host
// wall-clock changes. Defined in streams/simd/kernel_table.cc.

/** One set operation via the active kernel table (Merge ignores the
 *  bound). @param out optional output vector (appended). */
SetOpResult runSetOp(SetOpKind kind, KeySpan a, KeySpan b,
                     Key bound = noBound, std::vector<Key> *out = nullptr);

/** Counting (.C) form — the same dispatch with no output buffer, so
 *  counts can never diverge from the materializing results. */
SetOpResult runSetOpCount(SetOpKind kind, KeySpan a, KeySpan b,
                          Key bound = noBound);

} // namespace sc::streams

#endif // SPARSECORE_STREAMS_SET_OPS_HH
