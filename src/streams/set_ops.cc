#include "streams/set_ops.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sc::streams {

namespace {

/**
 * Length ratio above which the longer operand's pointer advances by
 * galloping (exponential search + binary search) instead of one
 * element per step. The fast paths below are exact-cost rewrites:
 * they reproduce the reference two-pointer / windowed-skip results
 * bit for bit, only faster on the host.
 */
constexpr std::size_t gallopRatio = 32;

/** First index >= from with s[index] >= target (exponential probe,
 *  then binary search — O(log distance) instead of O(distance)). */
std::size_t
gallopLowerBound(KeySpan s, std::size_t from, Key target)
{
    std::size_t step = 1;
    std::size_t lo = from;
    while (lo + step < s.size() && s[lo + step] < target) {
        lo += step;
        step <<= 1;
    }
    const std::size_t hi = std::min(s.size(), lo + step + 1);
    auto it = std::lower_bound(s.begin() + lo, s.begin() + hi, target);
    return static_cast<std::size_t>(it - s.begin());
}

} // namespace

const char *
setOpName(SetOpKind kind)
{
    switch (kind) {
      case SetOpKind::Intersect:
        return "intersect";
      case SetOpKind::Subtract:
        return "subtract";
      case SetOpKind::Merge:
        return "merge";
      default:
        panic("unknown set-op kind %u", static_cast<unsigned>(kind));
    }
}

const char *
valueOpName(ValueOp op)
{
    switch (op) {
      case ValueOp::Mac:
        return "MAC";
      case ValueOp::MaxAcc:
        return "MAX";
      case ValueOp::MinAcc:
        return "MIN";
      default:
        panic("unknown value op %u", static_cast<unsigned>(op));
    }
}

Value
valueIntersect(KeySpan ak, ValueSpan av, KeySpan bk, ValueSpan bv,
               ValueOp op, SetOpResult *work,
               std::vector<std::uint32_t> *match_pos_a,
               std::vector<std::uint32_t> *match_pos_b)
{
    if (ak.size() != av.size() || bk.size() != bv.size())
        panic("key/value stream length mismatch");

    Value acc = 0.0;
    bool first = true;
    std::size_t i = 0, j = 0;
    SetOpResult res;
    while (i < ak.size() && j < bk.size()) {
        // Galloping fast path for skewed operands: advancing the long
        // side's pointer to the first key >= the short side's head is
        // exactly what the two-pointer loop does one AdvanceA/AdvanceB
        // step at a time, so charging one step per skipped element
        // keeps the modeled cost (and every output) identical.
        if (ak[i] != bk[j]) {
            if (ak[i] < bk[j] &&
                ak.size() - i >= gallopRatio * (bk.size() - j)) {
                const std::size_t ni = gallopLowerBound(ak, i, bk[j]);
                res.steps += ni - i;
                i = ni;
                continue;
            }
            if (bk[j] < ak[i] &&
                bk.size() - j >= gallopRatio * (ak.size() - i)) {
                const std::size_t nj = gallopLowerBound(bk, j, ak[i]);
                res.steps += nj - j;
                j = nj;
                continue;
            }
        }
        ++res.steps;
        if (ak[i] == bk[j]) {
            if (match_pos_a)
                match_pos_a->push_back(static_cast<std::uint32_t>(i));
            if (match_pos_b)
                match_pos_b->push_back(static_cast<std::uint32_t>(j));
            const Value product = av[i] * bv[j];
            switch (op) {
              case ValueOp::Mac:
                acc += product;
                break;
              case ValueOp::MaxAcc:
                acc = first ? product : std::max(acc, product);
                break;
              case ValueOp::MinAcc:
                acc = first ? product : std::min(acc, product);
                break;
            }
            first = false;
            ++res.count;
            ++i;
            ++j;
        } else if (ak[i] < bk[j]) {
            ++i;
        } else {
            ++j;
        }
    }
    res.aConsumed = i;
    res.bConsumed = j;
    if (work)
        *work = res;
    return acc;
}

SetOpResult
valueMerge(KeySpan ak, ValueSpan av, KeySpan bk, ValueSpan bv,
           Value scale_a, Value scale_b, std::vector<Key> &out_keys,
           std::vector<Value> &out_vals)
{
    if (ak.size() != av.size() || bk.size() != bv.size())
        panic("key/value stream length mismatch");

    SetOpResult res;
    std::size_t i = 0, j = 0;
    while (i < ak.size() && j < bk.size()) {
        ++res.steps;
        if (ak[i] == bk[j]) {
            out_keys.push_back(ak[i]);
            out_vals.push_back(av[i] * scale_a + bv[j] * scale_b);
            ++i;
            ++j;
        } else if (ak[i] < bk[j]) {
            out_keys.push_back(ak[i]);
            out_vals.push_back(av[i] * scale_a);
            ++i;
        } else {
            out_keys.push_back(bk[j]);
            out_vals.push_back(bv[j] * scale_b);
            ++j;
        }
        ++res.count;
    }
    for (; i < ak.size(); ++i) {
        out_keys.push_back(ak[i]);
        out_vals.push_back(av[i] * scale_a);
        ++res.count;
    }
    for (; j < bk.size(); ++j) {
        out_keys.push_back(bk[j]);
        out_vals.push_back(bv[j] * scale_b);
        ++res.count;
    }
    res.aConsumed = ak.size();
    res.bConsumed = bk.size();
    return res;
}

SuCost
suCost(KeySpan a, KeySpan b, SetOpKind kind, Key bound, unsigned width)
{
    if (width == 0)
        panic("SU comparator window must be positive");

    Cycles cycles = 0;
    std::size_t i = 0, j = 0;

    while (i < a.size() && j < b.size()) {
        const Key ka = a[i], kb = b[j];
        if (kind != SetOpKind::Merge && (ka >= bound || kb >= bound))
            break;
        // Galloping fast path for skewed remainders. While the long
        // side catches up to the short side's head, the reference
        // loop advances that one pointer by at most `width` per cycle
        // and nothing can break mid-skip (every skipped key is below
        // the other head, which itself is below the bound), so the
        // whole phase costs exactly ceil(distance / width) cycles.
        if (ka != kb) {
            if (ka < kb &&
                a.size() - i >= gallopRatio * (b.size() - j)) {
                const std::size_t t = gallopLowerBound(a, i, kb);
                cycles += (t - i + width - 1) / width;
                i = t;
                continue;
            }
            if (kb < ka &&
                b.size() - j >= gallopRatio * (a.size() - i)) {
                const std::size_t t = gallopLowerBound(b, j, ka);
                cycles += (t - j + width - 1) / width;
                j = t;
                continue;
            }
        }
        ++cycles;
        if (ka == kb) {
            // A match retires one element of each stream this cycle.
            ++i;
            ++j;
            continue;
        }
        // Parallel comparison: the head of each stream is compared
        // against a window of the other; the pointer of the smaller
        // side skips to the first element >= the other head, bounded
        // by the window width (Fig. 6).
        if (ka < kb) {
            const std::size_t limit = std::min(a.size(), i + width);
            auto it = std::lower_bound(a.begin() + i,
                                       a.begin() + limit, kb);
            i = static_cast<std::size_t>(it - a.begin());
        } else {
            const std::size_t limit = std::min(b.size(), j + width);
            auto it = std::lower_bound(b.begin() + j,
                                       b.begin() + limit, ka);
            j = static_cast<std::size_t>(it - b.begin());
        }
    }

    if (kind == SetOpKind::Merge) {
        // Tail copy streams out at `width` elements per cycle.
        const std::size_t left = (a.size() - i) + (b.size() - j);
        cycles += (left + width - 1) / width;
        i = a.size();
        j = b.size();
    } else if (kind == SetOpKind::Subtract) {
        // Remaining elements of A below the bound stream to the output
        // at `width` per cycle; keys are sorted, so the count is a
        // binary search away.
        const std::size_t stop = static_cast<std::size_t>(
            std::lower_bound(a.begin() + i, a.end(), bound) -
            a.begin());
        cycles += (stop - i + width - 1) / width;
        i = stop;
    }
    return SuCost{cycles, i, j};
}

PackedSuCost
packSuCost(const SuCost &cost)
{
    constexpr std::uint64_t limit = UINT32_MAX;
    if (cost.cycles > limit || cost.aConsumed > limit ||
        cost.bConsumed > limit)
        panic("SU cost (%llu cycles, %llu/%llu consumed) does not fit "
              "a packed table entry",
              static_cast<unsigned long long>(cost.cycles),
              static_cast<unsigned long long>(cost.aConsumed),
              static_cast<unsigned long long>(cost.bConsumed));
    return PackedSuCost{static_cast<std::uint32_t>(cost.cycles),
                        static_cast<std::uint32_t>(cost.aConsumed),
                        static_cast<std::uint32_t>(cost.bConsumed)};
}

Cycles
suCycles(KeySpan a, KeySpan b, SetOpKind kind, Key bound, unsigned width)
{
    return suCost(a, b, kind, bound, width).cycles;
}

} // namespace sc::streams
