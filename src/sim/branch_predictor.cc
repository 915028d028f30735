#include "sim/branch_predictor.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sc::sim {

namespace {

bool
isPowerOfTwo(std::size_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

TwoBitPredictor::TwoBitPredictor(std::size_t table_size)
    : table_(table_size, 1)
{
    if (!isPowerOfTwo(table_size))
        fatal("branch predictor table size must be a power of two");
}

bool
TwoBitPredictor::predict(std::uint64_t pc, bool taken)
{
    std::uint8_t &ctr = table_[pc & (table_.size() - 1)];
    const bool correct = updateCounter(ctr, taken);
    record(correct);
    return correct;
}

GsharePredictor::GsharePredictor(std::size_t table_size,
                                 unsigned history_bits)
    : table_(table_size, 1), historyMask_((1ull << history_bits) - 1)
{
    if (!isPowerOfTwo(table_size))
        fatal("branch predictor table size must be a power of two");
}

void
GsharePredictor::reset()
{
    std::fill(table_.begin(), table_.end(), std::uint8_t{1});
    history_ = 0;
    resetStats();
}

} // namespace sc::sim
