/**
 * @file
 * Branch predictors used by the CPU baseline model.
 *
 * The paper's Fig. 9 shows misprediction cycles dominating the CPU's
 * intersection loops. We drive a real predictor with the actual
 * advance-direction outcome sequence of each set operation, so the
 * misprediction rate emerges from data rather than a fudge factor.
 */

#ifndef SPARSECORE_SIM_BRANCH_PREDICTOR_HH
#define SPARSECORE_SIM_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

namespace sc::sim {

/** Abstract predictor: predict, then update with the outcome. */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /** Predict+update for one dynamic branch at address pc.
     *  @return true when the prediction matched the outcome. */
    virtual bool predict(std::uint64_t pc, bool taken) = 0;

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t mispredicts() const { return mispredicts_; }
    double
    mispredictRate() const
    {
        return lookups_ ? static_cast<double>(mispredicts_) /
                              static_cast<double>(lookups_)
                        : 0.0;
    }
    void resetStats() { lookups_ = mispredicts_ = 0; }

  protected:
    /** Apply one branch to a 2-bit saturating counter (>= 2 predicts
     *  taken); returns whether the pre-update prediction was correct. */
    static bool
    updateCounter(std::uint8_t &ctr, bool taken)
    {
        const bool predicted = ctr >= 2;
        if (taken) {
            if (ctr < 3)
                ++ctr;
        } else {
            if (ctr > 0)
                --ctr;
        }
        return predicted == taken;
    }

    /** Record one resolved branch. */
    void
    record(bool correct)
    {
        ++lookups_;
        if (!correct)
            ++mispredicts_;
    }

  private:
    std::uint64_t lookups_ = 0;
    std::uint64_t mispredicts_ = 0;
};

/** Classic table of 2-bit saturating counters indexed by pc. */
class TwoBitPredictor : public BranchPredictor
{
  public:
    explicit TwoBitPredictor(std::size_t table_size = 4096);

    bool predict(std::uint64_t pc, bool taken) override;

  private:
    std::vector<std::uint8_t> table_; // 0..3, >=2 predicts taken
};

/**
 * Gshare: global history XOR pc indexing a 2-bit counter table.
 * Final, with predict() inline, so a CoreModel (which holds one by
 * value) resolves every branch with a direct, inlinable call.
 */
class GsharePredictor final : public BranchPredictor
{
  public:
    explicit GsharePredictor(std::size_t table_size = 16384,
                             unsigned history_bits = 12);

    bool predict(std::uint64_t pc, bool taken) override;

    /** Restore the freshly constructed state: every counter weakly
     *  not-taken, empty history, zero stats. */
    void reset();

  private:
    std::vector<std::uint8_t> table_;
    std::uint64_t history_ = 0;
    std::uint64_t historyMask_;
};

inline bool
GsharePredictor::predict(std::uint64_t pc, bool taken)
{
    const std::uint64_t idx = (pc ^ history_) & (table_.size() - 1);
    const bool correct = updateCounter(table_[idx], taken);
    history_ = ((history_ << 1) | (taken ? 1 : 0)) & historyMask_;
    record(correct);
    return correct;
}

} // namespace sc::sim

#endif // SPARSECORE_SIM_BRANCH_PREDICTOR_HH
