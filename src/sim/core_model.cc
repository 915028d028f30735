#include "sim/core_model.hh"

#include "common/logging.hh"

namespace sc::sim {

const char *
cycleClassName(CycleClass cls)
{
    switch (cls) {
      case CycleClass::Cache:
        return "Cache";
      case CycleClass::Mispredict:
        return "Mispred.";
      case CycleClass::OtherCompute:
        return "Other computation";
      case CycleClass::Intersection:
        return "Intersection";
      default:
        panic("unknown cycle class %u", static_cast<unsigned>(cls));
    }
}

Cycles
CycleBreakdown::total() const
{
    Cycles sum = 0;
    for (Cycles c : cycles)
        sum += c;
    return sum;
}

double
CycleBreakdown::fraction(CycleClass cls) const
{
    const Cycles sum = total();
    return sum ? static_cast<double>((*this)[cls]) /
                     static_cast<double>(sum)
               : 0.0;
}

CycleBreakdown &
CycleBreakdown::operator+=(const CycleBreakdown &other)
{
    for (unsigned i = 0; i < cycles.size(); ++i)
        cycles[i] += other.cycles[i];
    return *this;
}

CoreModel::CoreModel(const CoreParams &params, const MemParams &mem_params)
    : params_(params), mem_(mem_params)
{
    if (params_.issueWidth == 0)
        fatal("core issue width must be positive");
}

void
CoreModel::loadOverlapped(Addr addr, unsigned mlp,
                          CycleClass compute_cls)
{
    if (mlp == 0)
        fatal("load MLP must be positive");
    executeOps(1, compute_cls);
    MemLevel level;
    const Cycles latency = mem_.l1Access(addr, level);
    if (level == MemLevel::L1)
        return;
    const Cycles beyond_l1 = latency - mem_.params().l1Latency;
    breakdown_[CycleClass::Cache] += static_cast<Cycles>(
        std::llround(static_cast<double>(beyond_l1) *
                     params_.missStallFraction / mlp));
}

void
CoreModel::reset()
{
    breakdown_ = CycleBreakdown{};
    predictor_.reset();
    mem_.reset();
}

} // namespace sc::sim
