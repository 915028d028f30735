#include "sim/mem_hierarchy.hh"

namespace sc::sim {

MemHierarchy::MemHierarchy(const MemParams &params)
    : params_(params), l1_(params.l1), l2_(params.l2), l3_(params.l3)
{
}

void
MemHierarchy::resetStats()
{
    l1_.resetStats();
    l2_.resetStats();
    l3_.resetStats();
    memAccesses_ = 0;
}

void
MemHierarchy::reset()
{
    l1_.flush();
    l2_.flush();
    l3_.flush();
    resetStats();
}

} // namespace sc::sim
