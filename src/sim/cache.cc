#include "sim/cache.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace sc::sim {

namespace {

bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(const CacheParams &params)
    : params_(params)
{
    if (params_.lineBytes == 0 || !isPowerOfTwo(params_.lineBytes))
        fatal("cache %s: line size must be a power of two",
              params_.name.c_str());
    if (params_.ways == 0)
        fatal("cache %s: needs at least one way", params_.name.c_str());
    std::uint64_t lines = params_.sizeBytes / params_.lineBytes;
    if (lines == 0 || lines % params_.ways != 0)
        fatal("cache %s: size %llu not divisible into %u ways",
              params_.name.c_str(),
              static_cast<unsigned long long>(params_.sizeBytes),
              params_.ways);
    lineShift_ = static_cast<unsigned>(std::countr_zero(params_.lineBytes));
    numSets_ = static_cast<std::uint32_t>(lines / params_.ways);
    setsArePow2_ = isPowerOfTwo(numSets_);
    tags_.assign(static_cast<std::size_t>(numSets_) * params_.ways, 0);
}

bool
Cache::contains(Addr addr) const
{
    const Addr line = lineAddr(addr);
    const Addr *set = &tags_[static_cast<std::size_t>(setIndex(line)) *
                             params_.ways];
    return std::find(set, set + params_.ways, line + 1) !=
           set + params_.ways;
}

void
Cache::flush()
{
    std::fill(tags_.begin(), tags_.end(), 0);
}

} // namespace sc::sim
