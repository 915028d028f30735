/**
 * @file
 * Set-associative cache tag model with LRU replacement.
 *
 * This is a functional tag array: it answers hit/miss per access and
 * tracks occupancy; timing (latency composition across levels) is done
 * by MemHierarchy. Matches the zSim-style modeling the paper relies on.
 *
 * Each way is one packed Addr (`line + 1`, 0 = invalid) and each set
 * is kept in MRU order: a hit rotates its way to the front, a miss
 * shifts the set down one way (dropping the last, i.e. the LRU or an
 * invalid way) and installs at the front. Valid ways therefore always
 * form a prefix of the set, and hit/miss behaviour is exactly that of
 * true LRU with per-way use stamps, at 8 bytes per way.
 */

#ifndef SPARSECORE_SIM_CACHE_HH
#define SPARSECORE_SIM_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace sc::sim {

/** Geometry and behaviour of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t ways = 8;
    std::uint32_t lineBytes = 64;
};

/** One level of set-associative cache with true-LRU replacement. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Access one line.
     * @param addr byte address
     * @return true on hit; on miss the line is installed.
     */
    bool access(Addr addr);

    /** Probe without installing or touching LRU state. */
    bool contains(Addr addr) const;

    /** Invalidate the whole cache. */
    void flush();

    const CacheParams &params() const { return params_; }
    std::uint32_t numSets() const { return numSets_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    void resetStats() { hits_ = misses_ = 0; }

  private:
    /** Line sizes are powers of two (the constructor checks). */
    Addr lineAddr(Addr addr) const { return addr >> lineShift_; }

    /** Set index; power-of-two set counts use the fast mask path. */
    std::uint32_t
    setIndex(Addr line) const
    {
        return static_cast<std::uint32_t>(
            setsArePow2_ ? line & (numSets_ - 1) : line % numSets_);
    }

    CacheParams params_;
    std::uint32_t numSets_;
    unsigned lineShift_ = 0;
    bool setsArePow2_ = true;
    /** numSets_ x params_.ways, row-major; each set MRU first. */
    std::vector<Addr> tags_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

inline bool
Cache::access(Addr addr)
{
    const Addr line = lineAddr(addr);
    const Addr tag = line + 1;
    Addr *set = &tags_[static_cast<std::size_t>(setIndex(line)) *
                       params_.ways];
    Addr *const end = set + params_.ways;
    // Valid ways are a prefix, so the first 0 ends the search.
    Addr *way = set;
    while (way != end && *way != tag && *way != 0)
        ++way;
    const bool hit = way != end && *way == tag;
    // Shift the ways in front of the hit (or of the first invalid
    // way; of the LRU way when the set is full) down by one and
    // install at the front.
    Addr *const last = way != end ? way : end - 1;
    std::copy_backward(set, last, last + 1);
    *set = tag;
    ++(hit ? hits_ : misses_);
    return hit;
}

} // namespace sc::sim

#endif // SPARSECORE_SIM_CACHE_HH
