/**
 * @file
 * LRU equivalence property for sim::Cache: the packed MRU-ordered tag
 * array must give exactly the hit/miss sequence of the reference
 * true-LRU model (one Way record per way with a last-use stamp, the
 * model the packed layout replaced), over random and strided address
 * streams, the Table 2 L1/L2/L3 geometries plus a non-power-of-two
 * set count, with interleaved flush() calls and contains() probes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/cache.hh"
#include "sim/mem_hierarchy.hh"

using namespace sc;
using sim::Cache;
using sim::CacheParams;

namespace {

/** Reference model: set-associative, true LRU via use stamps. */
class ReferenceLruCache
{
  public:
    explicit ReferenceLruCache(const CacheParams &params)
        : params_(params),
          numSets_(static_cast<std::uint32_t>(
              params.sizeBytes / params.lineBytes / params.ways)),
          ways_(static_cast<std::size_t>(numSets_) * params.ways)
    {
    }

    bool
    access(Addr addr)
    {
        const Addr line = addr / params_.lineBytes;
        Way *base = &ways_[setOf(line) * params_.ways];
        ++useClock_;
        Way *victim = base;
        for (std::uint32_t w = 0; w < params_.ways; ++w) {
            Way &way = base[w];
            if (way.valid && way.tag == line) {
                way.lastUse = useClock_;
                ++hits_;
                return true;
            }
            if (!way.valid)
                victim = &way;
            else if (victim->valid && way.lastUse < victim->lastUse)
                victim = &way;
        }
        victim->valid = true;
        victim->tag = line;
        victim->lastUse = useClock_;
        ++misses_;
        return false;
    }

    bool
    contains(Addr addr) const
    {
        const Addr line = addr / params_.lineBytes;
        const Way *base = &ways_[setOf(line) * params_.ways];
        for (std::uint32_t w = 0; w < params_.ways; ++w)
            if (base[w].valid && base[w].tag == line)
                return true;
        return false;
    }

    void
    flush()
    {
        for (Way &way : ways_)
            way.valid = false;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Way
    {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    std::size_t setOf(Addr line) const { return line % numSets_; }

    CacheParams params_;
    std::uint32_t numSets_;
    std::vector<Way> ways_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/** Address streams over a footprint of a few times the cache size,
 *  so every set sees hits, fills and LRU evictions. */
enum class Stream { Random, Strided, Mixed };

Addr
nextAddr(Stream stream, Rng &rng, std::uint64_t i,
         std::uint64_t footprint, std::uint64_t stride)
{
    switch (stream) {
      case Stream::Random:
        return rng.below(footprint);
      case Stream::Strided:
        // A reused scan over half the cache, interleaved with a
        // faster scan over the whole footprint that keeps evicting.
        return i % 4 == 3 ? (i * stride * 5) % footprint
                          : (i * stride) % (footprint / 6);
      case Stream::Mixed:
        break;
    }
    // Sequential runs broken by random jumps: hot reuse plus scans.
    return (i % 7 == 0) ? rng.below(footprint)
                        : (i * 8) % footprint;
}

void
expectEquivalent(const CacheParams &params, Stream stream,
                 std::uint64_t stride, std::uint64_t seed)
{
    Cache packed(params);
    ReferenceLruCache reference(params);
    Rng rng(seed);
    const std::uint64_t footprint = params.sizeBytes * 3;
    // Six passes' worth of lines, flushed twice: each segment between
    // flushes still fills every set and evicts.
    const std::uint64_t accesses = std::max<std::uint64_t>(
        200'000, 6 * params.sizeBytes / params.lineBytes);
    const std::uint64_t flush_every = accesses / 3;
    const std::string label = params.name + " stream " +
                              std::to_string(static_cast<int>(stream)) +
                              " stride " + std::to_string(stride);
    for (std::uint64_t i = 0; i < accesses; ++i) {
        const Addr addr = nextAddr(stream, rng, i, footprint, stride);
        ASSERT_EQ(packed.access(addr), reference.access(addr))
            << label << ": access " << i << " addr " << addr;
        if (i % 97 == 0) {
            const Addr probe = rng.below(footprint);
            ASSERT_EQ(packed.contains(probe), reference.contains(probe))
                << label << ": probe after access " << i;
        }
        if (i % flush_every == flush_every - 1) {
            packed.flush();
            reference.flush();
        }
    }
    EXPECT_EQ(packed.hits(), reference.hits()) << label;
    EXPECT_EQ(packed.misses(), reference.misses()) << label;
    EXPECT_GT(packed.hits(), 0u) << label;
    EXPECT_GT(packed.misses(), 0u) << label;
}

std::vector<CacheParams>
geometries()
{
    const sim::MemParams table2;
    return {table2.l1, table2.l2, table2.l3,
            // 3 * 2^k sets: exercises the modulo set-index path.
            {"np2", 48 * 1024, 4, 64}};
}

} // namespace

TEST(CacheLru, PackedMatchesReferenceOnRandomStreams)
{
    std::uint64_t seed = 11;
    for (const CacheParams &params : geometries())
        expectEquivalent(params, Stream::Random, 0, seed++);
}

TEST(CacheLru, PackedMatchesReferenceOnStridedStreams)
{
    std::uint64_t seed = 21;
    for (const CacheParams &params : geometries())
        for (const std::uint64_t stride : {8ull, 64ull, 4160ull})
            expectEquivalent(params, Stream::Strided, stride, seed++);
}

TEST(CacheLru, PackedMatchesReferenceOnMixedStreams)
{
    std::uint64_t seed = 31;
    for (const CacheParams &params : geometries())
        expectEquivalent(params, Stream::Mixed, 0, seed++);
}

TEST(CacheLru, NonPowerOfTwoGeometryHasNonPowerOfTwoSets)
{
    const Cache cache({"np2", 48 * 1024, 4, 64});
    EXPECT_EQ(cache.numSets(), 192u);
}
