/**
 * @file
 * Tests for the timing substrate: cache tag model, memory hierarchy,
 * branch predictors, and the core cost model.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/branch_predictor.hh"
#include "sim/cache.hh"
#include "sim/core_model.hh"
#include "sim/mem_hierarchy.hh"

using namespace sc;
using namespace sc::sim;

TEST(Cache, HitAfterMiss)
{
    Cache c({"test", 1024, 2, 64});
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1004)); // same line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEviction)
{
    // 2 ways, 8 sets, 64B lines: three lines mapping to one set.
    Cache c({"test", 1024, 2, 64});
    const Addr set_stride = 8 * 64;
    c.access(0 * set_stride);
    c.access(1 * set_stride);
    c.access(2 * set_stride);          // evicts line 0 (LRU)
    EXPECT_FALSE(c.contains(0));
    EXPECT_TRUE(c.contains(1 * set_stride));
    EXPECT_TRUE(c.contains(2 * set_stride));
}

TEST(Cache, LruTouchOnHit)
{
    Cache c({"test", 1024, 2, 64});
    const Addr set_stride = 8 * 64;
    c.access(0 * set_stride);
    c.access(1 * set_stride);
    c.access(0 * set_stride);          // touch 0: now 1 is LRU
    c.access(2 * set_stride);          // evicts 1
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(1 * set_stride));
}

TEST(Cache, FlushInvalidatesEverything)
{
    Cache c({"test", 1024, 2, 64});
    c.access(0x40);
    c.flush();
    EXPECT_FALSE(c.contains(0x40));
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(Cache({"bad", 1000, 7, 64}), SimError);
    EXPECT_THROW(Cache({"bad", 1024, 0, 64}), SimError);
    EXPECT_THROW(Cache({"bad", 1024, 2, 60}), SimError);
}

TEST(Cache, NonPowerOfTwoSetCount)
{
    // 12 MB 16-way with 64 B lines has 12288 sets (Table 2's L3).
    Cache c({"l3", 12 * 1024 * 1024, 16, 64});
    EXPECT_EQ(c.numSets(), 12288u);
    EXPECT_FALSE(c.access(0x100000));
    EXPECT_TRUE(c.access(0x100000));
}

TEST(MemHierarchy, LatencyComposition)
{
    MemParams p;
    MemHierarchy m(p);
    MemLevel level;
    // Cold: miss everywhere.
    const Cycles cold = m.l1Access(0x5000, level);
    EXPECT_EQ(level, MemLevel::Memory);
    EXPECT_EQ(cold, p.l1Latency + p.l2Latency + p.l3Latency +
                        p.memLatency);
    // Warm: L1 hit.
    const Cycles warm = m.l1Access(0x5000, level);
    EXPECT_EQ(level, MemLevel::L1);
    EXPECT_EQ(warm, p.l1Latency);
}

TEST(MemHierarchy, L2PathBypassesL1)
{
    MemParams p;
    MemHierarchy m(p);
    m.l2Access(0x9000);
    // The line went to L2/L3 but not L1.
    EXPECT_FALSE(m.l1().contains(0x9000));
    EXPECT_TRUE(m.l2().contains(0x9000));
    MemLevel level;
    m.l2Access(0x9000, level);
    EXPECT_EQ(level, MemLevel::L2);
}

TEST(BranchPredictor, LearnsAlwaysTaken)
{
    TwoBitPredictor bp;
    for (int i = 0; i < 100; ++i)
        bp.predict(0x40, true);
    EXPECT_LT(bp.mispredictRate(), 0.05);
}

TEST(BranchPredictor, GshareLearnsAlternation)
{
    GsharePredictor bp;
    for (int i = 0; i < 2000; ++i)
        bp.predict(0x40, i % 2 == 0);
    // Alternation is a trivial history pattern for gshare.
    EXPECT_LT(bp.mispredictRate(), 0.1);
}

TEST(BranchPredictor, RandomIsHardForTwoBit)
{
    TwoBitPredictor bp;
    Rng rng(42);
    for (int i = 0; i < 5000; ++i)
        bp.predict(0x40, rng.chance(0.5));
    EXPECT_GT(bp.mispredictRate(), 0.3);
}

TEST(CoreModel, OpsChargeIssueWidth)
{
    CoreModel core;
    core.executeOps(8); // width 4 -> 2 cycles
    EXPECT_EQ(core.cycles(), 2u);
    EXPECT_EQ(core.breakdown()[CycleClass::OtherCompute], 2u);
}

TEST(CoreModel, MispredictChargesPenalty)
{
    CoreParams p;
    CoreModel core(p);
    Rng rng(7);
    Cycles before = core.breakdown()[CycleClass::Mispredict];
    for (int i = 0; i < 1000; ++i)
        core.executeBranch(0x44, rng.chance(0.5));
    const Cycles penalty =
        core.breakdown()[CycleClass::Mispredict] - before;
    // Random branches: expect a large, penalty-quantized charge.
    EXPECT_GT(penalty, 100 * p.mispredictPenalty);
    EXPECT_EQ(penalty % p.mispredictPenalty, 0u);
}

TEST(CoreModel, SequentialLoadsMostlyHit)
{
    CoreModel core;
    for (Addr a = 0; a < 64 * 1024; a += 4)
        core.load(0x100000 + a);
    // 16 keys per line -> 1/16 of loads miss L1; the rest add no
    // stall. Confirm cache-stall cycles are far below 1 per load.
    const double per_load =
        static_cast<double>(core.breakdown()[CycleClass::Cache]) /
        (64.0 * 1024 / 4);
    EXPECT_LT(per_load, 10.0);
    EXPECT_GT(core.mem().l1().hits(), core.mem().l1().misses());
}

TEST(CoreModel, ResetClearsState)
{
    CoreModel core;
    core.executeOps(100);
    core.load(0x1234);
    core.reset();
    EXPECT_EQ(core.cycles(), 0u);
    EXPECT_EQ(core.mem().l1().hits() + core.mem().l1().misses(), 0u);
}

TEST(CoreModel, ResetRestoresFreshState)
{
    // After reset() the same work costs what it costs on a new core:
    // no warm cache lines, no trained predictor.
    auto work = [](CoreModel &core) {
        for (Addr a = 0; a < 16 * 1024; a += 64)
            core.load(0x200000 + a);
        for (int i = 0; i < 500; ++i)
            core.executeBranch(0x40, i % 3 == 0);
        return core.breakdown();
    };
    CoreModel fresh, reused;
    const CycleBreakdown want = work(fresh);
    work(reused);
    reused.reset();
    EXPECT_EQ(reused.cycles(), 0u);
    EXPECT_EQ(reused.predictor().lookups(), 0u);
    EXPECT_EQ(reused.mem().memAccesses(), 0u);
    EXPECT_EQ(work(reused).cycles, want.cycles);
    EXPECT_EQ(reused.mem().l1().misses(), fresh.mem().l1().misses());
    EXPECT_EQ(reused.predictor().mispredicts(),
              fresh.predictor().mispredicts());
}

TEST(CycleBreakdown, FractionsSumToOne)
{
    CycleBreakdown bd;
    bd[CycleClass::Cache] = 10;
    bd[CycleClass::Mispredict] = 20;
    bd[CycleClass::OtherCompute] = 30;
    bd[CycleClass::Intersection] = 40;
    EXPECT_EQ(bd.total(), 100u);
    double sum = 0;
    for (unsigned i = 0;
         i < static_cast<unsigned>(CycleClass::NumClasses); ++i)
        sum += bd.fraction(static_cast<CycleClass>(i));
    EXPECT_NEAR(sum, 1.0, 1e-9);
}
