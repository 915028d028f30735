/**
 * @file
 * Backend-specific behaviours: the CPU baseline's merge-loop costs,
 * galloping on skewed operands, workspace-style merge accumulation,
 * the dense-gather TTV path, and SparseCore backend plumbing.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "backend/cpu_backend.hh"
#include "backend/functional_backend.hh"
#include "backend/sparsecore_backend.hh"
#include "common/rng.hh"
#include "gpm/apps.hh"
#include "gpm/executor.hh"
#include "test_util.hh"
#include "trace/compile.hh"
#include "trace/recorder.hh"
#include "trace/replay.hh"

using namespace sc;
using namespace sc::backend;
using streams::SetOpKind;

namespace {

std::vector<Key>
sortedKeys(Rng &rng, std::size_t n, Key universe)
{
    std::vector<Key> v;
    while (v.size() < n)
        v.push_back(static_cast<Key>(rng.below(universe)));
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
}

} // namespace

TEST(CpuBackend, CostScalesWithWork)
{
    Rng rng(1);
    const auto small_a = sortedKeys(rng, 50, 10000);
    const auto small_b = sortedKeys(rng, 50, 10000);
    const auto big_a = sortedKeys(rng, 2000, 100000);
    const auto big_b = sortedKeys(rng, 2000, 100000);

    CpuBackend cpu;
    cpu.begin();
    auto h1 = cpu.streamLoad(0x1000, small_a.size(), 0, small_a);
    auto h2 = cpu.streamLoad(0x9000, small_b.size(), 0, small_b);
    cpu.setOpCount(SetOpKind::Intersect, h1, h2, small_a, small_b,
                   noBound, 0);
    const Cycles small_cost = cpu.finish();

    CpuBackend cpu2;
    cpu2.begin();
    h1 = cpu2.streamLoad(0x1000, big_a.size(), 0, big_a);
    h2 = cpu2.streamLoad(0x9000, big_b.size(), 0, big_b);
    cpu2.setOpCount(SetOpKind::Intersect, h1, h2, big_a, big_b,
                    noBound, 0);
    const Cycles big_cost = cpu2.finish();
    EXPECT_GT(big_cost, 10 * small_cost);
}

TEST(CpuBackend, GallopsOnSkewedOperands)
{
    // Short list vs 100x longer list: the galloping path must be far
    // cheaper than walking the long operand.
    Rng rng(2);
    const auto small = sortedKeys(rng, 16, 1u << 30);
    const auto huge = sortedKeys(rng, 8000, 1u << 30);

    CpuBackend gallop;
    gallop.begin();
    auto h1 = gallop.streamLoad(0x1000, small.size(), 0, small);
    auto h2 = gallop.streamLoad(0x90000, huge.size(), 0, huge);
    gallop.setOpCount(SetOpKind::Intersect, h1, h2, small, huge,
                      noBound, 0);
    const Cycles gallop_cost = gallop.finish();

    // Comparable-length operands of the same total size walk fully.
    const auto half_a = sortedKeys(rng, 4000, 1u << 30);
    const auto half_b = sortedKeys(rng, 4016, 1u << 30);
    CpuBackend walk;
    walk.begin();
    h1 = walk.streamLoad(0x1000, half_a.size(), 0, half_a);
    h2 = walk.streamLoad(0x90000, half_b.size(), 0, half_b);
    walk.setOpCount(SetOpKind::Intersect, h1, h2, half_a, half_b,
                    noBound, 0);
    const Cycles walk_cost = walk.finish();
    EXPECT_LT(gallop_cost * 10, walk_cost);
}

TEST(CpuBackend, WorkspaceMergeLinearInUpdates)
{
    // valueMerge models a dense workspace: cost ~ |B| updates, not
    // the merge walk of |acc| + |B|.
    Rng rng(3);
    const auto acc = sortedKeys(rng, 5000, 100000);
    std::vector<Value> acc_vals(acc.size(), 1.0);
    const auto row = sortedKeys(rng, 50, 100000);

    CpuBackend cpu;
    cpu.begin();
    auto ha = cpu.streamLoadKv(0x1000, 0x200000, acc.size(), 0, acc);
    auto hb = cpu.streamLoadKv(0x400000, 0x500000, row.size(), 0, row);
    cpu.valueMerge(ha, hb, acc, row, 0x200000, 0x500000,
                   acc.size() + row.size(), 0x600000);
    const Cycles cost = cpu.finish();
    // Walking 5050 elements at several cycles each would exceed 15K
    // cycles; the workspace path only pays for the 50 updates.
    EXPECT_LT(cost, 4000u);
}

TEST(CpuBackend, DenseGatherCheaperThanWalk)
{
    // TTV path: a 64-element fiber against a 16K-long dense vector.
    // Each variant runs twice and the warm (second) pass is measured,
    // so cold-cache fills don't dominate the tiny gather loop.
    std::vector<Key> fiber;
    for (Key k = 0; k < 64; ++k)
        fiber.push_back(k * 256);
    std::vector<Key> dense(16384);
    std::iota(dense.begin(), dense.end(), Key{0});
    std::vector<std::uint32_t> ma(64), mb(64);
    for (std::uint32_t i = 0; i < 64; ++i) {
        ma[i] = i;
        mb[i] = fiber[i];
    }

    CpuBackend gather;
    gather.begin();
    auto hf = gather.streamLoadKv(0x1000, 0x2000, fiber.size(), 0,
                                  fiber);
    auto hv = gather.streamLoadKv(0x100000, 0x200000, dense.size(), 0,
                                  dense);
    gather.denseValueIntersect(hf, hv, fiber, dense, 0x2000, 0x200000,
                               ma, mb);
    const Cycles gather_cold = gather.finish();
    gather.denseValueIntersect(hf, hv, fiber, dense, 0x2000, 0x200000,
                               ma, mb);
    const Cycles gather_warm = gather.finish() - gather_cold;

    CpuBackend walk;
    walk.begin();
    hf = walk.streamLoadKv(0x1000, 0x2000, fiber.size(), 0, fiber);
    hv = walk.streamLoadKv(0x100000, 0x200000, dense.size(), 0, dense);
    walk.valueIntersect(hf, hv, fiber, dense, 0x2000, 0x200000, ma,
                        mb);
    const Cycles walk_cold = walk.finish();
    walk.valueIntersect(hf, hv, fiber, dense, 0x2000, 0x200000, ma,
                        mb);
    const Cycles walk_warm = walk.finish() - walk_cold;
    // The generic path gallops on this skew already; direct gather
    // must still beat it (no binary-search work at all).
    EXPECT_LT(gather_warm, walk_warm);
}

TEST(CpuBackend, BreakdownCategoriesPopulated)
{
    Rng rng(5);
    const auto a = sortedKeys(rng, 3000, 50000);
    const auto b = sortedKeys(rng, 3000, 50000);
    CpuBackend cpu;
    cpu.begin();
    auto h1 = cpu.streamLoad(0x1000, a.size(), 0, a);
    auto h2 = cpu.streamLoad(0x90000, b.size(), 0, b);
    cpu.setOpCount(SetOpKind::Intersect, h1, h2, a, b, noBound, 0);
    cpu.finish();
    const auto bd = cpu.breakdown();
    // Interleaved random operands: mispredicts and set-op compute
    // must both appear (the Fig. 9 shape).
    EXPECT_GT(bd[sim::CycleClass::Mispredict], 0u);
    EXPECT_GT(bd[sim::CycleClass::Intersection], 0u);
}

TEST(CpuBackend, BeginResetsModeledMachine)
{
    // begin() must restore the freshly built machine — caches and
    // predictor included — so a reused backend reports what a fresh
    // one does, run after run.
    Rng rng(8);
    const auto a = sortedKeys(rng, 3000, 50000);
    const auto b = sortedKeys(rng, 3000, 50000);
    auto run = [&](CpuBackend &cpu) {
        cpu.begin();
        auto h1 = cpu.streamLoad(0x1000, a.size(), 0, a);
        auto h2 = cpu.streamLoad(0x90000, b.size(), 0, b);
        cpu.setOpCount(SetOpKind::Intersect, h1, h2, a, b, noBound, 0);
        return cpu.finish();
    };
    CpuBackend fresh, reused;
    const Cycles want = run(fresh);
    EXPECT_EQ(run(reused), want);
    EXPECT_EQ(run(reused), want);
    EXPECT_EQ(reused.breakdown().cycles, fresh.breakdown().cycles);
}

TEST(CpuBackend, BackToBackReplaysMatchFreshBackend)
{
    const auto g = test::randomTestGraph(120, 900, 9);
    for (const gpm::GpmApp app : {gpm::GpmApp::T, gpm::GpmApp::TC}) {
        trace::TraceRecorder rec;
        gpm::PlanExecutor executor(g, rec);
        executor.runMany(gpm::gpmAppPlans(app));
        const trace::BytecodeProgram bc =
            trace::compileTrace(rec.takeTrace());

        CpuBackend fresh;
        const trace::ReplayResult want =
            trace::replayCompiled(bc, fresh, false);
        CpuBackend reused;
        for (int i = 0; i < 2; ++i) {
            const trace::ReplayResult got =
                trace::replayCompiled(bc, reused, false);
            EXPECT_EQ(got.cycles, want.cycles)
                << gpm::gpmAppName(app) << " replay " << i;
            EXPECT_EQ(got.breakdown.cycles, want.breakdown.cycles)
                << gpm::gpmAppName(app) << " replay " << i;
        }
    }
}

TEST(SparseCoreBackend, BeginResetsEngine)
{
    Rng rng(6);
    const auto a = sortedKeys(rng, 100, 10000);
    SparseCoreBackend be;
    be.begin();
    auto h = be.streamLoad(0x1000, a.size(), 0, a);
    be.streamFree(h);
    const Cycles first = be.finish();
    be.begin();
    EXPECT_EQ(be.engine().now(), 0u);
    h = be.streamLoad(0x1000, a.size(), 0, a);
    be.streamFree(h);
    EXPECT_EQ(be.finish(), first); // deterministic replay
}

TEST(SparseCoreBackend, ProducedMergeValuesStayOnChip)
{
    // A produced accumulator (value base 0) must not pay load-queue
    // time; a memory-backed one must.
    Rng rng(7);
    const auto acc = sortedKeys(rng, 2000, 100000);
    const auto row = sortedKeys(rng, 2000, 100000);

    auto run = [&](Addr acc_val_base) {
        SparseCoreBackend be;
        be.begin();
        auto ha =
            be.streamLoadKv(0x1000, 0x200000, acc.size(), 0, acc);
        auto hb =
            be.streamLoadKv(0x400000, 0x500000, row.size(), 0, row);
        auto out = be.valueMerge(ha, hb, acc, row, acc_val_base,
                                 0x500000, acc.size() + row.size(),
                                 0x600000);
        be.consumeStream(out);
        return be.finish();
    };
    EXPECT_LT(run(0), run(0x200000));
}
