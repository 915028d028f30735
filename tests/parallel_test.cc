/**
 * @file
 * Tests for multi-core mining (Table 2: six cores): count
 * conservation across the root split, speedup over one core, load
 * balance, the 4-motif application added on top of the paper's app
 * set, and the host-parallel runtime (determinism across host thread
 * counts, exception propagation, chunked load balance, wall-clock
 * speedup).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "api/machine.hh"
#include "api/parallel.hh"
#include "backend/functional_backend.hh"
#include "common/parallel_for.hh"
#include "graph/generators.hh"
#include "gpm/executor.hh"
#include "test_util.hh"

using namespace sc;
using namespace sc::api;

TEST(Parallel, CountsConservedAcrossSplit)
{
    const auto g = test::randomTestGraph(300, 3000, 91);
    Machine machine;
    const auto serial = machine.run(RunRequest::gpm(gpm::GpmApp::T, g),
                                    Substrate::SparseCore);
    for (unsigned cores : {2u, 3u, 6u}) {
        const auto par =
            mineParallelSparseCore(gpm::GpmApp::T, g, cores);
        EXPECT_EQ(par.embeddings, serial.functionalResult)
            << cores << " cores";
        EXPECT_EQ(par.perCore.size(), cores);
    }
}

TEST(Parallel, SixCoresFasterThanOne)
{
    const auto g = test::randomTestGraph(400, 6000, 92);
    const auto one = mineParallelSparseCore(gpm::GpmApp::C4, g, 1);
    const auto six = mineParallelSparseCore(gpm::GpmApp::C4, g, 6);
    EXPECT_LT(six.cycles * 2, one.cycles); // at least 2x from 6 cores
    EXPECT_GT(six.balance(), 0.3);         // interleaving balances
}

TEST(Parallel, CpuParallelMatchesCounts)
{
    const auto g = test::randomTestGraph(200, 1500, 93);
    const auto sc_par =
        mineParallelSparseCore(gpm::GpmApp::TC, g, 4);
    const auto cpu_par = mineParallelCpu(gpm::GpmApp::TC, g, 4);
    EXPECT_EQ(sc_par.embeddings, cpu_par.embeddings);
    EXPECT_LT(sc_par.cycles, cpu_par.cycles);
}

TEST(Parallel, RootRangeValidation)
{
    const auto g = test::randomTestGraph(50, 100, 94);
    backend::FunctionalBackend be;
    gpm::PlanExecutor executor(g, be);
    EXPECT_THROW(executor.setRootRange(4, 4), SimError);
    EXPECT_THROW(executor.setRootRange(0, 0), SimError);
}

TEST(HostParallel, DeterministicAcrossHostThreadCounts)
{
    // Byte-identical ParallelGpmResult whether the host pool has one
    // thread (pure inline execution) or several: fixed chunk→core
    // cycle attribution + ordered reduction.
    ThreadPool one(1), many(4);
    for (std::uint64_t seed : {41ull, 42ull}) {
        const auto g = test::randomTestGraph(250, 2500, seed);
        for (const gpm::GpmApp app : {gpm::GpmApp::T, gpm::GpmApp::C4}) {
            HostOptions h1, hN;
            h1.pool = &one;
            hN.pool = &many;
            const auto r1 =
                mineParallelSparseCore(app, g, 6, {}, 1, h1);
            const auto rN =
                mineParallelSparseCore(app, g, 6, {}, 1, hN);
            EXPECT_EQ(r1.embeddings, rN.embeddings);
            EXPECT_EQ(r1.cycles, rN.cycles);
            ASSERT_EQ(r1.perCore.size(), rN.perCore.size());
            for (std::size_t c = 0; c < r1.perCore.size(); ++c)
                EXPECT_EQ(r1.perCore[c], rN.perCore[c])
                    << "core " << c << " seed " << seed;
        }
    }
}

TEST(HostParallel, LegacyChunkingMatchesPerCoreSplit)
{
    // chunksPerCore = 1 is exactly the legacy one-session-per-core
    // split, so chunked runs must conserve the embedding count.
    const auto g = test::randomTestGraph(300, 3000, 91);
    HostOptions legacy;
    legacy.chunksPerCore = 1;
    HostOptions chunked;
    chunked.chunksPerCore = 4;
    const auto a =
        mineParallelSparseCore(gpm::GpmApp::T, g, 6, {}, 1, legacy);
    const auto b =
        mineParallelSparseCore(gpm::GpmApp::T, g, 6, {}, 1, chunked);
    EXPECT_EQ(a.embeddings, b.embeddings);
    EXPECT_EQ(a.perCore.size(), b.perCore.size());
}

TEST(HostParallel, ExceptionFromSimulationTaskPropagates)
{
    // A panic inside a pool task (here: a plan with too few
    // positions) must surface in the calling thread as SimError.
    const auto g = test::randomTestGraph(50, 200, 17);
    ThreadPool pool(4);
    EXPECT_THROW(
        parallelFor(pool, 8,
                    [&](std::size_t) {
                        backend::FunctionalBackend be;
                        gpm::PlanExecutor executor(g, be);
                        gpm::MiningPlan bad;
                        executor.run(bad);
                    }),
        SimError);
}

TEST(HostParallel, ChunkingBalancesSkewedGraph)
{
    // Regression: on a heavily skewed degree distribution the chunked
    // split must not leave the simulated-core balance worse than the
    // legacy per-core split, and must keep it well above the
    // serialized-behind-one-core regime.
    const auto g = graph::generateChungLu(600, 6000, 580, 1.6, 1234,
                                          "skewed");
    HostOptions legacy;
    legacy.chunksPerCore = 1;
    HostOptions chunked; // default K = 4
    const auto coarse =
        mineParallelSparseCore(gpm::GpmApp::T, g, 6, {}, 1, legacy);
    const auto fine =
        mineParallelSparseCore(gpm::GpmApp::T, g, 6, {}, 1, chunked);
    EXPECT_EQ(coarse.embeddings, fine.embeddings);
    EXPECT_GE(fine.balance(), coarse.balance() * 0.95);
    EXPECT_GT(fine.balance(), 0.5);
}

TEST(HostParallel, WallClockSpeedupWithFourThreads)
{
    // Acceptance: >= 2x host wall-clock speedup on a multi-core
    // mining run with >= 4 host threads vs the 1-thread path. Only
    // meaningful on hosts that actually have >= 4 hardware threads.
    if (std::thread::hardware_concurrency() < 4)
        GTEST_SKIP() << "needs >= 4 hardware threads, have "
                     << std::thread::hardware_concurrency();

    const auto g = test::randomTestGraph(500, 8000, 7);
    ThreadPool one(1), four(4);
    HostOptions h1, h4;
    h1.pool = &one;
    h4.pool = &four;
    // Both legs capture and replay every chunk themselves: with the
    // artifact store on, the second leg would replay the chunk
    // programs the first one stored, crediting the store to threads.
    h1.artifactCache = false;
    h4.artifactCache = false;
    // Warm up caches / page in the graph.
    mineParallelSparseCore(gpm::GpmApp::T, g, 6, {}, 1, h1);

    // Best of three per leg: the minimum filters out preemption by
    // whatever else shares the host (ctest also runs this test
    // alone, tests/CMakeLists.txt).
    const auto time_run = [&](const HostOptions &h) {
        ParallelGpmResult r;
        double best = 0;
        for (int rep = 0; rep < 3; ++rep) {
            const auto start = std::chrono::steady_clock::now();
            r = mineParallelSparseCore(gpm::GpmApp::C4, g, 6, {}, 1, h);
            const double s =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            if (rep == 0 || s < best)
                best = s;
        }
        return std::make_pair(r, best);
    };
    const auto [r1, t1] = time_run(h1);
    const auto [r4, t4] = time_run(h4);
    EXPECT_EQ(r1.embeddings, r4.embeddings);
    EXPECT_EQ(r1.cycles, r4.cycles);
    EXPECT_GE(t1 / t4, 2.0)
        << "1-thread " << t1 << " s vs 4-thread " << t4 << " s";
}

TEST(FourMotif, MatchesBruteForce)
{
    for (std::uint64_t seed : {5, 6}) {
        const auto g = test::randomTestGraph(18, 60, seed);
        backend::FunctionalBackend be;
        gpm::PlanExecutor executor(g, be);
        std::vector<std::uint64_t> counts;
        executor.runMany(gpm::gpmAppPlans(gpm::GpmApp::M4), &counts);
        ASSERT_EQ(counts.size(), 6u);
        using gpm::Pattern;
        const Pattern patterns[6] = {
            Pattern::path(4),   Pattern::star(3),
            Pattern::cycle(4),  Pattern::tailedTriangle(),
            Pattern::diamond(), Pattern::clique(4)};
        for (unsigned p = 0; p < 6; ++p)
            EXPECT_EQ(counts[p],
                      test::bruteForceCount(g, patterns[p], true))
                << patterns[p].name() << " seed " << seed;
    }
}

TEST(FourMotif, PartitionsAllFourSubsets)
{
    // Every connected 4-subset is exactly one of the six motifs, so
    // the motif total equals the number of connected 4-subsets.
    const auto g = test::randomTestGraph(16, 50, 7);
    backend::FunctionalBackend be;
    gpm::PlanExecutor executor(g, be);
    const auto total =
        executor.runMany(gpm::gpmAppPlans(gpm::GpmApp::M4))
            .embeddings;

    std::uint64_t connected = 0;
    const VertexId n = g.numVertices();
    for (VertexId a = 0; a < n; ++a)
        for (VertexId b = a + 1; b < n; ++b)
            for (VertexId c = b + 1; c < n; ++c)
                for (VertexId d = c + 1; d < n; ++d) {
                    gpm::Pattern induced(4);
                    const VertexId verts[4] = {a, b, c, d};
                    for (unsigned i = 0; i < 4; ++i)
                        for (unsigned j = i + 1; j < 4; ++j)
                            if (g.hasEdge(verts[i], verts[j]))
                                induced.addEdge(i, j);
                    if (induced.isConnected())
                        ++connected;
                }
    EXPECT_EQ(total, connected);
}
