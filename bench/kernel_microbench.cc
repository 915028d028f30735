/**
 * @file
 * Host set-op kernel microbenchmark: wall-clock throughput of every
 * registered kernel level (scalar / AVX2) on the three stream
 * ops, plus the speedup over the scalar reference. This measures the
 * HOST kernels only — simulated SparseCore cycles are independent of
 * the kernel level by construction (DESIGN.md §10), which
 * tests/kernel_table_test.cc enforces.
 *
 * `--smoke` runs a seconds-long subset for CI (scripts/check.sh).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "streams/set_ops.hh"
#include "streams/simd/kernel_table.hh"

using namespace sc;
using streams::KernelLevel;
using streams::KernelTable;
using streams::SetOpResult;

namespace {

/** Sorted duplicate-free stream of n keys drawn below `universe`. */
std::vector<Key>
sortedStream(Rng &rng, std::size_t n, std::uint64_t universe)
{
    std::vector<Key> keys;
    keys.reserve(n + n / 4);
    while (keys.size() < n) {
        const std::size_t need = n - keys.size();
        for (std::size_t i = 0; i < need + need / 8 + 8; ++i)
            keys.push_back(static_cast<Key>(rng.below(universe)));
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    }
    keys.resize(n);
    return keys;
}

struct OpSpec
{
    const char *name;
    SetOpResult (*run)(const KernelTable &, streams::KeySpan,
                       streams::KeySpan, std::vector<Key> *);
};

SetOpResult
runIntersect(const KernelTable &kt, streams::KeySpan a,
             streams::KeySpan b, std::vector<Key> *out)
{
    return kt.intersect(a, b, noBound, out);
}

SetOpResult
runSubtract(const KernelTable &kt, streams::KeySpan a,
            streams::KeySpan b, std::vector<Key> *out)
{
    return kt.subtract(a, b, noBound, out);
}

SetOpResult
runMerge(const KernelTable &kt, streams::KeySpan a, streams::KeySpan b,
         std::vector<Key> *out)
{
    return kt.merge(a, b, out);
}

SetOpResult
runIntersectCount(const KernelTable &kt, streams::KeySpan a,
                  streams::KeySpan b, std::vector<Key> *)
{
    return kt.intersect(a, b, noBound, nullptr);
}

/** Median-free simple measurement: repeat the op over a ring of
 *  operand pairs until min_seconds elapses; report Melem/s over the
 *  total input elements consumed. */
double
measure(const KernelTable &kt, const OpSpec &op,
        const std::vector<std::vector<Key>> &as,
        const std::vector<std::vector<Key>> &bs, double min_seconds,
        std::uint64_t *checksum)
{
    std::vector<Key> out;
    out.reserve(as[0].size() + bs[0].size());
    std::uint64_t sum = 0, elems = 0;
    double seconds = 0;
    // One warm pass over the ring doubles as the checksum (a fixed
    // amount of work, so it is comparable across levels).
    for (std::size_t p = 0; p < as.size(); ++p) {
        out.clear();
        sum += op.run(kt, as[p], bs[p], &out).count;
    }
    *checksum = sum;
    std::uint64_t sink = 0;
    const bench::WallTimer total;
    while ((seconds = total.seconds()) < min_seconds) {
        for (std::size_t p = 0; p < as.size(); ++p) {
            out.clear();
            sink += op.run(kt, as[p], bs[p], &out).count;
            elems += as[p].size() + bs[p].size();
        }
    }
    if (sink == 0x5eedc0de)
        std::printf("\n"); // keep the timed calls observable
    return static_cast<double>(elems) / seconds / 1e6;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;

    const auto levels = streams::availableKernelLevels();
    std::printf("==== kernel microbench: host set-op kernels ====\n");
    std::printf("levels:");
    for (const KernelLevel level : levels)
        std::printf(" %s", streams::kernelLevelName(level));
    std::printf("  (SC_FORCE_KERNEL overrides the process default; "
                "this bench measures each level explicitly)\n\n");

    const std::vector<std::size_t> lengths =
        smoke ? std::vector<std::size_t>{4096}
              : std::vector<std::size_t>{256, 1024, 4096, 16384, 65536};
    const double min_seconds = smoke ? 0.02 : 0.2;
    const std::size_t ring = smoke ? 8 : 32;

    const OpSpec ops[] = {{"intersect", runIntersect},
                          {"intersect.C", runIntersectCount},
                          {"subtract", runSubtract},
                          {"merge", runMerge}};

    bench::BenchReport report("kernels", smoke);
    Table table({"op", "n", "kernel", "Melem/s", "speedup"});
    Rng rng(0xbe7c4);
    for (const std::size_t n : lengths) {
        // Universe 4n: ~25% hit rate, the dense-ish regime GPM streams
        // live in. Fresh operands per length, shared across levels.
        std::vector<std::vector<Key>> as, bs;
        for (std::size_t p = 0; p < ring; ++p) {
            as.push_back(sortedStream(rng, n, 4 * n));
            bs.push_back(sortedStream(rng, n, 4 * n));
        }
        for (const OpSpec &op : ops) {
            double scalar_rate = 0;
            std::uint64_t scalar_sum = 0;
            for (const KernelLevel level : levels) {
                std::uint64_t sum = 0;
                const double rate =
                    measure(streams::kernelsFor(level), op, as, bs,
                            min_seconds, &sum);
                if (level == KernelLevel::Scalar) {
                    scalar_rate = rate;
                    scalar_sum = sum;
                } else if (sum != scalar_sum) {
                    std::fprintf(stderr,
                                 "FAIL: %s n=%zu %s checksum "
                                 "mismatch\n",
                                 op.name, n,
                                 streams::kernelLevelName(level));
                    return 1;
                }
                table.addRow({op.name, std::to_string(n),
                              streams::kernelLevelName(level),
                              Table::num(rate, 1),
                              Table::speedup(rate / scalar_rate)});
            }
        }
    }
    report.emit("set-op kernel throughput (wall clock)", table);
    report.finish();
    return 0;
}
