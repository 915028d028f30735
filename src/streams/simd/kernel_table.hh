/**
 * @file
 * Runtime-dispatched host kernels for the stream set operations.
 *
 * The paper's Stream Units win by comparing keys 16 at a time
 * (§4.2, Fig. 6). The simulator's *functional* hot path — every
 * intersection/subtraction/merge the GPM executor, the stream-ISA
 * interpreter and the tensor kernels evaluate — mirrors that idea on
 * the host: a KernelTable holds one implementation per operation and
 * is selected once per process from CPUID (AVX2 > scalar),
 * overridable with SC_FORCE_KERNEL=scalar|avx2|auto or a
 * ScopedKernelOverride.
 *
 * Invariant (enforced by tests/kernel_table_test.cc): every kernel
 * level returns bit-identical outputs AND bit-identical SetOpResult
 * work summaries (count/steps/aConsumed/bConsumed). Simulated cycles
 * are computed from operand spans by the cost models
 * (streams::suCost, CpuBackend's merge loop) which never touch this
 * table, so kernel choice moves host wall-clock only — never a
 * single simulated cycle (DESIGN.md §10).
 */

#ifndef SPARSECORE_STREAMS_SIMD_KERNEL_TABLE_HH
#define SPARSECORE_STREAMS_SIMD_KERNEL_TABLE_HH

#include <optional>
#include <string_view>
#include <vector>

#include "streams/set_ops.hh"

namespace sc::streams {

/** Host instruction-set tier of a kernel implementation. */
enum class KernelLevel : unsigned { Scalar, Avx2 };

const char *kernelLevelName(KernelLevel level);

/** "scalar"|"avx2" -> level; anything else -> nullopt. */
std::optional<KernelLevel> parseKernelLevel(std::string_view name);

/**
 * One implementation of each stream set operation. Function pointers
 * (not virtuals): the table is resolved once and the indirect call
 * is the only per-op overhead.
 */
struct KernelTable
{
    /** Materializing or counting (out == nullptr) bounded set op. */
    using SetOpFn = SetOpResult (*)(KeySpan a, KeySpan b, Key bound,
                                    std::vector<Key> *out);
    /** Merge has no upper bound (S_MERGE takes no R3 operand). */
    using MergeFn = SetOpResult (*)(KeySpan a, KeySpan b,
                                    std::vector<Key> *out);

    KernelLevel level = KernelLevel::Scalar;
    SetOpFn intersect = nullptr;
    SetOpFn subtract = nullptr;
    MergeFn merge = nullptr;
};

/**
 * The table in effect for this call: an active ScopedKernelOverride
 * if present, else the process default (SC_FORCE_KERNEL or the best
 * level the CPU supports, resolved once on first use).
 */
const KernelTable &activeKernels();

/** True when `level` is both compiled in and supported by this CPU. */
bool kernelLevelAvailable(KernelLevel level);

/** All available levels, ascending (always contains Scalar). */
std::vector<KernelLevel> availableKernelLevels();

/** Table for an explicit level; fatal() if unavailable. */
const KernelTable &kernelsFor(KernelLevel level);

/**
 * RAII process-global kernel override (tests, RunOptions, parallel
 * mining). Nests; restores the previous override on destruction.
 * The override is process-wide so host pool threads executing a
 * parallel run observe it too — do not run two overridden workloads
 * with different levels concurrently.
 */
class ScopedKernelOverride
{
  public:
    explicit ScopedKernelOverride(KernelLevel level);
    ~ScopedKernelOverride();
    ScopedKernelOverride(const ScopedKernelOverride &) = delete;
    ScopedKernelOverride &operator=(const ScopedKernelOverride &) = delete;

  private:
    const KernelTable *prev_;
};

namespace simd {
/** Per-level tables (scalar always; AVX2 when compiled in). */
const KernelTable &scalarKernelTable();
#if defined(SPARSECORE_HAVE_X86_KERNELS)
const KernelTable &avx2KernelTable();
#endif
} // namespace simd

} // namespace sc::streams

#endif // SPARSECORE_STREAMS_SIMD_KERNEL_TABLE_HH
