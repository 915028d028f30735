/**
 * @file
 * Nested Intersection Translator model (§4.6).
 *
 * S_NESTINTER expands inside the processor into a per-element
 * sequence of micro-ops (S_READ, S_INTER.C, S_FREE, ADD). The
 * translator fetches each element's stream information (CSR offsets
 * through the GFRs) via the load queue, holds it in the translation
 * buffer, and inserts the micro-ops into the ROB as entries free up.
 *
 * The model produces, for each nested element, the cycle at which its
 * intersection micro-op is ready to issue; the engine then schedules
 * those intersections on the SUs.
 */

#ifndef SPARSECORE_ARCH_NEST_TRANSLATOR_HH
#define SPARSECORE_ARCH_NEST_TRANSLATOR_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "sim/mem_hierarchy.hh"

namespace sc::arch {

/** Translator parameters. */
struct NestTranslatorParams
{
    unsigned bufferEntries = 16; ///< translation buffer size
    unsigned elementsPerCycle = 1; ///< translation throughput
    unsigned infoLoadMlp = 8; ///< overlapped stream-info loads
};

/** The translator model. */
class NestTranslator
{
  public:
    explicit NestTranslator(const NestTranslatorParams &params);
    // Counter handles point into stats_: never copy one.
    NestTranslator(const NestTranslator &) = delete;
    NestTranslator &operator=(const NestTranslator &) = delete;

    /**
     * Expand one S_NESTINTER.
     * @param start cycle at which the instruction reaches the
     *        translator with its input stream available
     * @param info_addrs per-element stream-info addresses (CSR vertex
     *        array entries) fetched through the load queue
     * @param mem hierarchy used for the info loads
     * @return per-element cycles at which each generated S_INTER.C is
     *         ready to be scheduled; valid until the next translate()
     */
    const std::vector<Cycles> &
    translate(Cycles start, const std::vector<Addr> &info_addrs,
              sim::MemHierarchy &mem);

    const NestTranslatorParams &params() const { return params_; }
    const StatSet &stats() const { return stats_; }

  private:
    NestTranslatorParams params_;
    StatSet stats_{"nest_translator"};
    Counter &elements_;
    Counter &instructions_;
    /** translate()'s result, reused across calls. */
    std::vector<Cycles> ready_;
};

} // namespace sc::arch

#endif // SPARSECORE_ARCH_NEST_TRANSLATOR_HH
