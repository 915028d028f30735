#include "arch/nest_translator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sc::arch {

NestTranslator::NestTranslator(const NestTranslatorParams &params)
    : params_(params), elements_(stats_.counter("elements")),
      instructions_(stats_.counter("instructions"))
{
    if (params.bufferEntries == 0 || params.elementsPerCycle == 0 ||
        params.infoLoadMlp == 0) {
        fatal("nested-intersection translator parameters must be "
              "positive");
    }
}

const std::vector<Cycles> &
NestTranslator::translate(Cycles start,
                          const std::vector<Addr> &info_addrs,
                          sim::MemHierarchy &mem)
{
    ready_.resize(info_addrs.size());
    Cycles info_pipe = start;

    for (std::size_t i = 0; i < info_addrs.size(); ++i) {
        // Stream-info load through the load queue; loads overlap up
        // to infoLoadMlp, modeled as a pipeline advancing by
        // latency/mlp per element.
        const Cycles latency = mem.l1Access(info_addrs[i]);
        info_pipe += std::max<Cycles>(
            1, latency / params_.infoLoadMlp);

        // The translation buffer holds bufferEntries in-flight
        // elements: element i may begin translating only after
        // element i - bufferEntries has drained (its micro-ops
        // inserted). The S_INTER.C itself executes later on an SU,
        // but the buffer entry is released at insertion (§4.6: ROB
        // retirement and refills release the space independently),
        // so an element drains at the cycle it is ready.
        Cycles slot_free = start;
        if (i >= params_.bufferEntries)
            slot_free = ready_[i - params_.bufferEntries];

        // Translation itself takes one cycle per elementsPerCycle
        // group; with the default of one element per cycle this is a
        // one-cycle step.
        const Cycles trans_step =
            (i % params_.elementsPerCycle == 0) ? 1 : 0;
        ready_[i] = std::max(info_pipe, slot_free) + trans_step;
        ++elements_;
    }
    instructions_ += info_addrs.size() * 3 + 1;
    return ready_;
}

} // namespace sc::arch
