#include "trace/su_cost_table.hh"

namespace sc::trace {

namespace {

using streams::SetOpKind;

/** walkBytecode handler appending one packed cost per SU-scheduled
 *  operation, in the order the engine requests them. */
struct SuCostCollector
{
    const BytecodeProgram &bc;
    unsigned width;
    std::vector<streams::PackedSuCost> &out;

    void
    add(streams::KeySpan a, streams::KeySpan b, SetOpKind kind,
        Key bound)
    {
        out.push_back(
            streams::packSuCost(streams::suCost(a, b, kind, bound, width)));
    }

    void scalarOps(std::uint64_t, std::uint32_t) {}
    void scalarBranch(std::uint64_t, bool) {}
    void scalarLoad(Addr) {}
    void streamLoad(TraceStream, Addr, std::uint64_t, std::uint8_t,
                    SpanRef)
    {
    }
    void streamLoadKv(TraceStream, Addr, Addr, std::uint64_t,
                      std::uint8_t, SpanRef)
    {
    }
    void streamFree(TraceStream) {}
    void
    setOp(TraceStream, std::uint8_t kind, TraceStream, TraceStream,
          SpanRef s0, SpanRef s1, Key bound, SpanRef, Addr)
    {
        add(bc.span(s0), bc.span(s1), static_cast<SetOpKind>(kind),
            bound);
    }
    void
    setOpCount(std::uint8_t kind, TraceStream, TraceStream, SpanRef s0,
               SpanRef s1, Key bound, std::uint64_t)
    {
        add(bc.span(s0), bc.span(s1), static_cast<SetOpKind>(kind),
            bound);
    }
    void
    valueIntersect(bool, TraceStream, TraceStream, SpanRef s0,
                   SpanRef s1, Addr, Addr, SpanRef, SpanRef)
    {
        add(bc.span(s0), bc.span(s1), SetOpKind::Intersect, noBound);
    }
    void
    valueMerge(TraceStream, TraceStream, TraceStream, SpanRef s0,
               SpanRef s1, Addr, Addr, std::uint64_t, Addr)
    {
        add(bc.span(s0), bc.span(s1), SetOpKind::Merge, noBound);
    }
    void
    nestedGroup(TraceStream, SpanRef s0, std::uint64_t index,
                std::uint32_t count)
    {
        const streams::KeySpan keys = bc.span(s0);
        for (std::uint32_t i = 0; i < count; ++i) {
            const NestedEntry &entry = bc.nestedEntry(index + i);
            add(keys, bc.span(entry.nested), SetOpKind::Intersect,
                entry.bound);
        }
    }
    void consumeStream(TraceStream) {}
    void iterateStream(TraceStream, std::uint64_t, std::uint8_t) {}
};

} // namespace

std::size_t
suCostCount(const BytecodeProgram &program)
{
    const EventProfile &p = program.profile();
    std::uint64_t n = p.valueIntersects + p.valueMerges + p.nestedElements;
    for (std::size_t k = 0; k < EventProfile::numSetOpKinds; ++k)
        n += p.setOps[k] + p.setOpCounts[k];
    return static_cast<std::size_t>(n);
}

streams::SuCostTable
suCostTable(const BytecodeProgram &program, unsigned width)
{
    streams::SuCostTable table;
    table.width = width;
    const std::size_t expected = suCostCount(program);
    table.entries.reserve(expected);
    walkBytecode(program, SuCostCollector{program, width, table.entries});
    if (table.entries.size() != expected)
        panic("SU-cost table holds %zu entries, the profile counts %zu",
              table.entries.size(), expected);
    return table;
}

} // namespace sc::trace
