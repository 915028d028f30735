#include "arch/smt.hh"

#include "common/logging.hh"

namespace sc::arch {

Smt::Smt(unsigned num_entries)
    : entries_(num_entries), defines_(stats_.counter("defines")),
      redefines_(stats_.counter("redefines")),
      allocStalls_(stats_.counter("allocStalls")),
      frees_(stats_.counter("frees")), spills_(stats_.counter("spills"))
{
    if (num_entries == 0)
        fatal("SMT requires at least one entry");
    for (unsigned i = 0; i < num_entries; ++i)
        entries_[i].sreg = i;
}

std::optional<unsigned>
Smt::define(std::uint64_t sid)
{
    if (const auto found = lookup(sid)) {
        // §3.3: re-defining an active sid overwrites the mapping.
        SmtEntry &e = entries_[*found];
        e.start = e.produced = false;
        e.pred0 = e.pred1 = noPred;
        ++redefines_;
        return found;
    }
    for (unsigned i = 0; i < entries_.size(); ++i) {
        if (!entries_[i].va) {
            SmtEntry &e = entries_[i];
            e.sid = sid;
            e.vd = e.va = true;
            e.start = e.produced = false;
            e.pred0 = e.pred1 = noPred;
            ++defines_;
            return i;
        }
    }
    ++allocStalls_;
    return std::nullopt;
}

void
Smt::decodeFree(std::uint64_t sid)
{
    const auto found = lookup(sid);
    if (!found)
        panic("S_FREE of undefined stream id %llu",
              static_cast<unsigned long long>(sid));
    entries_[*found].vd = false;
    ++frees_;
}

void
Smt::retireFree(unsigned entry_index)
{
    SmtEntry &e = entry(entry_index);
    if (e.vd)
        panic("retiring S_FREE for an entry still defined");
    e.va = false;
    e.start = e.produced = false;
}

unsigned
Smt::spillOne()
{
    for (unsigned i = 0; i < entries_.size(); ++i) {
        if (entries_[i].va) {
            entries_[i].va = false;
            entries_[i].vd = false;
            ++spills_;
            return i;
        }
    }
    panic("spillOne called on an empty SMT");
}

std::optional<unsigned>
Smt::lookup(std::uint64_t sid) const
{
    // At most one defined entry carries a sid: define() overwrites a
    // defined sid's own entry instead of mapping a second one.
    for (unsigned i = 0; i < entries_.size(); ++i)
        if (entries_[i].vd && entries_[i].sid == sid)
            return i;
    return std::nullopt;
}

SmtEntry &
Smt::entry(unsigned index)
{
    if (index >= entries_.size())
        panic("SMT entry index %u out of range", index);
    return entries_[index];
}

const SmtEntry &
Smt::entry(unsigned index) const
{
    return const_cast<Smt *>(this)->entry(index);
}

unsigned
Smt::activeCount() const
{
    unsigned count = 0;
    for (const auto &e : entries_)
        if (e.va)
            ++count;
    return count;
}

} // namespace sc::arch
