#include "backend/sparsecore_backend.hh"

#include <utility>

#include "common/logging.hh"

namespace sc::backend {

SparseCoreBackend::SparseCoreBackend(
    const arch::SparseCoreConfig &config,
    std::shared_ptr<const streams::SuCostTable> su_costs)
    : config_(config), suCosts_(std::move(su_costs))
{
    if (suCosts_ && suCosts_->width != config_.suWindow)
        panic("SU-cost table built for window %u, engine window is %u",
              suCosts_->width, config_.suWindow);
}

void
SparseCoreBackend::begin()
{
    // The engine owns a whole cache hierarchy, so it is built here
    // only, once per replay; dropping the old one first keeps two
    // hierarchies from ever coexisting.
    engine_.reset();
    engine_ = std::make_unique<arch::Engine>(config_);
    if (suCosts_)
        engine_->attachSuCosts(suCosts_->entries);
}

Cycles
SparseCoreBackend::finish()
{
    return engine_->finish();
}

sim::CycleBreakdown
SparseCoreBackend::breakdown() const
{
    return engine_->breakdown();
}

void
SparseCoreBackend::scalarOps(std::uint64_t n)
{
    engine_->scalarOps(n);
}

void
SparseCoreBackend::scalarBranch(std::uint64_t pc, bool taken)
{
    engine_->scalarBranch(pc, taken);
}

void
SparseCoreBackend::scalarLoad(Addr addr)
{
    engine_->scalarLoad(addr);
}

BackendStream
SparseCoreBackend::streamLoad(Addr key_addr, std::uint32_t length,
                              unsigned priority, streams::KeySpan keys)
{
    return engine_->streamRead(key_addr, length, priority, keys);
}

BackendStream
SparseCoreBackend::streamLoadKv(Addr key_addr, Addr val_addr,
                                std::uint32_t length, unsigned priority,
                                streams::KeySpan keys)
{
    return engine_->streamReadKv(key_addr, val_addr, length, priority,
                                 keys);
}

void
SparseCoreBackend::streamFree(BackendStream handle)
{
    engine_->streamFree(handle);
}

BackendStream
SparseCoreBackend::setOp(streams::SetOpKind kind, BackendStream a,
                         BackendStream b, streams::KeySpan ak,
                         streams::KeySpan bk, Key bound,
                         streams::KeySpan result, Addr)
{
    return engine_->setOp(kind, a, b, ak, bk, bound, result.size());
}

void
SparseCoreBackend::setOpCount(streams::SetOpKind kind, BackendStream a,
                              BackendStream b, streams::KeySpan ak,
                              streams::KeySpan bk, Key bound,
                              std::uint64_t)
{
    engine_->setOpCount(kind, a, b, ak, bk, bound);
}

void
SparseCoreBackend::valueIntersect(BackendStream a, BackendStream b,
                                  streams::KeySpan ak,
                                  streams::KeySpan bk, Addr a_val_base,
                                  Addr b_val_base,
                                  std::span<const std::uint32_t> match_a,
                                  std::span<const std::uint32_t> match_b)
{
    std::vector<Addr> addrs_a(match_a.size()), addrs_b(match_b.size());
    for (std::size_t i = 0; i < match_a.size(); ++i)
        addrs_a[i] = a_val_base + match_a[i] * sizeof(Value);
    for (std::size_t i = 0; i < match_b.size(); ++i)
        addrs_b[i] = b_val_base + match_b[i] * sizeof(Value);
    engine_->valueIntersect(a, b, ak, bk, addrs_a, addrs_b);
}

BackendStream
SparseCoreBackend::valueMerge(BackendStream a, BackendStream b,
                              streams::KeySpan ak, streams::KeySpan bk,
                              Addr a_val_base, Addr b_val_base,
                              std::uint64_t result_len, Addr)
{
    return engine_->valueMerge(a, b, ak, bk, a_val_base, b_val_base,
                               result_len);
}

void
SparseCoreBackend::nestedIntersect(BackendStream s,
                                   streams::KeySpan s_keys,
                                   const std::vector<NestedItem> &elems)
{
    if (!caps().nested) {
        // Design without S_NESTINTER (TS/4CS/5CS): run the lowered
        // per-element loop.
        ExecBackend::nestedIntersect(s, s_keys, elems);
        return;
    }
    nestedElems_.clear();
    for (const auto &elem : elems)
        nestedElems_.push_back(
            {elem.infoAddr, elem.keyAddr, elem.nested, elem.bound});
    engine_->nestedIntersect(s, s_keys, nestedElems_);
    scalarOps(1); // copy acc_reg to the destination
}

void
SparseCoreBackend::consumeStream(BackendStream handle)
{
    engine_->waitFor(handle);
}

void
SparseCoreBackend::iterateStream(BackendStream handle, std::uint64_t n,
                                 unsigned ops_per_element)
{
    engine_->fetchLoop(handle, n, ops_per_element);
}

} // namespace sc::backend
