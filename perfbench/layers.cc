#include "layers.hh"

#include "common/json.hh"
#include "sim/mem_hierarchy.hh"

namespace scperf {

namespace {

/** Written after each probe loop so the timed work stays observable. */
volatile sc::Cycles probeSink = 0;

} // namespace

using sc::backend::BackendStream;
using sc::streams::KeySpan;

int
SpanLog::open(std::string name, int job, int phase)
{
    Span span;
    span.name = std::move(name);
    span.start = nowNs();
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.job = job;
    span.phase = phase;
    spans_.push_back(std::move(span));
    const int index = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(index);
    return index;
}

void
SpanLog::close(int index)
{
    spans_[index].end = nowNs();
    // Scopes nest strictly, so the closing span is the innermost.
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

int
SpanLog::add(std::string name, std::int64_t start, std::int64_t end,
             int parent, int job, int phase)
{
    spans_.push_back({std::move(name), start, end, parent, job, phase});
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<std::int64_t>
SpanLog::selfTimes() const
{
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    for (const Span &span : spans_)
        if (span.parent >= 0)
            self[span.parent] -= span.end - span.start;
    return self;
}

std::string
SpanLog::chromeTrace() const
{
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start;
    sc::JsonValue events = sc::JsonValue::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        sc::JsonValue ev = sc::JsonValue::object();
        ev.set("name", sc::JsonValue::str(span.name));
        ev.set("ph", sc::JsonValue::str("X"));
        ev.set("ts", sc::JsonValue::number(
                         static_cast<double>(span.start - origin) / 1e3));
        ev.set("dur", sc::JsonValue::number(
                          static_cast<double>(span.end - span.start) /
                          1e3));
        ev.set("pid", sc::JsonValue::number(std::int64_t{span.phase}));
        ev.set("tid", sc::JsonValue::number(std::int64_t{0}));
        sc::JsonValue args = sc::JsonValue::object();
        args.set("job", sc::JsonValue::number(std::int64_t{span.job}));
        args.set("span", sc::JsonValue::number(
                             static_cast<std::int64_t>(i)));
        args.set("parent",
                 sc::JsonValue::number(std::int64_t{span.parent}));
        ev.set("args", std::move(args));
        events.push(std::move(ev));
    }
    sc::JsonValue out = sc::JsonValue::object();
    out.set("traceEvents", std::move(events));
    out.set("displayTimeUnit", sc::JsonValue::str("ms"));
    return out.dump();
}

const char *
hookName(Hook hook)
{
    switch (hook) {
      case Setop:
        return "setop";
      case Stream:
        return "stream";
      case ValueOp:
        return "value";
      case Scalar:
        return "scalar";
      case Nested:
        return "nested";
      case NumHooks:
        break;
    }
    return "?";
}

namespace {

/** Adds one call and its duration to a hook group. */
class HookTimer
{
  public:
    HookTimer(HookStats &stats, Hook hook)
        : stats_(stats), hook_(hook), start_(nowNs())
    {
    }
    ~HookTimer()
    {
        stats_.ns[hook_] += nowNs() - start_;
        ++stats_.calls[hook_];
    }
    HookTimer(const HookTimer &) = delete;
    HookTimer &operator=(const HookTimer &) = delete;

  private:
    HookStats &stats_;
    Hook hook_;
    std::int64_t start_;
};

} // namespace

void
TimingBackend::scalarOps(std::uint64_t n)
{
    HookTimer t(stats_, Scalar);
    inner_.scalarOps(n);
}

void
TimingBackend::scalarBranch(std::uint64_t pc, bool taken)
{
    HookTimer t(stats_, Scalar);
    inner_.scalarBranch(pc, taken);
}

void
TimingBackend::scalarLoad(sc::Addr addr)
{
    if (samples_ &&
        samples_->scalarLoads.size() < ProbeSamples::maxScalarLoads)
        samples_->scalarLoads.push_back(addr);
    HookTimer t(stats_, Scalar);
    inner_.scalarLoad(addr);
}

BackendStream
TimingBackend::streamLoad(sc::Addr key_addr, std::uint32_t length,
                          unsigned priority, KeySpan keys)
{
    HookTimer t(stats_, Stream);
    return inner_.streamLoad(key_addr, length, priority, keys);
}

BackendStream
TimingBackend::streamLoadKv(sc::Addr key_addr, sc::Addr val_addr,
                            std::uint32_t length, unsigned priority,
                            KeySpan keys)
{
    HookTimer t(stats_, Stream);
    return inner_.streamLoadKv(key_addr, val_addr, length, priority, keys);
}

void
TimingBackend::streamFree(BackendStream handle)
{
    HookTimer t(stats_, Stream);
    inner_.streamFree(handle);
}

void
TimingBackend::recordSetOp(sc::streams::SetOpKind kind, KeySpan ak,
                           KeySpan bk, sc::Key bound)
{
    if (!samples_ || samples_->setOps.size() >= ProbeSamples::maxSetOps ||
        samples_->setOpKeys + ak.size() + bk.size() >
            ProbeSamples::maxSetOpKeys)
        return;
    samples_->setOpKeys += ak.size() + bk.size();
    samples_->setOps.push_back({kind, {ak.begin(), ak.end()},
                                {bk.begin(), bk.end()}, bound});
}

BackendStream
TimingBackend::setOp(sc::streams::SetOpKind kind, BackendStream a,
                     BackendStream b, KeySpan ak, KeySpan bk, sc::Key bound,
                     KeySpan result, sc::Addr out_addr)
{
    recordSetOp(kind, ak, bk, bound);
    HookTimer t(stats_, Setop);
    return inner_.setOp(kind, a, b, ak, bk, bound, result, out_addr);
}

void
TimingBackend::setOpCount(sc::streams::SetOpKind kind, BackendStream a,
                          BackendStream b, KeySpan ak, KeySpan bk,
                          sc::Key bound, std::uint64_t count)
{
    recordSetOp(kind, ak, bk, bound);
    HookTimer t(stats_, Setop);
    inner_.setOpCount(kind, a, b, ak, bk, bound, count);
}

void
TimingBackend::valueIntersect(BackendStream a, BackendStream b, KeySpan ak,
                              KeySpan bk, sc::Addr a_val_base,
                              sc::Addr b_val_base,
                              std::span<const std::uint32_t> match_a,
                              std::span<const std::uint32_t> match_b)
{
    HookTimer t(stats_, ValueOp);
    inner_.valueIntersect(a, b, ak, bk, a_val_base, b_val_base, match_a,
                          match_b);
}

void
TimingBackend::denseValueIntersect(BackendStream a, BackendStream b,
                                   KeySpan ak, KeySpan bk,
                                   sc::Addr a_val_base, sc::Addr b_val_base,
                                   std::span<const std::uint32_t> match_a,
                                   std::span<const std::uint32_t> match_b)
{
    HookTimer t(stats_, ValueOp);
    inner_.denseValueIntersect(a, b, ak, bk, a_val_base, b_val_base,
                               match_a, match_b);
}

BackendStream
TimingBackend::valueMerge(BackendStream a, BackendStream b, KeySpan ak,
                          KeySpan bk, sc::Addr a_val_base,
                          sc::Addr b_val_base, std::uint64_t result_len,
                          sc::Addr out_addr)
{
    HookTimer t(stats_, ValueOp);
    return inner_.valueMerge(a, b, ak, bk, a_val_base, b_val_base,
                             result_len, out_addr);
}

void
TimingBackend::nestedIntersect(
    BackendStream s, KeySpan s_keys,
    const std::vector<sc::backend::NestedItem> &elems)
{
    HookTimer t(stats_, Nested);
    inner_.nestedIntersect(s, s_keys, elems);
}

void
TimingBackend::consumeStream(BackendStream handle)
{
    HookTimer t(stats_, Stream);
    inner_.consumeStream(handle);
}

void
TimingBackend::iterateStream(BackendStream handle, std::uint64_t n,
                             unsigned ops_per_element)
{
    HookTimer t(stats_, Stream);
    inner_.iterateStream(handle, n, ops_per_element);
}

double
probeSuCost(const ProbeSamples &samples, unsigned su_window)
{
    if (samples.setOps.empty())
        return 0;
    // Repeat the whole sample until ~2M calls or 0.2 s, whichever
    // comes first, so small samples still time above clock noise.
    sc::Cycles sink = 0;
    std::uint64_t calls = 0;
    const std::int64_t start = nowNs();
    do {
        for (const ProbeSamples::SetOp &op : samples.setOps)
            sink += sc::streams::suCost(KeySpan(op.a), KeySpan(op.b),
                                        op.kind, op.bound, su_window)
                        .cycles;
        calls += samples.setOps.size();
    } while (calls < 2000000 && nowNs() - start < 200000000);
    const double ns = static_cast<double>(nowNs() - start);
    probeSink = sink;
    return ns / static_cast<double>(calls);
}

MemProbe
probeMemHierarchy(const ProbeSamples &samples)
{
    MemProbe out;
    if (samples.scalarLoads.empty())
        return out;
    sc::sim::MemHierarchy mem;
    sc::Cycles sink = 0;
    const std::int64_t start = nowNs();
    for (const sc::Addr addr : samples.scalarLoads)
        sink += mem.l1Access(addr);
    out.accessNs = static_cast<double>(nowNs() - start) /
                   static_cast<double>(samples.scalarLoads.size());
    probeSink = sink;
    const auto ratio = [](const sc::sim::Cache &cache) {
        const double total =
            static_cast<double>(cache.hits() + cache.misses());
        return total > 0 ? static_cast<double>(cache.misses()) / total : 0;
    };
    out.l1MissRatio = ratio(mem.l1());
    out.l2MissRatio = ratio(mem.l2());
    out.l3MissRatio = ratio(mem.l3());
    return out;
}

} // namespace scperf
