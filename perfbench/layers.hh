/**
 * @file
 * Outside-in instrumentation for the scperf benchmark: an in-memory
 * span log, an ExecBackend decorator that times every backend hook,
 * a no-op backend for the bytecode dispatch floor, and the probes
 * that re-drive single layers (streams::suCost, sim::MemHierarchy)
 * with operands recorded during replay.
 *
 * Nothing here reaches inside the library: spans wrap calls into the
 * public API, and the decorator forwards every call unchanged, so a
 * decorated replay reports the same cycles as an undecorated one
 * (the benchmark checks this replay by replay). A decorated or no-op
 * backend is not one of the concrete classes trace::replayCompiled
 * devirtualizes for, so replays onto them take its generic loop:
 * they are probes beside the job path, never the job path itself.
 */

#ifndef SCPERF_LAYERS_HH
#define SCPERF_LAYERS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "backend/exec_backend.hh"
#include "common/types.hh"
#include "streams/set_ops.hh"

namespace scperf {

/** Monotonic nanoseconds since an arbitrary epoch. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One recorded span: a named interval with its causing span. */
struct Span
{
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1; ///< index into SpanLog::spans(), -1 = root
    int job = -1;    ///< job id shared by every span of one job
    int phase = 0;   ///< 1 = queue loop, 2 = layer pipeline
};

/**
 * Spans kept in memory, written once at exit. Single-threaded: every
 * span is opened and closed on the benchmark's submitting thread.
 */
class SpanLog
{
  public:
    int open(std::string name, int job, int phase);
    void close(int index);
    void rename(int index, std::string name) { spans_[index].name = name; }
    void setEnd(int index, std::int64_t end) { spans_[index].end = end; }
    /** Record an already-finished span (overlapping work that a
     *  stack of scopes cannot express, e.g. jobs in flight). */
    int add(std::string name, std::int64_t start, std::int64_t end,
            int parent, int job, int phase);

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration minus the time covered by direct children. */
    std::vector<std::int64_t> selfTimes() const;

    /** Chrome trace-event JSON ("X" events, microseconds). */
    std::string chromeTrace() const;

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; a null log records nothing. */
class Scope
{
  public:
    Scope(SpanLog *log, std::string name, int job, int phase)
        : log_(log),
          index_(log ? log->open(std::move(name), job, phase) : -1)
    {
    }
    ~Scope()
    {
        if (log_)
            log_->close(index_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void
    rename(std::string name)
    {
        if (log_)
            log_->rename(index_, std::move(name));
    }

  private:
    SpanLog *log_;
    int index_;
};

/** Backend hook groups the decorator apportions replay time to. */
enum Hook : unsigned { Setop, Stream, ValueOp, Scalar, Nested, NumHooks };

const char *hookName(Hook hook);

/** Per-substrate hook counters: calls and inclusive nanoseconds. */
struct HookStats
{
    std::array<std::uint64_t, NumHooks> calls{};
    std::array<std::int64_t, NumHooks> ns{};
};

/** Operands recorded during replay for the single-layer probes. */
struct ProbeSamples
{
    struct SetOp
    {
        sc::streams::SetOpKind kind;
        std::vector<sc::Key> a;
        std::vector<sc::Key> b;
        sc::Key bound;
    };
    std::vector<SetOp> setOps;          ///< replayed set operations
    std::vector<sc::Addr> scalarLoads;  ///< replayed scalar-load addresses
    std::size_t setOpKeys = 0;          ///< keys copied so far

    static constexpr std::size_t maxSetOps = 20000;
    static constexpr std::size_t maxSetOpKeys = std::size_t{1} << 21;
    static constexpr std::size_t maxScalarLoads = 200000;
};

/**
 * Times every ExecBackend call on the wrapped backend and forwards
 * it unchanged. Nested intersections count as one call: the inner
 * backend's own lowering stays inside it. begin/finish/breakdown are
 * forwarded untimed (they fall into the decorated replay's time
 * outside every hook, with decode and dispatch).
 */
class TimingBackend final : public sc::backend::ExecBackend
{
  public:
    TimingBackend(sc::backend::ExecBackend &inner, HookStats &stats,
                  ProbeSamples *samples)
        : inner_(inner), stats_(stats), samples_(samples)
    {
    }

    std::string name() const override { return inner_.name(); }
    void begin() override { inner_.begin(); }
    sc::Cycles finish() override { return inner_.finish(); }
    sc::sim::CycleBreakdown
    breakdown() const override
    {
        return inner_.breakdown();
    }
    Caps caps() const override { return inner_.caps(); }

    void scalarOps(std::uint64_t n) override;
    void scalarBranch(std::uint64_t pc, bool taken) override;
    void scalarLoad(sc::Addr addr) override;

    sc::backend::BackendStream
    streamLoad(sc::Addr key_addr, std::uint32_t length, unsigned priority,
               sc::streams::KeySpan keys) override;
    sc::backend::BackendStream
    streamLoadKv(sc::Addr key_addr, sc::Addr val_addr,
                 std::uint32_t length, unsigned priority,
                 sc::streams::KeySpan keys) override;
    void streamFree(sc::backend::BackendStream handle) override;

    sc::backend::BackendStream
    setOp(sc::streams::SetOpKind kind, sc::backend::BackendStream a,
          sc::backend::BackendStream b, sc::streams::KeySpan ak,
          sc::streams::KeySpan bk, sc::Key bound,
          sc::streams::KeySpan result, sc::Addr out_addr) override;
    void setOpCount(sc::streams::SetOpKind kind,
                    sc::backend::BackendStream a,
                    sc::backend::BackendStream b, sc::streams::KeySpan ak,
                    sc::streams::KeySpan bk, sc::Key bound,
                    std::uint64_t count) override;

    void valueIntersect(sc::backend::BackendStream a,
                        sc::backend::BackendStream b,
                        sc::streams::KeySpan ak, sc::streams::KeySpan bk,
                        sc::Addr a_val_base, sc::Addr b_val_base,
                        std::span<const std::uint32_t> match_a,
                        std::span<const std::uint32_t> match_b) override;
    void denseValueIntersect(
        sc::backend::BackendStream a, sc::backend::BackendStream b,
        sc::streams::KeySpan ak, sc::streams::KeySpan bk,
        sc::Addr a_val_base, sc::Addr b_val_base,
        std::span<const std::uint32_t> match_a,
        std::span<const std::uint32_t> match_b) override;
    sc::backend::BackendStream
    valueMerge(sc::backend::BackendStream a, sc::backend::BackendStream b,
               sc::streams::KeySpan ak, sc::streams::KeySpan bk,
               sc::Addr a_val_base, sc::Addr b_val_base,
               std::uint64_t result_len, sc::Addr out_addr) override;

    void nestedIntersect(
        sc::backend::BackendStream s, sc::streams::KeySpan s_keys,
        const std::vector<sc::backend::NestedItem> &elems) override;

    void consumeStream(sc::backend::BackendStream handle) override;
    void iterateStream(sc::backend::BackendStream handle, std::uint64_t n,
                       unsigned ops_per_element) override;

  private:
    void recordSetOp(sc::streams::SetOpKind kind, sc::streams::KeySpan ak,
                     sc::streams::KeySpan bk, sc::Key bound);

    sc::backend::ExecBackend &inner_;
    HookStats &stats_;
    ProbeSamples *samples_;
};

/**
 * A backend that does no work: replaying onto it measures the
 * bytecode decode/dispatch floor of trace::replayCompiled.
 */
class NullBackend final : public sc::backend::ExecBackend
{
  public:
    std::string name() const override { return "null"; }
    sc::Cycles finish() override { return 0; }
    sc::sim::CycleBreakdown breakdown() const override { return {}; }
    Caps
    caps() const override
    {
        Caps caps;
        caps.nested = true;
        return caps;
    }

    sc::backend::BackendStream
    streamLoad(sc::Addr, std::uint32_t, unsigned,
               sc::streams::KeySpan) override
    {
        return next_++;
    }
    sc::backend::BackendStream
    streamLoadKv(sc::Addr, sc::Addr, std::uint32_t, unsigned,
                 sc::streams::KeySpan) override
    {
        return next_++;
    }
    void streamFree(sc::backend::BackendStream) override {}
    sc::backend::BackendStream
    setOp(sc::streams::SetOpKind, sc::backend::BackendStream,
          sc::backend::BackendStream, sc::streams::KeySpan,
          sc::streams::KeySpan, sc::Key, sc::streams::KeySpan,
          sc::Addr) override
    {
        return next_++;
    }
    void setOpCount(sc::streams::SetOpKind, sc::backend::BackendStream,
                    sc::backend::BackendStream, sc::streams::KeySpan,
                    sc::streams::KeySpan, sc::Key, std::uint64_t) override
    {
    }
    void valueIntersect(sc::backend::BackendStream,
                        sc::backend::BackendStream, sc::streams::KeySpan,
                        sc::streams::KeySpan, sc::Addr, sc::Addr,
                        std::span<const std::uint32_t>,
                        std::span<const std::uint32_t>) override
    {
    }
    sc::backend::BackendStream
    valueMerge(sc::backend::BackendStream, sc::backend::BackendStream,
               sc::streams::KeySpan, sc::streams::KeySpan, sc::Addr,
               sc::Addr, std::uint64_t, sc::Addr) override
    {
        return next_++;
    }
    void nestedIntersect(sc::backend::BackendStream, sc::streams::KeySpan,
                         const std::vector<sc::backend::NestedItem> &)
        override
    {
    }

  private:
    sc::backend::BackendStream next_ = 0;
};

/** Result of re-driving sim::MemHierarchy with recorded loads. */
struct MemProbe
{
    double accessNs = 0;
    double l1MissRatio = 0;
    double l2MissRatio = 0;
    double l3MissRatio = 0;
};

/** Mean nanoseconds per streams::suCost call over the samples. */
double probeSuCost(const ProbeSamples &samples, unsigned su_window);

/** Re-drive a fresh default MemHierarchy with the recorded loads. */
MemProbe probeMemHierarchy(const ProbeSamples &samples);

} // namespace scperf

#endif // SCPERF_LAYERS_HH
