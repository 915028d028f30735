#include "analysis/summary.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "arch/config.hh"
#include "arch/smt.hh"
#include "trace/bytecode.hh"

namespace sc::analysis {

namespace {

using streams::KeySpan;
using streams::SetOpKind;
using trace::Event;
using trace::EventKind;

constexpr std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return b == 0 ? a : (a + b - 1) / b;
}

/** Resolved nested element — the adapters flatten both trace forms
 *  (Trace::nestedEntry, BytecodeProgram::nestedEntry) to this. */
struct NestedRef
{
    Addr keyAddr = 0;
    KeySpan nested;
    Key bound = noBound;
};

/** Handle of an engine stream with no trace handle (the lowered
 *  nested loop's temporaries). */
constexpr std::uint64_t kNoHandle = ~std::uint64_t{0};

/**
 * The config-free pressure walk, one call per source event in replay
 * order (the same interface SummaryAccum exposes, so both walkers
 * drive either). Pressure is the concrete live count of the event
 * walk, counted exactly as StreamLifetimeChecker does (sentinel
 * handles ignored, redefines keep the count, frees of unknown
 * handles are no-ops). The point index is the source event index;
 * a run-length scalar record advances it by its repeat count.
 */
class PressureWalk
{
  public:
    void scalarOps(std::uint64_t, std::uint32_t repeat) { pc_ += repeat; }
    void scalarBranch() { ++pc_; }
    void scalarLoad() { ++pc_; }

    void
    streamLoad(std::uint64_t handle, Addr, std::uint64_t, bool)
    {
        define(handle);
    }

    void
    streamFree(std::uint64_t handle)
    {
        ++summary_.frees;
        if (!ignoredHandle(handle)) {
            const auto it = liveSet_.find(handle);
            if (it != liveSet_.end() && it->second) {
                it->second = false;
                --live_;
            }
        }
        ++pc_;
    }

    void
    setOp(std::uint64_t handle, SetOpKind, KeySpan, KeySpan, Key,
          std::uint64_t)
    {
        define(handle);
    }

    void setOpCount(SetOpKind, KeySpan, KeySpan, Key) { ++pc_; }
    void valueIntersect(KeySpan, KeySpan, std::uint64_t) { ++pc_; }

    void
    valueMerge(std::uint64_t handle, KeySpan, KeySpan, bool, bool,
               std::uint64_t)
    {
        define(handle);
    }

    void nestedGroup(KeySpan, const std::vector<NestedRef> &) { ++pc_; }
    void consumeStream() { ++pc_; }
    void iterateStream(std::uint64_t, unsigned) { ++pc_; }

    PressureSummary
    finish() &&
    {
        summary_.points = pc_;
        return std::move(summary_);
    }

  private:
    static bool
    ignoredHandle(std::uint64_t handle)
    {
        return handle == kNoHandle || handle == trace::noTraceStream;
    }

    /** A stream-defining event: loads and producing ops. */
    void
    define(std::uint64_t handle)
    {
        ++summary_.defines;
        if (!ignoredHandle(handle)) {
            const auto it = liveSet_.find(handle);
            if (it == liveSet_.end() || !it->second)
                ++live_;
            liveSet_[handle] = true;
            if (live_ > summary_.maxPressure) {
                summary_.maxPressure = live_;
                summary_.maxPressurePc = pc_;
                summary_.profile.push_back({pc_, live_});
            }
        }
        ++pc_;
    }

    std::map<std::uint64_t, bool> liveSet_;
    unsigned live_ = 0;
    std::uint64_t pc_ = 0;
    PressureSummary summary_;
};

/**
 * The cost accumulator both walkers drive, one call per source event
 * in replay order; each call also feeds a PressureWalk, so the
 * summary's pressure is exactly summarizePressure()'s.
 *
 * Cost mirrors arch::Engine charge by charge (engine.cc is the
 * ground truth; every formula below cites its path):
 *
 *  Lower bound = max of four independently-sound resource bounds:
 *   - scalar: the deterministic executeOps issue cycles every event
 *     charges regardless of cache/predictor state,
 *   - SU: total SU busy time sum(suPipelineLatency + suCost.cycles)
 *     spread over numSus (occupy intervals are disjoint per SU and
 *     finish() drains to the last completion),
 *   - bandwidth: the fluid server only moves aggregateBandwidth
 *     elements per cycle and bwFreeAt_ is monotone,
 *   - value loads: the shared load queue drains valueLoadsPerCycle.
 *
 *  Upper bound = potential-function sum: with
 *  Phi = max(now, maxCompletion_, ceil(bwFreeAt_), ceil(valueFreeAt_))
 *  every engine stall targets a completion <= Phi, so Phi only grows
 *  by per-event deltas; each delta below assumes worst-case memory
 *  (all-miss latencies), every branch mispredicted, and exact SMT
 *  spill penalties from a mirrored arch::Smt driven in the engine's
 *  creation order.
 */
class SummaryAccum
{
  public:
    explicit SummaryAccum(const arch::SparseCoreConfig &cfg)
        : cfg_(cfg), smt_(cfg.numStreamRegs)
    {
        const auto &m = cfg.mem;
        maxL1_ = m.l1Latency + m.l2Latency + m.l3Latency + m.memLatency;
        maxL2_ = m.l2Latency + m.l3Latency + m.memLatency;
        spillPenalty_ = m.l2Latency + m.l3Latency;
        branchUb_ = 1 + cfg.core.mispredictPenalty;
        loadUb_ = 1 + static_cast<Cycles>(std::llround(
                          static_cast<double>(maxL2_) *
                          cfg.core.missStallFraction));
    }

    // ---------------- one call per source event ----------------

    void
    scalarOps(std::uint64_t n, std::uint32_t repeat)
    {
        lbScalar_ += repeat * issue(n);
        ub_ += repeat * issue(n);
        pressure_.scalarOps(n, repeat);
    }

    void
    scalarBranch()
    {
        lbScalar_ += 1;
        ub_ += branchUb_;
        pressure_.scalarBranch();
    }

    void
    scalarLoad()
    {
        lbScalar_ += 1;
        ub_ += loadUb_;
        pressure_.scalarLoad();
    }

    void
    streamLoad(std::uint64_t handle, Addr key_addr, std::uint64_t len,
               bool kv)
    {
        streamLoadCore(key_addr, len, handle);
        pressure_.streamLoad(handle, key_addr, len, kv);
    }

    void
    streamFree(std::uint64_t handle)
    {
        lbScalar_ += issue(1);
        ub_ += issue(1);
        const auto it = handleSid_.find(handle);
        if (it != handleSid_.end())
            freeEngineStream(it->second);
        pressure_.streamFree(handle);
    }

    void
    setOp(std::uint64_t handle, SetOpKind kind, KeySpan a, KeySpan b,
          Key bound, std::uint64_t result_len)
    {
        lbScalar_ += issue(2);
        ub_ += issue(2);
        ub_ += chargeSetOp(kind, a, b, bound);
        ub_ += defineEngineStream(handle);
        pressure_.setOp(handle, kind, a, b, bound, result_len);
    }

    void
    setOpCount(SetOpKind kind, KeySpan a, KeySpan b, Key bound)
    {
        lbScalar_ += issue(2);
        ub_ += issue(2);
        ub_ += chargeSetOp(kind, a, b, bound);
        pressure_.setOpCount(kind, a, b, bound);
    }

    void
    valueIntersect(KeySpan a, KeySpan b, std::uint64_t matches)
    {
        lbScalar_ += issue(2);
        ub_ += issue(2);
        // engine.cc valueIntersect: the intersect schedules unbounded.
        ub_ += chargeSetOp(SetOpKind::Intersect, a, b, noBound);
        const std::uint64_t loads = 2 * matches;
        valueLoads_ += loads;
        ub_ += ceilDiv(loads, vlpc()) + 1 + svpuUb(matches) / 4;
        pressure_.valueIntersect(a, b, matches);
    }

    void
    valueMerge(std::uint64_t handle, KeySpan a, KeySpan b, bool a_val,
               bool b_val, std::uint64_t result_len)
    {
        lbScalar_ += issue(2);
        ub_ += issue(2);
        ub_ += chargeSetOp(SetOpKind::Merge, a, b, noBound);
        ub_ += defineEngineStream(handle);
        const std::uint64_t queue_loads =
            (a_val ? a.size() : 0) + (b_val ? b.size() : 0);
        // SVPU pair lists are padded to the longer side; with both
        // operands produced on chip no value work is modeled at all.
        const std::uint64_t pairs = std::max<std::uint64_t>(
            a_val ? a.size() : 0, b_val ? b.size() : 0);
        valueLoads_ += queue_loads;
        ub_ += ceilDiv(queue_loads, vlpc()) + 1 + svpuUb(pairs) / 8 +
               result_len / 4;
        pressure_.valueMerge(handle, a, b, a_val, b_val, result_len);
    }

    void
    nestedGroup(KeySpan s_keys, const std::vector<NestedRef> &elems)
    {
        if (cfg_.nestedIntersection) {
            // engine.cc nestedIntersect + the backend's trailing
            // accumulator-copy scalarOps(1).
            lbScalar_ += issue(1) + issue(elems.size()) + issue(1);
            ub_ += issue(1) + issue(elems.size()) + issue(1);
            // Per-element worst translation-pipeline advance: the
            // info load divided by the MLP (integer, as the
            // translator computes it) plus the one-cycle step.
            const Cycles trans_ub =
                std::max<Cycles>(
                    1, maxL1_ / std::max(1u, cfg_.valueLoadMlp)) +
                1;
            for (const NestedRef &e : elems) {
                ub_ += trans_ub + maxL2_;
                ub_ += chargeSetOp(SetOpKind::Intersect, s_keys,
                                   e.nested, e.bound);
            }
        } else {
            // ExecBackend's lowered loop: iterate + per-element
            // load/setOpCount/free/accumulate, all inside this one
            // event. The temporaries are engine streams (they take
            // SMT slots) but never trace handles, so they stay out
            // of the pressure profile — exactly like the replay.
            chargeIterate(s_keys.size(), 3);
            for (const NestedRef &e : elems) {
                const std::uint64_t sid =
                    streamLoadCore(e.keyAddr, e.nested.size(),
                                   /*handle=*/kNoHandle);
                lbScalar_ += issue(2);
                ub_ += issue(2);
                ub_ += chargeSetOp(SetOpKind::Intersect, s_keys,
                                   e.nested, e.bound);
                lbScalar_ += issue(1);
                ub_ += issue(1);
                freeEngineStream(sid);
                lbScalar_ += issue(1);
                ub_ += issue(1);
            }
        }
        pressure_.nestedGroup(s_keys, elems);
    }

    void
    consumeStream()
    {
        // waitFor stalls to a completion Phi already covers.
        pressure_.consumeStream();
    }

    void
    iterateStream(std::uint64_t n, unsigned ops)
    {
        chargeIterate(n, ops);
        pressure_.iterateStream(n, ops);
    }

    ProgramSummary
    finish() &&
    {
        ProgramSummary summary;
        static_cast<PressureSummary &>(summary) =
            std::move(pressure_).finish();
        summary.pressureExact = true;
        summary.cost.lower = std::max(
            {lbScalar_, ceilDiv(suBusy_, std::max(1u, cfg_.numSus)),
             ceilDiv(bwElems_, std::max(1u, cfg_.aggregateBandwidth)),
             ceilDiv(valueLoads_, vlpc())});
        summary.cost.upper = ub_;
        summary.cost.valid = true;
        return summary;
    }

  private:
    std::uint64_t
    issue(std::uint64_t n) const
    {
        return ceilDiv(n, std::max(1u, cfg_.core.issueWidth));
    }

    std::uint64_t
    vlpc() const
    {
        return std::max(1u, cfg_.valueLoadsPerCycle);
    }

    /** Worst-case Svpu::process cycles for n pairs: every value load
     *  misses to memory, reduction at one pair per cycle. */
    Cycles
    svpuUb(std::uint64_t n) const
    {
        if (n == 0)
            return 0;
        const Cycles load_time =
            ceilDiv(2 * maxL1_ * n, std::max(1u, cfg_.valueLoadMlp));
        return std::max(load_time, n);
    }

    /** SCache::allocate worst case: first sub-slot lines all miss;
     *  line count is exact from the base address alignment. */
    Cycles
    refillUb(Addr key_addr, std::uint64_t num_keys) const
    {
        const std::uint64_t fetch_keys = std::min<std::uint64_t>(
            num_keys, cfg_.scacheSlotKeys / 2);
        if (fetch_keys == 0)
            return 0;
        const unsigned line_bytes = std::max(1u, cfg_.mem.l2.lineBytes);
        const Addr first = key_addr / line_bytes;
        const Addr last =
            (key_addr + (fetch_keys - 1) * sizeof(Key)) / line_bytes;
        return maxL2_ + (last - first);
    }

    /** Engine-side stream creation: next creation-order sid through
     *  the mirrored SMT. Returns the spill penalty (0 or exact). */
    Cycles
    defineEngineStream(std::uint64_t handle)
    {
        const std::uint64_t sid = nextSid_++;
        auto entry = smt_.define(sid);
        Cycles extra = 0;
        if (!entry) {
            extra = spillPenalty_;
            smt_.spillOne();
            entry = smt_.define(sid);
        }
        sidIndex_[sid] = *entry;
        if (handle != kNoHandle)
            handleSid_[handle] = sid;
        return extra;
    }

    void
    freeEngineStream(std::uint64_t sid)
    {
        // A spilled sid is gone from the SMT; the engine would panic
        // on its S_FREE, but the analysis stays total (the lifetime
        // checker separately reports the overflow that caused it).
        if (!smt_.lookup(sid))
            return;
        smt_.decodeFree(sid);
        smt_.retireFree(sidIndex_.at(sid));
    }

    /** Common makeStream charge: scalarOps(3) + spill + refill (the
     *  refill dominates the scratchpad-hit path's one cycle). */
    std::uint64_t
    streamLoadCore(Addr key_addr, std::uint64_t len,
                   std::uint64_t handle)
    {
        lbScalar_ += issue(3);
        ub_ += issue(3);
        const std::uint64_t sid = nextSid_;
        ub_ += defineEngineStream(handle);
        ub_ += std::max<Cycles>(refillUb(key_addr, len),
                                cfg_.scratchpadLatency);
        return sid;
    }

    /** One scheduleSetOp: SU busy + bandwidth dues, and the UB delta
     *  (pipeline + comparator cycles + fluid-server advance). */
    Cycles
    chargeSetOp(SetOpKind kind, KeySpan a, KeySpan b, Key bound)
    {
        const auto cost =
            streams::suCost(a, b, kind, bound, cfg_.suWindow);
        const Cycles intrinsic = cfg_.suPipelineLatency + cost.cycles;
        const std::uint64_t elems = cost.aConsumed + cost.bConsumed;
        suBusy_ += intrinsic;
        bwElems_ += elems;
        return intrinsic +
               ceilDiv(elems, std::max(1u, cfg_.aggregateBandwidth)) +
               1;
    }

    /** Engine::fetchLoop: one scalarOps batch + n predictor branches
     *  (each a guaranteed issue cycle; mispredicts only in the UB). */
    void
    chargeIterate(std::uint64_t n, unsigned ops)
    {
        lbScalar_ += issue(n * ops) + n;
        ub_ += issue(n * ops) + n * branchUb_;
    }

    const arch::SparseCoreConfig &cfg_;

    Cycles maxL1_ = 0;       ///< all-miss l1Access latency
    Cycles maxL2_ = 0;       ///< all-miss l2Access latency
    Cycles spillPenalty_ = 0;
    Cycles branchUb_ = 0;
    Cycles loadUb_ = 0;

    // Lower-bound resources.
    Cycles lbScalar_ = 0;
    Cycles suBusy_ = 0;
    std::uint64_t bwElems_ = 0;
    std::uint64_t valueLoads_ = 0;
    // Upper-bound potential sum.
    Cycles ub_ = 0;

    // Engine mirror: creation-order sids through the real SMT.
    arch::Smt smt_;
    std::uint64_t nextSid_ = 0;
    std::unordered_map<std::uint64_t, unsigned> sidIndex_;
    std::unordered_map<std::uint64_t, std::uint64_t> handleSid_;

    PressureWalk pressure_;
};

/** walkBytecode handler feeding a PressureWalk or SummaryAccum. */
template <typename Acc>
struct BytecodeAdapter
{
    const trace::BytecodeProgram &bc;
    Acc &acc;
    std::vector<NestedRef> elems; // reused across groups

    void
    scalarOps(std::uint64_t n, std::uint32_t repeat)
    {
        acc.scalarOps(n, repeat);
    }
    void scalarBranch(std::uint64_t, bool) { acc.scalarBranch(); }
    void scalarLoad(Addr) { acc.scalarLoad(); }
    void
    streamLoad(trace::TraceStream res, Addr addr, std::uint64_t len,
               std::uint8_t, trace::SpanRef)
    {
        acc.streamLoad(res, addr, len, /*kv=*/false);
    }
    void
    streamLoadKv(trace::TraceStream res, Addr key_addr, Addr,
                 std::uint64_t len, std::uint8_t, trace::SpanRef)
    {
        acc.streamLoad(res, key_addr, len, /*kv=*/true);
    }
    void streamFree(trace::TraceStream a) { acc.streamFree(a); }
    void
    setOp(trace::TraceStream res, std::uint8_t kind,
          trace::TraceStream, trace::TraceStream, trace::SpanRef s0,
          trace::SpanRef s1, Key bound, trace::SpanRef s2, Addr)
    {
        acc.setOp(res, static_cast<SetOpKind>(kind), bc.span(s0),
                  bc.span(s1), bound, s2.len);
    }
    void
    setOpCount(std::uint8_t kind, trace::TraceStream,
               trace::TraceStream, trace::SpanRef s0, trace::SpanRef s1,
               Key bound, std::uint64_t)
    {
        acc.setOpCount(static_cast<SetOpKind>(kind), bc.span(s0),
                       bc.span(s1), bound);
    }
    void
    valueIntersect(bool, trace::TraceStream, trace::TraceStream,
                   trace::SpanRef s0, trace::SpanRef s1, Addr, Addr,
                   trace::SpanRef s2, trace::SpanRef)
    {
        acc.valueIntersect(bc.span(s0), bc.span(s1), s2.len);
    }
    void
    valueMerge(trace::TraceStream res, trace::TraceStream,
               trace::TraceStream, trace::SpanRef s0, trace::SpanRef s1,
               Addr a_val, Addr b_val, std::uint64_t n, Addr)
    {
        acc.valueMerge(res, bc.span(s0), bc.span(s1), a_val != 0,
                       b_val != 0, n);
    }
    void
    nestedGroup(trace::TraceStream, trace::SpanRef s0,
                std::uint64_t index, std::uint32_t count)
    {
        elems.clear();
        elems.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
            const trace::NestedEntry &e = bc.nestedEntry(index + i);
            elems.push_back(
                {e.keyAddr, bc.span(e.nested), e.bound});
        }
        acc.nestedGroup(bc.span(s0), elems);
    }
    void consumeStream(trace::TraceStream) { acc.consumeStream(); }
    void
    iterateStream(trace::TraceStream, std::uint64_t n, std::uint8_t ops)
    {
        acc.iterateStream(n, ops);
    }
};

/** Drive a PressureWalk or SummaryAccum over a trace's events. */
template <typename Acc>
void
walkTrace(const trace::Trace &trace, Acc &acc)
{
    std::vector<NestedRef> elems;
    for (const Event &e : trace.events()) {
        switch (e.kind) {
          case EventKind::ScalarOps:
            acc.scalarOps(e.n, 1);
            break;
          case EventKind::ScalarBranch:
            acc.scalarBranch();
            break;
          case EventKind::ScalarLoad:
            acc.scalarLoad();
            break;
          case EventKind::StreamLoad:
            acc.streamLoad(e.result, e.addr0, e.n, /*kv=*/false);
            break;
          case EventKind::StreamLoadKv:
            acc.streamLoad(e.result, e.addr0, e.n, /*kv=*/true);
            break;
          case EventKind::StreamFree:
            acc.streamFree(e.a);
            break;
          case EventKind::SetOp:
            acc.setOp(e.result, static_cast<SetOpKind>(e.aux),
                      trace.span(e.s0), trace.span(e.s1), e.bound,
                      e.s2.len);
            break;
          case EventKind::SetOpCount:
            acc.setOpCount(static_cast<SetOpKind>(e.aux),
                           trace.span(e.s0), trace.span(e.s1),
                           e.bound);
            break;
          case EventKind::ValueIntersect:
          case EventKind::DenseValueIntersect:
            acc.valueIntersect(trace.span(e.s0), trace.span(e.s1),
                               e.s2.len);
            break;
          case EventKind::ValueMerge:
            acc.valueMerge(e.result, trace.span(e.s0),
                           trace.span(e.s1), e.addr0 != 0,
                           e.addr1 != 0, e.n);
            break;
          case EventKind::NestedGroup: {
            elems.clear();
            elems.reserve(e.aux2);
            for (std::uint32_t i = 0; i < e.aux2; ++i) {
                const trace::NestedEntry &entry =
                    trace.nestedEntry(e.n + i);
                elems.push_back({entry.keyAddr,
                                 trace.span(entry.nested),
                                 entry.bound});
            }
            acc.nestedGroup(trace.span(e.s0), elems);
            break;
          }
          case EventKind::ConsumeStream:
            acc.consumeStream();
            break;
          case EventKind::IterateStream:
            acc.iterateStream(e.n, e.aux);
            break;
          case EventKind::NumKinds:
            panic("trace summary: corrupt event kind");
        }
    }
}

template <typename Acc>
void
walkProgram(const trace::BytecodeProgram &program, Acc &acc)
{
    BytecodeAdapter<Acc> handler{program, acc, {}};
    trace::walkBytecode(program, handler);
}

} // namespace

PressureSummary
summarizePressure(const trace::Trace &trace)
{
    PressureWalk walk;
    walkTrace(trace, walk);
    return std::move(walk).finish();
}

PressureSummary
summarizePressure(const trace::BytecodeProgram &program)
{
    PressureWalk walk;
    walkProgram(program, walk);
    return std::move(walk).finish();
}

ProgramSummary
summarizeTrace(const trace::Trace &trace,
               const arch::SparseCoreConfig &config)
{
    SummaryAccum acc(config);
    walkTrace(trace, acc);
    return std::move(acc).finish();
}

ProgramSummary
summarizeBytecode(const trace::BytecodeProgram &program,
                  const arch::SparseCoreConfig &config)
{
    SummaryAccum acc(config);
    walkProgram(program, acc);
    return std::move(acc).finish();
}

// ---------------- JSON emission ----------------

JsonValue
jsonValue(const Diagnostic &diagnostic)
{
    JsonValue v = JsonValue::object();
    v.set("rule", JsonValue::str(ruleId(diagnostic.rule)));
    v.set("severity",
          JsonValue::str(diagnostic.severity == Severity::Error
                             ? "error"
                             : "warning"));
    v.set("pc", JsonValue::number(diagnostic.pc));
    v.set("sid", JsonValue::number(diagnostic.sid));
    v.set("message", JsonValue::str(diagnostic.message));
    return v;
}

JsonValue
jsonValue(const VerifyReport &report)
{
    JsonValue v = JsonValue::object();
    v.set("errors",
          JsonValue::number(std::uint64_t{report.errorCount()}));
    v.set("warnings",
          JsonValue::number(std::uint64_t{report.warningCount()}));
    JsonValue list = JsonValue::array();
    for (const Diagnostic &d : report.diagnostics)
        list.push(jsonValue(d));
    v.set("diagnostics", std::move(list));
    return v;
}

JsonValue
jsonValue(const CostBounds &bounds)
{
    JsonValue v = JsonValue::object();
    v.set("valid", JsonValue::boolean(bounds.valid));
    v.set("lower", JsonValue::number(bounds.lower));
    v.set("upper", JsonValue::number(bounds.upper));
    return v;
}

JsonValue
jsonValue(const ProgramSummary &summary)
{
    JsonValue v = JsonValue::object();
    v.set("points", JsonValue::number(summary.points));
    v.set("defines", JsonValue::number(summary.defines));
    v.set("frees", JsonValue::number(summary.frees));
    v.set("max_pressure",
          JsonValue::number(std::uint64_t{summary.maxPressure}));
    v.set("max_pressure_pc", JsonValue::number(summary.maxPressurePc));
    v.set("pressure_exact",
          JsonValue::boolean(summary.pressureExact));
    JsonValue profile = JsonValue::array();
    for (const PressurePoint &p : summary.profile) {
        JsonValue point = JsonValue::object();
        point.set("pc", JsonValue::number(p.pc));
        point.set("live", JsonValue::number(std::uint64_t{p.live}));
        profile.push(std::move(point));
    }
    v.set("profile", std::move(profile));
    v.set("cost", jsonValue(summary.cost));
    return v;
}

} // namespace sc::analysis
