/**
 * @file
 * Functional architectural state for the stream ISA: a segment-based
 * memory image, the stream register file, the Stream Mapping Table
 * (SMT, §4.1 semantics at architectural granularity), and the graph
 * format registers (GFR0..2, §3.2).
 */

#ifndef SPARSECORE_ISA_ARCH_STATE_HH
#define SPARSECORE_ISA_ARCH_STATE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "isa/stream_inst.hh"

namespace sc::isa {

/** Raised for architectural stream exceptions (freeing an unmapped
 *  stream, value ops on key-only streams, scalar access to stream
 *  data, ...). */
class StreamException : public SimError
{
  public:
    explicit StreamException(const std::string &msg)
        : SimError("stream exception: " + msg), msg_(msg)
    {}

    /** The message without the "stream exception: " prefix, so
     *  re-throw sites (Interpreter::step's pc annotation) can build a
     *  new exception without stacking prefixes. */
    const std::string &message() const { return msg_; }

  private:
    std::string msg_;
};

/**
 * Structured stream-lifetime fault: the runtime counterpart of the
 * static verifier's lifetime rules (analysis/verifier.hh). Carries
 * the fault kind and the offending sid so tests and tools can match
 * on semantics instead of message text.
 */
class StreamFault : public StreamException
{
  public:
    enum class Kind
    {
        FreeUnallocated, ///< S_FREE of a sid never defined
        DoubleFree,      ///< S_FREE of an already-freed sid
        UseAfterFree,    ///< reference to a freed sid
    };

    StreamFault(Kind kind, std::uint64_t sid, const std::string &msg)
        : StreamException(msg), kind_(kind), sid_(sid)
    {}

    Kind kind() const { return kind_; }
    std::uint64_t sid() const { return sid_; }

  private:
    Kind kind_;
    std::uint64_t sid_;
};

/**
 * Sparse functional memory: read-only data segments registered by the
 * host program (graph arrays, tensor arrays) plus a writable scratch
 * heap for produced streams.
 */
class MemoryImage
{
  public:
    /** Map [base, base+bytes) to host data (borrowed, not owned). */
    void addSegment(Addr base, const void *data, std::size_t bytes);

    /** Typed load; throws StreamException on unmapped access. */
    template <typename T>
    T
    read(Addr addr) const
    {
        const auto *seg = find(addr, sizeof(T));
        T out;
        std::memcpy(&out, seg->data + (addr - seg->base), sizeof(T));
        return out;
    }

    /** Read a span of n elements of type T. */
    template <typename T>
    std::vector<T>
    readArray(Addr addr, std::size_t n) const
    {
        const auto *seg = find(addr, sizeof(T) * n);
        std::vector<T> out(n);
        std::memcpy(out.data(), seg->data + (addr - seg->base),
                    sizeof(T) * n);
        return out;
    }

    /**
     * Zero-copy typed view of n elements. Segments borrow the host
     * program's live arrays, so a view into a graph's edge segment
     * IS a span into that graph's edge array (no copy per set-op
     * operand). Valid while the segment's backing array lives.
     */
    template <typename T>
    std::span<const T>
    viewArray(Addr addr, std::size_t n) const
    {
        const auto *seg = find(addr, sizeof(T) * n);
        const std::uint8_t *p = seg->data + (addr - seg->base);
        if (reinterpret_cast<std::uintptr_t>(p) % alignof(T) != 0)
            throw StreamException(strprintf(
                "misaligned stream array access at 0x%llx",
                static_cast<unsigned long long>(addr)));
        return {reinterpret_cast<const T *>(p), n};
    }

    bool mapped(Addr addr, std::size_t bytes) const;

  private:
    struct Segment
    {
        Addr base;
        std::size_t bytes;
        const std::uint8_t *data;
    };

    const Segment *find(Addr addr, std::size_t bytes) const;

    std::map<Addr, Segment> segments_; // keyed by base
};

/** One architectural stream register (§3.2). */
struct StreamReg
{
    bool valid = false;
    std::uint64_t sid = 0;
    Addr keyAddr = 0;
    Addr valAddr = 0;
    std::uint64_t length = 0;
    std::uint64_t priority = 0;
    bool isKv = false;
    /** Produced data (output of S_INTER/S_SUB/S_MERGE/S_VMERGE);
     *  empty for memory-backed streams. */
    std::vector<Key> producedKeys;
    std::vector<Value> producedVals;
    bool produced = false; ///< producedKeys valid (not memory-backed)
};

/**
 * Functional stream state: SMT + stream registers + GFRs. The
 * interpreter is in-order, so VD and VA transition together here; the
 * timing-level SMT in src/arch models the decode/retire window.
 */
class StreamState
{
  public:
    explicit StreamState(MemoryImage &mem) : mem_(&mem) {}

    /** S_READ/S_VREAD: (re)map sid, loading keys lazily from memory.
     *  Throws when all stream registers are active. */
    void define(std::uint64_t sid, Addr key_addr, std::uint64_t length,
                std::uint64_t priority, bool is_kv, Addr val_addr = 0);

    /** Create a mapping for a produced (computed) output stream. */
    StreamReg &defineProduced(std::uint64_t sid);

    /** S_FREE: unmap. Throws StreamFault — DoubleFree for a sid that
     *  was live and already freed, FreeUnallocated for one that never
     *  existed. */
    void free(std::uint64_t sid);

    /** Lookup; throws StreamFault(UseAfterFree) for a freed sid,
     *  StreamException for one that was never mapped. */
    StreamReg &lookup(std::uint64_t sid);
    const StreamReg &lookup(std::uint64_t sid) const;
    bool isMapped(std::uint64_t sid) const;

    /** Materialized sorted keys of a stream (memory or produced). */
    std::vector<Key> keys(const StreamReg &reg) const;
    /** Materialized values of a (key,value) stream. */
    std::vector<Value> values(const StreamReg &reg) const;

    /** Zero-copy view of a stream's keys: produced streams view
     *  producedKeys, memory-backed streams view the borrowed segment
     *  (MemoryImage::viewArray). Valid until the register is
     *  redefined / freed or the backing memory goes away. */
    std::span<const Key> keySpan(const StreamReg &reg) const;
    /** Same for values of a (key,value) stream. */
    std::span<const Value> valueSpan(const StreamReg &reg) const;

    /** Number of active streams. */
    unsigned activeCount() const;

    /** GFR0..2: CSR index, CSR edge list, CSR offset (§3.2). */
    void loadGfr(std::uint64_t g0, std::uint64_t g1, std::uint64_t g2);
    std::uint64_t gfr(unsigned idx) const;

    /**
     * Checkpoint of the full stream state, taken before executing a
     * multi-micro-op S_NESTINTER so exceptions are precise (§5.1).
     */
    struct Checkpoint
    {
        std::array<StreamReg, numStreamRegs> regs;
        std::map<std::uint64_t, unsigned> smt;
        std::set<std::uint64_t> freed;
        std::array<std::uint64_t, 3> gfr;
    };

    Checkpoint checkpoint() const;
    void restore(Checkpoint cp);

  private:
    MemoryImage *mem_;
    std::array<StreamReg, numStreamRegs> regs_;
    std::map<std::uint64_t, unsigned> smt_; // sid -> sreg index
    /** Sids that were mapped and later freed (and not redefined
     *  since): distinguishes double-free / use-after-free from a
     *  reference to a sid that never existed. */
    std::set<std::uint64_t> freed_;
    std::array<std::uint64_t, 3> gfr_{};

    unsigned allocReg();
};

} // namespace sc::isa

#endif // SPARSECORE_ISA_ARCH_STATE_HH
