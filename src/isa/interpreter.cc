#include "isa/interpreter.hh"

#include <bit>

#include "common/logging.hh"
#include "streams/set_ops.hh"

namespace sc::isa {

using streams::SetOpResult;

Interpreter::Interpreter(MemoryImage &mem) : mem_(mem), streams_(mem) {}

std::uint64_t
Interpreter::gpr(unsigned idx) const
{
    if (idx >= numGprs)
        panic("GPR index %u out of range", idx);
    return gprs_[idx];
}

void
Interpreter::setGpr(unsigned idx, std::uint64_t value)
{
    if (idx >= numGprs)
        panic("GPR index %u out of range", idx);
    if (idx == 0)
        return; // r0 is hard-wired zero
    gprs_[idx] = value;
}

double
Interpreter::fpr(unsigned idx) const
{
    if (idx >= numFprs)
        panic("FPR index %u out of range", idx);
    return fprs_[idx];
}

void
Interpreter::setFpr(unsigned idx, double value)
{
    if (idx >= numFprs)
        panic("FPR index %u out of range", idx);
    fprs_[idx] = value;
}

double
Interpreter::gprAsDouble(unsigned idx) const
{
    return std::bit_cast<double>(gpr(idx));
}

void
Interpreter::run(const Program &program, std::uint64_t max_steps)
{
    std::uint64_t pc = 0;
    std::uint64_t steps = 0;
    while (pc < program.size()) {
        if (program[pc].op == Opcode::Halt)
            return;
        if (++steps > max_steps)
            fatal("program exceeded %llu steps (infinite loop?)",
                  static_cast<unsigned long long>(max_steps));
        pc = step(program, pc);
    }
}

std::uint64_t
Interpreter::step(const Program &program, std::uint64_t pc)
{
    if (pc >= program.size())
        panic("pc %llu past end of program",
              static_cast<unsigned long long>(pc));
    const Inst &inst = program[pc];
    ++instCount_;
    ++opcodeCounts_.counter(opcodeName(inst.op));

    // Branch offsets are relative; negative offsets rely on unsigned
    // wrap-around of the cast, which is well-defined.
    const std::uint64_t target =
        pc + static_cast<std::uint64_t>(inst.imm);

    // Annotate stream exceptions with the faulting pc and instruction
    // text, preserving the concrete type (StreamFault carries its
    // kind and sid through the rethrow).
    try {
        return dispatch(program, inst, pc, target);
    } catch (const StreamFault &e) {
        throw StreamFault(
            e.kind(), e.sid(),
            strprintf("%s — pc %llu: %s", e.message().c_str(),
                      static_cast<unsigned long long>(pc),
                      inst.toString().c_str()));
    } catch (const StreamException &e) {
        throw StreamException(
            strprintf("%s — pc %llu: %s", e.message().c_str(),
                      static_cast<unsigned long long>(pc),
                      inst.toString().c_str()));
    }
}

std::uint64_t
Interpreter::dispatch(const Program &program, const Inst &inst,
                      std::uint64_t pc, std::uint64_t target)
{
    switch (inst.op) {
      case Opcode::Li:
        setGpr(inst.r[0], static_cast<std::uint64_t>(inst.imm));
        return pc + 1;
      case Opcode::Mov:
        setGpr(inst.r[0], gpr(inst.r[1]));
        return pc + 1;
      case Opcode::Add:
        setGpr(inst.r[0], gpr(inst.r[1]) + gpr(inst.r[2]));
        return pc + 1;
      case Opcode::Addi:
        setGpr(inst.r[0],
               gpr(inst.r[1]) + static_cast<std::uint64_t>(inst.imm));
        return pc + 1;
      case Opcode::Sub:
        setGpr(inst.r[0], gpr(inst.r[1]) - gpr(inst.r[2]));
        return pc + 1;
      case Opcode::Mul:
        setGpr(inst.r[0], gpr(inst.r[1]) * gpr(inst.r[2]));
        return pc + 1;
      case Opcode::Fli:
        setFpr(inst.f[0], std::bit_cast<double>(inst.imm));
        return pc + 1;
      case Opcode::Beq:
        return gpr(inst.r[0]) == gpr(inst.r[1]) ? target : pc + 1;
      case Opcode::Bne:
        return gpr(inst.r[0]) != gpr(inst.r[1]) ? target : pc + 1;
      case Opcode::Blt:
        return gpr(inst.r[0]) < gpr(inst.r[1]) ? target : pc + 1;
      case Opcode::Bge:
        return gpr(inst.r[0]) >= gpr(inst.r[1]) ? target : pc + 1;
      case Opcode::Jmp:
        return target;
      case Opcode::Halt:
        return program.size();
      default:
        ++streamInstCount_;
        execStream(inst);
        return pc + 1;
    }
}

void
Interpreter::loadOperands(const Inst &inst, std::span<const Key> &a,
                          std::span<const Key> &b)
{
    const StreamReg &ra = streams_.lookup(gpr(inst.r[0]));
    const StreamReg &rb = streams_.lookup(gpr(inst.r[1]));
    a = streams_.keySpan(ra);
    b = streams_.keySpan(rb);
}

void
Interpreter::execStream(const Inst &inst)
{
    using streams::SetOpKind;

    switch (inst.op) {
      case Opcode::SRead:
        streams_.define(gpr(inst.r[2]), gpr(inst.r[0]), gpr(inst.r[1]),
                        gpr(inst.r[3]), /*is_kv=*/false);
        // S_READ triggers the key fetch; validate the addresses now.
        if (gpr(inst.r[1]) > 0 &&
            !mem_.mapped(gpr(inst.r[0]),
                         gpr(inst.r[1]) * sizeof(Key))) {
            throw StreamException("S_READ source range unmapped");
        }
        return;

      case Opcode::SVRead:
        streams_.define(gpr(inst.r[2]), gpr(inst.r[0]), gpr(inst.r[1]),
                        gpr(inst.r[4]), /*is_kv=*/true, gpr(inst.r[3]));
        if (gpr(inst.r[1]) > 0 &&
            !mem_.mapped(gpr(inst.r[0]),
                         gpr(inst.r[1]) * sizeof(Key))) {
            throw StreamException("S_VREAD key range unmapped");
        }
        // Values are fetched lazily by S_VINTER through the normal
        // hierarchy (§3.3), so they are not validated here.
        return;

      case Opcode::SFree:
        streams_.free(gpr(inst.r[0]));
        return;

      case Opcode::SFetch: {
        const StreamReg &reg = streams_.lookup(gpr(inst.r[0]));
        const std::uint64_t offset = gpr(inst.r[1]);
        const auto keys = streams_.keySpan(reg);
        setGpr(inst.r[2],
               offset < keys.size() ? keys[offset] : endOfStream);
        return;
      }

      case Opcode::SInter:
      case Opcode::SInterC:
      case Opcode::SSub:
      case Opcode::SSubC: {
        std::span<const Key> a, b;
        loadOperands(inst, a, b);
        const Key bound = static_cast<Key>(gpr(inst.r[3]));
        std::vector<Key> out;
        const bool counting = inst.op == Opcode::SInterC ||
                              inst.op == Opcode::SSubC;
        const auto kind = inst.op == Opcode::SInter ||
                                  inst.op == Opcode::SInterC
                              ? streams::SetOpKind::Intersect
                              : streams::SetOpKind::Subtract;
        const SetOpResult res = streams::runSetOp(
            kind, a, b, bound, counting ? nullptr : &out);
        if (counting) {
            setGpr(inst.r[2], res.count);
        } else {
            StreamReg &dst =
                streams_.defineProduced(gpr(inst.r[2]));
            dst.producedKeys = std::move(out);
            dst.length = dst.producedKeys.size();
        }
        return;
      }

      case Opcode::SMerge:
      case Opcode::SMergeC: {
        std::span<const Key> a, b;
        loadOperands(inst, a, b);
        std::vector<Key> out;
        const bool counting = inst.op == Opcode::SMergeC;
        const SetOpResult res =
            streams::runSetOp(streams::SetOpKind::Merge, a, b,
                              noBound, counting ? nullptr : &out);
        if (counting) {
            setGpr(inst.r[2], res.count);
        } else {
            StreamReg &dst =
                streams_.defineProduced(gpr(inst.r[2]));
            dst.producedKeys = std::move(out);
            dst.length = dst.producedKeys.size();
        }
        return;
      }

      case Opcode::SVInter: {
        const StreamReg &ra = streams_.lookup(gpr(inst.r[0]));
        const StreamReg &rb = streams_.lookup(gpr(inst.r[1]));
        if ((!ra.isKv && !ra.produced) || (!rb.isKv && !rb.produced))
            throw StreamException(
                "S_VINTER requires (key,value) streams");
        const auto ak = streams_.keySpan(ra);
        const auto av = streams_.valueSpan(ra);
        const auto bk = streams_.keySpan(rb);
        const auto bv = streams_.valueSpan(rb);
        const Value result = streams::valueIntersect(
            ak, av, bk, bv, inst.valueOp);
        setGpr(inst.r[2], std::bit_cast<std::uint64_t>(result));
        return;
      }

      case Opcode::SVMerge: {
        const StreamReg &ra = streams_.lookup(gpr(inst.r[0]));
        const StreamReg &rb = streams_.lookup(gpr(inst.r[1]));
        if ((!ra.isKv && !ra.produced) || (!rb.isKv && !rb.produced))
            throw StreamException(
                "S_VMERGE requires (key,value) streams");
        const auto ak = streams_.keySpan(ra);
        const auto av = streams_.valueSpan(ra);
        const auto bk = streams_.keySpan(rb);
        const auto bv = streams_.valueSpan(rb);
        std::vector<Key> out_keys;
        std::vector<Value> out_vals;
        streams::valueMerge(ak, av, bk, bv, fpr(inst.f[0]),
                            fpr(inst.f[1]), out_keys, out_vals);
        StreamReg &dst = streams_.defineProduced(gpr(inst.r[2]));
        dst.producedKeys = std::move(out_keys);
        dst.producedVals = std::move(out_vals);
        dst.isKv = true;
        dst.length = dst.producedKeys.size();
        return;
      }

      case Opcode::SLdGfr:
        streams_.loadGfr(gpr(inst.r[0]), gpr(inst.r[1]),
                         gpr(inst.r[2]));
        return;

      case Opcode::SNestInter:
        execNestedIntersect(inst);
        return;

      default:
        panic("execStream called with non-stream opcode %s",
              opcodeName(inst.op));
    }
}

void
Interpreter::execNestedIntersect(const Inst &inst)
{
    // Precise exceptions: checkpoint before the micro-op expansion,
    // roll back if anything inside raises (§5.1).
    auto cp = streams_.checkpoint();
    try {
        const StreamReg &reg = streams_.lookup(gpr(inst.r[0]));
        const auto s_keys = streams_.keySpan(reg);

        const Addr vertex_base = streams_.gfr(0);
        const Addr edge_base = streams_.gfr(1);
        const Addr above_base = streams_.gfr(2);
        if (vertex_base == 0 || edge_base == 0)
            throw StreamException(
                "S_NESTINTER requires loaded GFR registers");

        std::uint64_t total = 0;
        for (const Key s : s_keys) {
            // Micro-ops: S_READ of S(s) bounded below s, S_INTER.C
            // against S, S_FREE, ADD into the accumulator.
            const auto row_begin =
                mem_.read<std::uint64_t>(vertex_base + s * 8);
            const auto above = mem_.read<std::uint32_t>(
                above_base + s * 4);
            // Zero-copy: for graph-backed memory images this span
            // aliases the live edge array.
            const auto nested = mem_.viewArray<Key>(
                edge_base + row_begin * sizeof(Key), above);
            total += streams::runSetOpCount(
                         streams::SetOpKind::Intersect, s_keys,
                         nested, s)
                         .count;
        }
        setGpr(inst.r[1], total);
    } catch (...) {
        streams_.restore(std::move(cp));
        throw;
    }
}

} // namespace sc::isa
