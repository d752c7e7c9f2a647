#include "cpu/inst_stream.hh"

#include "common/logging.hh"
#include "cpu/alu.hh"
#include "isa/disasm.hh"
#include "isa/encoding.hh"
#include "jit/trace_cache.hh"

namespace dise {

InstStream::InstStream(ArchState &arch, MainMemory &mem, DiseEngine *engine,
                       StreamEnv env)
    : arch_(arch), mem_(mem), engine_(engine), env_(env)
{
    mem_.addCodeWatcher(this);
    if (env_.jit)
        env_.jit->bindEnv(env_);
}

InstStream::~InstStream()
{
    mem_.removeCodeWatcher(this);
}

void
InstStream::onCodeWrite(uint64_t frame)
{
    uopPages_.erase(frame);
    if (uopFrame_ == frame) {
        uopFrame_ = ~uint64_t{0};
        uopPage_ = nullptr;
    }
}

InstStream::UopEntry *
InstStream::uopEntryFor(Addr pc)
{
    uint64_t frame = pc / PageBytes;
    if (frame != uopFrame_) {
        auto &slot = uopPages_[frame];
        if (!slot)
            slot = std::make_unique<UopPage>();
        uopFrame_ = frame;
        uopPage_ = slot.get();
    }
    return &uopPage_->entries[(pc % PageBytes) / 4];
}

void
InstStream::beginExpansion(int slot, const Inst &trigger, Addr pc)
{
    seq_ = engine_->expandCached(slot, trigger);
    seqIdx_ = 0;
    trigger_ = trigger;
    trigPc_ = pc;
    seqNextPc_ = pc + 4;
    expanding_ = true;
    curSlot_ = slot;
    ++expId_;
}

void
InstStream::fault(MicroOp &op, const std::string &msg)
{
    warn("CPU fault at pc 0x", std::hex, op.pc, std::dec, ": ", msg);
    op.isHalt = true;
    op.haltReason = HaltReason::Fault;
    op.flush = FlushClass::Serialize;
    halted_ = true;
    haltReason_ = HaltReason::Fault;
    faultMsg_ = msg;
}

void
InstStream::finishExpansionIfDone()
{
    if (expanding_ && seqIdx_ >= seq_->insts.size()) {
        expanding_ = false;
        arch_.pc = seqNextPc_;
    }
}

bool
InstStream::next(MicroOp &op)
{
    if (halted_)
        return false;
    op = MicroOp{};
    op.seq = seqCounter_++;

    for (;;) {
        if (expanding_) {
            if (seqIdx_ >= seq_->insts.size()) {
                expanding_ = false;
                arch_.pc = seqNextPc_;
                continue;
            }
            op.inst = seq_->insts[seqIdx_];
            op.pc = trigPc_;
            op.disepc = static_cast<uint16_t>(seqIdx_ + 1);
            op.fromExpansion = true;
            op.isTriggerCopy = seq_->triggerCopy[seqIdx_] != 0;
            ++seqIdx_;
            execute(op);
            if (env_.observer && env_.observer->armed())
                env_.observer->onUop(op);
            finishExpansionIfDone();
            if (env_.jit)
                jitAfterOp(op);
            return true;
        }

        Addr pc = arch_.pc;
        op.pc = pc;

        // Fetch + decode, through the predecoded µop cache when the PC
        // is 4-aligned (unaligned PCs can straddle pages and would
        // alias cache slots; they take the direct path).
        const Inst *instP;
        Inst directInst;
        UopEntry *ent = nullptr;
        if ((pc & 3) == 0) {
            ent = uopEntryFor(pc);
            if (ent->decoded == UopEntry::Empty) {
                auto dec = decode(mem_.fetchWord(pc));
                if (dec) {
                    ent->decoded = UopEntry::Legal;
                    ent->inst = *dec;
                    // Arm write-invalidation for this page. Must also
                    // cover pages that do not exist yet (all-zero
                    // fetches decode): a later write creating the page
                    // has to drop the cached decode. Skipped for
                    // illegal words because that fetch faults and
                    // halts the stream for good.
                    mem_.markCodePage(pc);
                } else {
                    ent->decoded = UopEntry::Illegal;
                }
                ent->matchGen = ~uint64_t{0};
            }
            if (ent->decoded == UopEntry::Illegal) {
                fault(op, "illegal instruction word");
                return true;
            }
            instP = &ent->inst;
        } else {
            auto dec = decode(mem_.fetchWord(pc));
            if (!dec) {
                fault(op, "illegal instruction word");
                return true;
            }
            directInst = *dec;
            instP = &directInst;
        }

        if (engine_ && engine_->enabled() && !inHandler_) {
            int slot;
            if (ent) {
                // Cached match outcome, revalidated against the
                // pattern-table generation in O(1).
                if (ent->matchGen != engine_->generation()) {
                    ent->matchSlot = engine_->matchSlot(*instP, pc);
                    ent->matchGen = engine_->generation();
                }
                slot = ent->matchSlot;
            } else {
                slot = engine_->matchSlot(*instP, pc);
            }
            if (slot >= 0) {
                beginExpansion(slot, *instP, pc);
                continue;
            }
        }

        op.inst = *instP;
        op.disepc = 0;
        op.inHandler = inHandler_;
        if (inHandler_)
            op.handlerCallerPc = saved_.trigPc;
        if (!inHandler_ && env_.monitor && env_.stmtTraps &&
            env_.stmtTraps->count(pc)) {
            DebugAction act = env_.monitor->onStatement(pc);
            if (act.transitions())
                op.debug = act;
        }
        execute(op);
        if (env_.observer && env_.observer->armed())
            env_.observer->onUop(op);
        if (env_.jit)
            jitAfterOp(op);
        return true;
    }
}

void
InstStream::execute(MicroOp &op)
{
    const Inst &in = op.inst;
    const bool raw = !op.fromExpansion;
    auto rd = [&](RegId r) { return arch_.read(r); };
    auto wr = [&](RegId r, uint64_t v) { arch_.write(r, v); };
    auto advance = [&] {
        if (raw)
            arch_.pc = op.pc + 4;
    };
    auto controlTo = [&](bool taken, Addr target) {
        op.isCtrl = true;
        op.taken = taken;
        op.target = taken ? target : op.pc + 4;
        if (raw) {
            arch_.pc = op.target;
        } else if (taken) {
            // Conventional control transfer inside a replacement
            // sequence: goes to <newPC:0>, aborting the expansion, and
            // flushes like any DISE-internal transfer (not predicted).
            expanding_ = false;
            arch_.pc = target;
            op.flush = FlushClass::DiseTransfer;
        }
    };
    auto doTrap = [&] {
        DebugAction act = env_.monitor ? env_.monitor->onTrap(op)
                                       : DebugAction{TransitionKind::User};
        op.debug = act;
        op.flush = FlushClass::Serialize;
    };

    switch (in.info().fmt) {
      case Format::Operate:
        wr(in.rc, aluCompute(in.op, rd(in.ra), rd(in.rb)));
        advance();
        break;

      case Format::OperateImm:
        wr(in.rc, aluCompute(in.op, rd(in.ra),
                             static_cast<uint64_t>(in.imm) & 0xff));
        advance();
        break;

      case Format::Memory: {
        if (in.op == Opcode::LDA) {
            wr(in.ra, rd(in.rb) + in.imm);
            advance();
            break;
        }
        if (in.op == Opcode::LDAH) {
            wr(in.ra, rd(in.rb) + (static_cast<int64_t>(in.imm) << 16));
            advance();
            break;
        }
        Addr addr = rd(in.rb) + in.imm;
        unsigned bytes = in.memBytes();
        op.effAddr = addr;
        op.memBytes = bytes;
        if (in.isLoad()) {
            uint64_t v = in.op == Opcode::LDL
                             ? static_cast<uint64_t>(
                                   mem_.readSigned(addr, bytes))
                             : mem_.read(addr, bytes);
            wr(in.ra, v);
        } else {
            op.storeOld = mem_.read(addr, bytes);
            uint64_t v = rd(in.ra);
            mem_.write(addr, bytes, v);
            op.storeNew = mem_.read(addr, bytes);
            if (env_.monitor && env_.monitorStores) {
                DebugAction act = env_.monitor->onStore(op);
                if (act.transitions())
                    op.debug = act;
            }
        }
        advance();
        break;
      }

      case Format::Branch: {
        uint64_t cond = rd(in.ra);
        bool taken = branchTaken(in.op, cond);
        Addr target = op.pc + 4 + in.imm * 4;
        if (in.op == Opcode::BSR)
            wr(in.ra, op.pc + 4);
        controlTo(taken, target);
        break;
      }

      case Format::Jump: {
        Addr target = rd(in.rb);
        if (in.op == Opcode::JSR)
            wr(in.ra, op.pc + 4);
        controlTo(true, target);
        break;
      }

      case Format::System:
        switch (in.op) {
          case Opcode::SYSCALL:
            switch (in.imm) {
              case SysExit:
                op.isHalt = true;
                op.haltReason = HaltReason::Exited;
                halted_ = true;
                haltReason_ = HaltReason::Exited;
                break;
              case SysPutChar:
                if (env_.sink)
                    env_.sink->putChar(
                        static_cast<char>(rd(reg::a0) & 0xff));
                break;
              case SysPutInt:
                if (env_.sink)
                    env_.sink->putInt(
                        static_cast<int64_t>(rd(reg::a0)));
                break;
              case SysMark:
                if (env_.sink)
                    env_.sink->mark(rd(reg::a0));
                break;
              case SysAllocHint:
              case SysFreeHint:
                // Stateless allocator notifications for debug tools;
                // the armed UopObserver reads a0/a1 after execute().
                break;
              default:
                fault(op, "unknown syscall " + std::to_string(in.imm));
                return;
            }
            op.flush = FlushClass::Serialize;
            advance();
            break;
          case Opcode::TRAP:
            doTrap();
            advance();
            break;
          case Opcode::CODEWORD:
            // Unmatched codeword behaves as a nop.
            advance();
            break;
          default:
            fault(op, "bad system-format opcode");
            return;
        }
        break;

      case Format::Ctrap: {
        uint64_t cond = rd(in.ra);
        if (cond != 0)
            doTrap();
        advance();
        break;
      }

      case Format::Nullary:
        switch (in.op) {
          case Opcode::HALT:
            op.isHalt = true;
            op.haltReason = HaltReason::Halted;
            op.flush = FlushClass::Serialize;
            halted_ = true;
            haltReason_ = HaltReason::Halted;
            break;
          case Opcode::NOP:
            advance();
            break;
          case Opcode::D_RET: {
            if (!inHandler_) {
                fault(op, "d_ret outside a DISE-called function");
                return;
            }
            inHandler_ = false;
            seq_ = std::move(saved_.seq);
            seqIdx_ = saved_.idx;
            trigger_ = saved_.trigger;
            trigPc_ = saved_.trigPc;
            seqNextPc_ = saved_.nextPc;
            expanding_ = true;
            op.flush = FlushClass::DiseTransfer;
            break;
          }
          default:
            fault(op, "bad nullary opcode");
            return;
        }
        break;

      case Format::DiseBranch: {
        if (raw) {
            fault(op, "DISE branch outside a replacement sequence");
            return;
        }
        uint64_t cond = rd(in.ra);
        bool taken = branchTaken(in.op, cond);
        op.isCtrl = true;
        op.taken = taken;
        if (taken) {
            int64_t newIdx = static_cast<int64_t>(seqIdx_) + in.imm;
            if (newIdx < 0) {
                fault(op, "DISE branch to negative DISEPC");
                return;
            }
            seqIdx_ = static_cast<size_t>(newIdx);
            op.flush = FlushClass::DiseTransfer;
        }
        break;
      }

      case Format::DiseCall: {
        if (raw) {
            fault(op, "DISE call outside a replacement sequence");
            return;
        }
        if (in.op == Opcode::D_CCALL && rd(in.ra) == 0)
            break; // condition false: fall through, no flush
        Addr target = rd(in.rb);
        saved_.seq = std::move(seq_);
        saved_.idx = seqIdx_;
        saved_.trigger = trigger_;
        saved_.trigPc = trigPc_;
        saved_.nextPc = seqNextPc_;
        expanding_ = false;
        inHandler_ = true;
        arch_.pc = target;
        op.isCtrl = true;
        op.taken = true;
        op.target = target;
        op.flush = FlushClass::DiseTransfer;
        break;
      }

      case Format::DiseMove:
        if (!inHandler_) {
            fault(op, "d_mfr/d_mtr outside a DISE-called function");
            return;
        }
        if (in.op == Opcode::D_MFR)
            wr(in.ra, rd(in.rb));
        else
            wr(in.rb, rd(in.ra));
        advance();
        break;
    }
}

} // namespace dise
