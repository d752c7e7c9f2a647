/**
 * @file
 * Trace-cache invalidation edges and executor exactness.
 *
 * Each test drives FuncCpu twice — trace cache on and off — over a
 * scenario built around one stale-assumption channel: self-modifying
 * code patched between hot phases, a store rewriting the running
 * trace's own body, a DISE production added mid-run (tableVersion), an
 * armed µop observer (tools), the build-time redundancy-suppression
 * pass, and app-instruction budgets landing inside a trace. The two
 * legs must agree on every architectural observable. Further cases pin
 * what traces may carry and how they grow: a d_ccall that falls
 * through becomes a guard op, other DISE calls and moves stay out,
 * hot side-exit landings get their own traces, and a recording that
 * reaches another trace's head links to it.
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "cpu/func_cpu.hh"
#include "cpu/loader.hh"
#include "debug/target.hh"
#include "dise/engine.hh"
#include "isa/encoding.hh"
#include "jit/trace_cache.hh"
#include "session/debug_session.hh"

namespace dise {
namespace {

using namespace reg;

/** Expand every store into {T.INST; addq dr0, 1, dr0}. */
Production
countStoresProduction()
{
    Production p;
    p.name = "count-stores";
    p.pattern = Pattern::forClass(OpClass::Store);
    p.replacement = {
        TemplateInst::trigInst(),
        TemplateInst::opImm(Opcode::ADDQ_I, TRegField::reg(dr(0)), 1,
                            TRegField::reg(dr(0))),
    };
    return p;
}

/** Figure 2a-style unconditional watch check appended to every store. */
Production
watchCheckProduction()
{
    auto R = [](RegId r) { return TRegField::reg(r); };
    Production p;
    p.name = "watch-uncond";
    p.pattern = Pattern::forClass(OpClass::Store);
    p.replacement.push_back(TemplateInst::trigInst());
    p.replacement.push_back(TemplateInst::mem(Opcode::LDA, R(dr(1)),
                                              TImmField::trigImm(),
                                              TRegField::trigRb()));
    p.replacement.push_back(TemplateInst::op3(Opcode::CMPEQ, R(dr(1)),
                                              R(dr(3)), R(dr(2))));
    TemplateInst trap;
    trap.op = Opcode::CTRAP;
    trap.ra = R(dr(2));
    trap.imm = TImmField::imm(1);
    p.replacement.push_back(trap);
    return p;
}

// --------------------------------------------------------- hot path

/** Sum 100..1 in a register-only hot loop, reported via SysMark. */
void
emitSumLoop(Assembler &a)
{
    a.data(0x0200'0000);
    a.text(0x0100'0000);
    a.label("main");
    a.li(t0, 0);
    a.li(s1, 100);
    a.label("loop");
    a.addq(t0, s1, t0);
    a.subq(s1, 1, s1);
    a.bne(s1, "loop");
    a.mov(t0, a0);
    a.syscall(SysMark);
    a.syscall(SysExit);
}

TEST(TraceJit, HotLoopMatchesInterpreter)
{
    uint64_t marks[2];
    FuncResult res[2];
    for (int jit = 0; jit < 2; ++jit) {
        Assembler a;
        emitSumLoop(a);
        DebugTarget target(a.finish("main"));
        target.load();
        StreamEnv env;
        env.sink = &target.sink;
        if (jit)
            env.jit = target.jit();
        FuncCpu cpu(target.arch, target.mem, &target.engine, env);
        res[jit] = cpu.run();
        ASSERT_EQ(res[jit].halt, HaltReason::Exited);
        ASSERT_EQ(target.sink.marks.size(), 1u);
        marks[jit] = target.sink.marks[0];
        if (jit) {
            const TraceCacheStats &s = target.jit()->stats();
            EXPECT_GT(s.built, 0u);
            EXPECT_GT(s.runs, 0u);
            EXPECT_GT(s.tracedUops, 0u);
        }
    }
    EXPECT_EQ(marks[0], 5050u);
    EXPECT_EQ(marks[1], marks[0]);
    EXPECT_EQ(res[1].appInsts, res[0].appInsts);
    EXPECT_EQ(res[1].microOps, res[0].microOps);
}

// ------------------------------------------------ SMC invalidation

/**
 * Phase 1 runs a hot loop long enough to trace it; the loop epilogue
 * then patches an instruction inside the (now cached) body and runs
 * the loop again. The patched semantics must take effect — the write
 * drops the trace through the CodeWatcher channel.
 */
TEST(TraceJit, PatchedTraceBodyIsInvalidated)
{
    uint32_t patched = encode(makeOpImm(Opcode::ADDQ_I, t0, 7, t0));
    uint64_t marks[2];
    for (int jit = 0; jit < 2; ++jit) {
        Assembler a;
        a.data(0x0200'0000);
        a.text(0x0100'0000);
        a.label("main");
        a.la(s0, "site");
        a.li(t2, patched);
        a.li(t0, 0);
        a.li(s2, 0); // phase counter
        a.label("again");
        a.li(s1, 30);
        a.label("loop");
        a.label("site");
        a.addq(t0, 1, t0); // phase 0: +1; phase 1 (patched): +7
        a.subq(s1, 1, s1);
        a.bne(s1, "loop");
        a.stl(t2, 0, s0); // patch the site (idempotent in phase 1)
        a.addq(s2, 1, s2);
        a.cmplt(s2, 2, t4);
        a.bne(t4, "again");
        a.mov(t0, a0);
        a.syscall(SysMark);
        a.syscall(SysExit);

        DebugTarget target(a.finish("main"));
        target.load();
        StreamEnv env;
        env.sink = &target.sink;
        if (jit) {
            env.jit = target.jit();
            target.jit()->config().hotThreshold = 4;
        }
        FuncCpu cpu(target.arch, target.mem, &target.engine, env);
        FuncResult r = cpu.run();
        ASSERT_EQ(r.halt, HaltReason::Exited);
        ASSERT_EQ(target.sink.marks.size(), 1u);
        marks[jit] = target.sink.marks[0];
        if (jit) {
            EXPECT_GT(target.jit()->stats().invalidated, 0u);
        }
    }
    EXPECT_EQ(marks[0], 30u + 30u * 7u);
    EXPECT_EQ(marks[1], marks[0]);
}

/**
 * The hot loop stores its own body word back every iteration (same
 * bytes — no semantic change). Once the loop is traced its pages are
 * marked, so each in-trace store advances the write epoch and forces a
 * side exit after that op; the result must still match the
 * interpreter.
 */
TEST(TraceJit, InTraceCodeStoreSideExits)
{
    uint64_t marks[2];
    for (int jit = 0; jit < 2; ++jit) {
        Assembler a;
        a.data(0x0200'0000);
        a.text(0x0100'0000);
        a.label("main");
        a.la(s0, "site");
        a.ldl(t5, 0, s0); // the site's own encoding
        a.li(t0, 0);
        a.li(s1, 40);
        a.label("loop");
        a.label("site");
        a.addq(t0, 1, t0);
        a.stl(t5, 0, s0); // rewrite the site with identical bytes
        a.subq(s1, 1, s1);
        a.bne(s1, "loop");
        a.mov(t0, a0);
        a.syscall(SysMark);
        a.syscall(SysExit);

        DebugTarget target(a.finish("main"));
        target.load();
        StreamEnv env;
        env.sink = &target.sink;
        if (jit) {
            env.jit = target.jit();
            target.jit()->config().hotThreshold = 4;
        }
        FuncCpu cpu(target.arch, target.mem, &target.engine, env);
        FuncResult r = cpu.run();
        ASSERT_EQ(r.halt, HaltReason::Exited);
        marks[jit] = target.sink.marks.at(0);
        if (jit) {
            const TraceCacheStats &s = target.jit()->stats();
            EXPECT_GT(s.invalidated, 0u);
            EXPECT_GT(s.sideExits, 0u);
        }
    }
    EXPECT_EQ(marks[0], 40u);
    EXPECT_EQ(marks[1], marks[0]);
}

// --------------------------------------- DISE table-version staleness

/**
 * A production added mid-run (tableVersion bump) must stale every
 * cached trace: stores after the mutation get the expansion, exactly
 * as interpreted execution would.
 */
TEST(TraceJit, ProductionAddMidRunStalesTraces)
{
    uint64_t counts[2];
    for (int jit = 0; jit < 2; ++jit) {
        Assembler a;
        a.data(0x0200'0000);
        a.label("buf");
        a.quad(0);
        a.text(0x0100'0000);
        a.label("main");
        a.la(s0, "buf");
        a.li(t0, 0);
        a.li(s1, 60);
        a.label("loop");
        a.stq(t0, 0, s0);
        a.addq(t0, 1, t0);
        a.subq(s1, 1, s1);
        a.bne(s1, "loop");
        a.syscall(SysExit);

        DebugTarget target(a.finish("main"));
        target.load();
        StreamEnv env;
        env.sink = &target.sink;
        if (jit) {
            env.jit = target.jit();
            target.jit()->config().hotThreshold = 4;
        }
        FuncCpu cpu(target.arch, target.mem, &target.engine, env);
        FuncResult r1 = cpu.run(30);
        ASSERT_EQ(r1.halt, HaltReason::InstLimit);
        // Budget exactness: the cap must land on the instruction
        // boundary, trace or no trace.
        EXPECT_EQ(r1.appInsts, 30u);

        target.engine.addProduction(countStoresProduction());
        FuncResult r2 = cpu.run();
        ASSERT_EQ(r2.halt, HaltReason::Exited);
        counts[jit] = target.arch.readDise(0);
        if (jit) {
            EXPECT_GT(target.jit()->stats().invalidated, 0u);
        }
    }
    EXPECT_GT(counts[0], 0u);
    EXPECT_EQ(counts[1], counts[0]);
}

// ------------------------------------------------- tool observation

/** Counts every retired µop, like an enabled debug tool. */
struct CountingObserver : UopObserver
{
    uint64_t n = 0;
    CountingObserver() { armed_ = true; }
    void onUop(const MicroOp &) override { ++n; }
};

/**
 * An armed µop observer (an enabled tool) must see every op in
 * functional order, so trace dispatch stands down entirely.
 */
TEST(TraceJit, ArmedObserverDisablesDispatch)
{
    Assembler a;
    emitSumLoop(a);
    DebugTarget target(a.finish("main"));
    target.load();
    CountingObserver obs;
    StreamEnv env;
    env.sink = &target.sink;
    env.observer = &obs;
    env.jit = target.jit();
    target.jit()->config().hotThreshold = 4;
    FuncCpu cpu(target.arch, target.mem, &target.engine, env);
    FuncResult r = cpu.run();
    ASSERT_EQ(r.halt, HaltReason::Exited);
    EXPECT_EQ(target.sink.marks.at(0), 5050u);
    EXPECT_EQ(obs.n, r.microOps);
    EXPECT_EQ(target.jit()->stats().runs, 0u);
    EXPECT_EQ(target.jit()->stats().tracedUops, 0u);
}

// -------------------------------------------- redundancy suppression

/** Two identical adjacent stores under the given production. */
void
emitDoubleStoreLoop(Assembler &a)
{
    a.data(0x0200'0000);
    a.label("buf");
    a.quad(0);
    a.text(0x0100'0000);
    a.label("main");
    a.la(s0, "buf");
    a.li(t0, 0);
    a.li(s1, 50);
    a.label("loop");
    a.stq(t0, 0, s0);
    a.stq(t0, 0, s0);
    a.addq(t0, 1, t0);
    a.subq(s1, 1, s1);
    a.bne(s1, "loop");
    a.syscall(SysExit);
}

/**
 * Idempotent check groups (address rematerialization + compare) repeat
 * between the two identical stores; the second instance must execute
 * as counter retirement only — with identical retirement counts and
 * architectural state.
 */
TEST(TraceJit, SuppressionElidesIdempotentChecks)
{
    FuncResult res[2];
    for (int jit = 0; jit < 2; ++jit) {
        Assembler a;
        emitDoubleStoreLoop(a);
        DebugTarget target(a.finish("main"));
        target.engine.addProduction(watchCheckProduction());
        target.arch.writeDise(3, 0x0300'0000); // never the stored addr
        target.load();
        StreamEnv env;
        env.sink = &target.sink;
        if (jit) {
            env.jit = target.jit();
            target.jit()->config().hotThreshold = 4;
        }
        FuncCpu cpu(target.arch, target.mem, &target.engine, env);
        res[jit] = cpu.run();
        ASSERT_EQ(res[jit].halt, HaltReason::Exited);
        if (jit) {
            EXPECT_GT(target.jit()->stats().suppressedExecs, 0u);
        }
    }
    EXPECT_EQ(res[1].appInsts, res[0].appInsts);
    EXPECT_EQ(res[1].microOps, res[0].microOps);
    EXPECT_EQ(res[1].expansionOps, res[0].expansionOps);
}

/**
 * An accumulator group (addq dr0, 1, dr0) reads its own output: the
 * "second instance recomputes the same values" argument does not hold,
 * so suppression must leave it alone. Counts diverging from the
 * interpreter here means the suppression pass elided live work.
 */
TEST(TraceJit, SuppressionKeepsAccumulatorGroups)
{
    uint64_t counts[2];
    for (int jit = 0; jit < 2; ++jit) {
        Assembler a;
        emitDoubleStoreLoop(a);
        DebugTarget target(a.finish("main"));
        target.engine.addProduction(countStoresProduction());
        target.load();
        StreamEnv env;
        env.sink = &target.sink;
        if (jit) {
            env.jit = target.jit();
            target.jit()->config().hotThreshold = 4;
        }
        FuncCpu cpu(target.arch, target.mem, &target.engine, env);
        FuncResult r = cpu.run();
        ASSERT_EQ(r.halt, HaltReason::Exited);
        counts[jit] = target.arch.readDise(0);
    }
    EXPECT_EQ(counts[0], 100u); // 50 laps x 2 stores
    EXPECT_EQ(counts[1], counts[0]);
}

// -------------------------------------------------- budget exactness

/** A split run (limit landing mid-trace) must equal one unbounded run. */
TEST(TraceJit, SplitRunMatchesSingleRun)
{
    uint64_t marks[2];
    for (int split = 0; split < 2; ++split) {
        Assembler a;
        emitSumLoop(a);
        DebugTarget target(a.finish("main"));
        target.load();
        StreamEnv env;
        env.sink = &target.sink;
        env.jit = target.jit();
        target.jit()->config().hotThreshold = 4;
        FuncCpu cpu(target.arch, target.mem, &target.engine, env);
        if (split) {
            FuncResult r1 = cpu.run(17);
            ASSERT_EQ(r1.halt, HaltReason::InstLimit);
            EXPECT_EQ(r1.appInsts, 17u);
            FuncResult r2 = cpu.run(101);
            ASSERT_EQ(r2.halt, HaltReason::InstLimit);
            EXPECT_EQ(r2.appInsts, 101u);
            FuncResult r3 = cpu.run();
            ASSERT_EQ(r3.halt, HaltReason::Exited);
        } else {
            FuncResult r = cpu.run();
            ASSERT_EQ(r.halt, HaltReason::Exited);
        }
        marks[split] = target.sink.marks.at(0);
    }
    EXPECT_EQ(marks[0], 5050u);
    EXPECT_EQ(marks[1], marks[0]);
}

// ------------------------------------------------ DISE-called handlers

/** Expand every store into an address match against dr3 and a call of
 *  the handler at dr5 on a match: d_ccall, or d_beq over d_call. */
Production
callOnMatchProduction(bool conditionalCall)
{
    auto R = [](RegId r) { return TRegField::reg(r); };
    Production p;
    p.name = "call-on-match";
    p.pattern = Pattern::forClass(OpClass::Store);
    p.replacement.push_back(TemplateInst::trigInst());
    p.replacement.push_back(TemplateInst::mem(Opcode::LDA, R(dr(1)),
                                              TImmField::trigImm(),
                                              TRegField::trigRb()));
    p.replacement.push_back(TemplateInst::op3(Opcode::CMPEQ, R(dr(1)),
                                              R(dr(3)), R(dr(2))));
    if (conditionalCall) {
        TemplateInst c;
        c.op = Opcode::D_CCALL;
        c.ra = R(dr(2));
        c.rb = R(dr(5));
        p.replacement.push_back(c);
    } else {
        TemplateInst skip;
        skip.op = Opcode::D_BEQ;
        skip.ra = R(dr(2));
        skip.imm = TImmField::imm(1);
        p.replacement.push_back(skip);
        TemplateInst c;
        c.op = Opcode::D_CALL;
        c.rb = R(dr(5));
        p.replacement.push_back(c);
    }
    return p;
}

/**
 * A 60-lap loop storing to "cell" every lap; the store address is
 * "other" except on laps where (lap & mask) == mask, where it is
 * "watched". The handler counts its calls in dr0 through d_mfr/d_mtr.
 */
Program
callLoopProgram(uint8_t mask)
{
    Assembler a;
    a.data(0x0200'0000);
    a.label("watched");
    a.quad(0);
    a.label("other");
    a.quad(0);
    a.text(0x0100'0000);
    a.label("main");
    a.la(s0, "other");
    a.li(t1, 0);
    a.li(s1, 60);
    a.label("loop");
    a.and_(t1, mask, t4);
    a.cmpeq(t4, mask, t4);
    a.sll(t4, 3, t4);
    a.subq(s0, t4, t5); // &watched when the lap matches, else &other
    a.label("the_store");
    a.stq(t1, 0, t5);
    a.addq(t1, 1, t1);
    a.subq(s1, 1, s1);
    a.bne(s1, "loop");
    a.syscall(SysExit);
    a.label("handler");
    a.d_mfr(t8, dr(0));
    a.addq(t8, 1, t8);
    a.d_mtr(dr(0), t8);
    a.d_ret();
    return a.finish("main");
}

struct CallLoopRun
{
    FuncResult res;
    uint64_t calls = 0;
    TraceCacheStats stats;
    TraceRef loopTrace;
    Addr loopPc = 0, storePc = 0;
};

CallLoopRun
runCallLoop(uint8_t mask, bool conditionalCall, bool jit)
{
    Program prog = callLoopProgram(mask);
    DebugTarget target(prog);
    target.engine.addProduction(callOnMatchProduction(conditionalCall));
    target.arch.writeDise(3, prog.symbol("watched"));
    target.arch.writeDise(5, prog.symbol("handler"));
    target.load();
    StreamEnv env;
    env.sink = &target.sink;
    if (jit) {
        env.jit = target.jit();
        target.jit()->config().hotThreshold = 4;
    }
    FuncCpu cpu(target.arch, target.mem, &target.engine, env);
    CallLoopRun r;
    r.res = cpu.run();
    r.calls = target.arch.readDise(0);
    r.stats = target.jit()->stats();
    r.loopPc = prog.symbol("loop");
    r.storePc = prog.symbol("the_store");
    r.loopTrace =
        target.jit()->lookup(r.loopPc, target.engine.tableVersion());
    return r;
}

void
expectSameRun(const CallLoopRun &on, const CallLoopRun &off)
{
    EXPECT_EQ(on.res.halt, HaltReason::Exited);
    EXPECT_EQ(on.res.appInsts, off.res.appInsts);
    EXPECT_EQ(on.res.microOps, off.res.microOps);
    EXPECT_EQ(on.res.handlerOps, off.res.handlerOps);
    EXPECT_EQ(on.calls, off.calls);
}

size_t
countKind(const Trace &t, TraceOpKind k)
{
    size_t n = 0;
    for (const TraceOp &o : t.ops)
        n += o.kind == k;
    return n;
}

/** A d_ccall that fell through while recording is kept as a guard op,
 *  and the handler calls still happen (through guard exits). */
TEST(TraceJit, NotTakenCcallIsRecordedAsGuard)
{
    CallLoopRun off = runCallLoop(15, true, false);
    CallLoopRun on = runCallLoop(15, true, true);
    EXPECT_EQ(off.calls, 3u); // laps 15, 31, 47
    expectSameRun(on, off);
    ASSERT_TRUE(on.loopTrace);
    EXPECT_EQ(countKind(*on.loopTrace, TraceOpKind::CallGuard), 1u);
    EXPECT_EQ(on.loopTrace->endPc, on.loopPc); // a whole-lap loop trace
    EXPECT_GT(on.stats.callExits, 0u);
}

/** A d_ccall taken while recording ends the trace at the last raw
 *  boundary: just before the store that triggered the call. */
TEST(TraceJit, TakenCcallTrimsAtLastRawBoundary)
{
    CallLoopRun off = runCallLoop(0, true, false); // every lap matches
    CallLoopRun on = runCallLoop(0, true, true);
    EXPECT_EQ(off.calls, 60u);
    expectSameRun(on, off);
    ASSERT_TRUE(on.loopTrace);
    EXPECT_EQ(on.loopTrace->endPc, on.storePc);
    for (const TraceOp &o : on.loopTrace->ops)
        EXPECT_LT(o.expCtx, 0); // raw ops only: the expansion was cut
    EXPECT_EQ(on.stats.callExits, 0u);
}

/** D_CALL (behind a d_beq skip) never enters a trace; the d_beq is a
 *  DiseBranch guard. Handler ops — D_MFR, D_MTR, D_RET — never do. */
TEST(TraceJit, DiseCallAndMovesStayHostile)
{
    CallLoopRun off = runCallLoop(15, false, false);
    CallLoopRun on = runCallLoop(15, false, true);
    EXPECT_EQ(off.calls, 3u);
    expectSameRun(on, off);
    ASSERT_TRUE(on.loopTrace);
    EXPECT_EQ(countKind(*on.loopTrace, TraceOpKind::DiseBranch), 1u);
    for (const TraceOp &o : on.loopTrace->ops) {
        Format f = o.inst.info().fmt;
        EXPECT_NE(f, Format::DiseCall);
        EXPECT_NE(f, Format::DiseMove);
        EXPECT_NE(o.inst.op, Opcode::D_RET);
    }
    EXPECT_GT(on.stats.sideExits, 0u);
}

/**
 * Under a debug session with the default DISE production, a watch hit
 * inside a traced loop leaves the trace through its d_ccall guard; the
 * interpreter then runs the handler, and every stop lands at the µop
 * time, instruction count and PC the plain interpreter reports.
 */
TEST(TraceJit, GuardExitRedeliversHandlerAtSameTime)
{
    std::vector<std::string> stops[2];
    TraceCacheStats stats;
    for (int jit = 0; jit < 2; ++jit) {
        Program prog = callLoopProgram(15);
        SessionOptions o;
        if (!jit)
            o.prepare = [](DebugTarget &t) {
                t.jit()->config().enabled = false;
            };
        DebugSession session(prog, o);
        ASSERT_GE(session.setWatch(WatchSpec::scalar(
                      "watched", prog.symbol("watched"), 8)),
                  0);
        ASSERT_TRUE(session.attach());
        for (;;) {
            StopInfo s = session.cont();
            stops[jit].push_back(s.describe());
            if (s.reason != StopReason::Event)
                break;
        }
        if (jit)
            stats = session.target().jit()->stats();
    }
    // Laps 15, 31, 47 store a new value to the watched cell.
    EXPECT_EQ(stops[0].size(), 4u);
    EXPECT_EQ(stops[1], stops[0]);
    EXPECT_GT(stats.callExits, 0u);
}

// ------------------------------------------- side-exit traces, links

/**
 * An odd/even forward branch in a loop of @p laps laps. Returns the
 * run's final SysMark; the landing of the odd-lap path is "odd".
 */
Program
branchyLoopProgram(uint8_t laps, uint8_t addend = 3)
{
    Assembler a;
    a.data(0x0200'0000);
    a.text(0x0100'0000);
    a.label("main");
    a.li(t1, 0);
    a.li(t3, 0);
    a.label("loop");
    a.and_(t1, 1, t4);
    a.beq(t4, "even");
    a.label("odd");
    a.addq(t3, addend, t3);
    a.label("even");
    a.addq(t3, t1, t3);
    a.addq(t1, 1, t1);
    a.cmplt(t1, laps, t4);
    a.bne(t4, "loop");
    a.mov(t3, a0);
    a.syscall(SysMark);
    a.syscall(SysExit);
    return a.finish("main");
}

struct BranchyRun
{
    uint64_t mark = 0;
    FuncResult res;
    TraceCacheStats stats;
    TraceRef loopTrace, sideTrace;
    Addr loopPc = 0;
};

BranchyRun
runBranchy(uint8_t laps, bool jit)
{
    Program prog = branchyLoopProgram(laps);
    DebugTarget target(prog);
    target.load();
    StreamEnv env;
    env.sink = &target.sink;
    if (jit) {
        env.jit = target.jit();
        target.jit()->config().hotThreshold = 4;
    }
    FuncCpu cpu(target.arch, target.mem, &target.engine, env);
    BranchyRun r;
    r.res = cpu.run();
    r.mark = target.sink.marks.at(0);
    r.stats = target.jit()->stats();
    r.loopPc = prog.symbol("loop");
    uint64_t tv = target.engine.tableVersion();
    r.loopTrace = target.jit()->lookup(r.loopPc, tv);
    r.sideTrace = target.jit()->lookup(prog.symbol("odd"), tv);
    return r;
}

/**
 * With hotThreshold 4, four back edges make the loop hot and lap 4
 * (even) is recorded. Odd laps 5, 7, 9, 11 then side-exit at the
 * branch and land on "odd"; the fourth landing, on lap 11, records a
 * side trace there. Eleven laps see three landings and no side trace.
 */
TEST(TraceJit, SideExitHeadBuiltAfterHotThresholdExits)
{
    BranchyRun few = runBranchy(11, true);
    EXPECT_EQ(few.mark, runBranchy(11, false).mark);
    ASSERT_TRUE(few.loopTrace);
    EXPECT_FALSE(few.sideTrace);
    EXPECT_EQ(few.stats.built, 1u);

    BranchyRun enough = runBranchy(13, true);
    EXPECT_EQ(enough.mark, runBranchy(13, false).mark);
    ASSERT_TRUE(enough.loopTrace);
    EXPECT_TRUE(enough.sideTrace);
    EXPECT_EQ(enough.stats.built, 2u);
}

/**
 * The side recording reaches the loop head, which holds a valid trace:
 * it stops there (five raw ops, "odd" through the back edge) and the
 * dispatch loop chains into the loop trace. Of a long run only the
 * warm-up and the odd laps' failed branch stay interpreted (about 12%;
 * without the side trace the odd laps' bodies would too, about 46%).
 */
TEST(TraceJit, RecordingStopsAtExistingHeadAndChains)
{
    BranchyRun on = runBranchy(200, true);
    BranchyRun off = runBranchy(200, false);
    EXPECT_EQ(on.mark, off.mark);
    EXPECT_EQ(on.res.microOps, off.res.microOps);
    ASSERT_TRUE(on.loopTrace);
    ASSERT_TRUE(on.sideTrace);
    EXPECT_EQ(on.sideTrace->endPc, on.loopPc);
    EXPECT_EQ(on.sideTrace->ops.size(), 5u);
    EXPECT_EQ(on.loopTrace->endPc, on.loopPc);
    EXPECT_GT(on.stats.runs, on.stats.sideExits);
    EXPECT_GT(on.stats.tracedUops * 10, on.res.microOps * 8);
}

/**
 * Two phases of the branchy loop; between them the program patches the
 * odd path's addend. The write lands on the page both linked traces
 * were decoded from, so the pair is dropped and the patched code runs.
 */
TEST(TraceJit, SmcStoreInvalidatesLinkedPair)
{
    uint32_t patched = encode(makeOpImm(Opcode::ADDQ_I, t3, 7, t3));
    uint64_t marks[2];
    for (int jit = 0; jit < 2; ++jit) {
        Assembler a;
        a.data(0x0200'0000);
        a.text(0x0100'0000);
        a.label("main");
        a.la(s0, "odd");
        a.li(t2, patched);
        a.li(t3, 0);
        a.li(s2, 0); // phase counter
        a.label("again");
        a.li(t1, 0);
        a.label("loop");
        a.and_(t1, 1, t4);
        a.beq(t4, "even");
        a.label("odd");
        a.addq(t3, 3, t3); // phase 0: +3; phase 1 (patched): +7
        a.label("even");
        a.addq(t3, t1, t3);
        a.addq(t1, 1, t1);
        a.cmplt(t1, 40, t4);
        a.bne(t4, "loop");
        a.stl(t2, 0, s0); // patch the odd path
        a.addq(s2, 1, s2);
        a.cmplt(s2, 2, t4);
        a.bne(t4, "again");
        a.mov(t3, a0);
        a.syscall(SysMark);
        a.syscall(SysExit);

        Program prog = a.finish("main");
        DebugTarget target(prog);
        target.load();
        StreamEnv env;
        env.sink = &target.sink;
        if (jit) {
            env.jit = target.jit();
            target.jit()->config().hotThreshold = 4;
        }
        FuncCpu cpu(target.arch, target.mem, &target.engine, env);
        FuncResult r = cpu.run();
        ASSERT_EQ(r.halt, HaltReason::Exited);
        marks[jit] = target.sink.marks.at(0);
        if (jit) {
            const TraceCacheStats &s = target.jit()->stats();
            // Phase 0 builds the loop trace and its side trace; the
            // patch drops both.
            EXPECT_GE(s.invalidated, 2u);
            EXPECT_GE(s.built, 4u); // and phase 1 rebuilds both
        }
    }
    // sum(0..39) twice, plus 20 odd laps at +3 then at +7.
    EXPECT_EQ(marks[0], 2u * 780u + 20u * 3u + 20u * 7u);
    EXPECT_EQ(marks[1], marks[0]);
}

} // namespace
} // namespace dise
