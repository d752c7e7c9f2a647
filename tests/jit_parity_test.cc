/**
 * @file
 * Trace-JIT / interpreter parity harness.
 *
 * The determinism contract (jit/trace.hh) says record mode is
 * bit-identical with the trace cache on or off: same stop positions,
 * same µop timestamps, same state digests, same tool state, same
 * interval-replay verification. This harness drives one eventful
 * session script — forward runs, slices, steps, reverse travel, a
 * mid-run tool enable, and a full replay-verify — under every backend
 * three times: cache off, cache on, and cache flipped between verbs.
 * Any divergence in the recorded stop log is a failure. Two programs
 * run the script: a register-only hot loop with a watch hit per outer
 * lap, and a loop whose traced body stores (to unwatched cells and,
 * every 64th lap, to the watched one) and branches on data, so watch
 * hits arrive through in-trace d_ccall guards and side-exit traces
 * form and link back to the loop trace.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "cpu/loader.hh"
#include "jit/trace_cache.hh"
#include "session/debug_session.hh"

namespace dise {
namespace {

using namespace reg;

/**
 * A register-only inner loop, hot enough to get traced, under an outer
 * loop that stores to "mark" once per lap — long JIT-friendly
 * stretches punctuated by watch hits.
 */
Program
hotLoopProgram()
{
    Assembler a;
    a.data(layout::DataBase);
    a.label("mark");
    a.quad(0);
    a.text(layout::TextBase);
    a.label("main");
    a.la(s0, "mark");
    a.lda(t1, 0, zero);
    a.lda(t3, 0, zero);
    a.label("outer");
    a.stmt(1);
    a.lda(t2, 0, zero);
    a.label("inner");
    a.addq(t3, t2, t3);
    a.addq(t2, 1, t2);
    a.cmplt(t2, 60, t4);
    a.bne(t4, "inner");
    a.label("the_store");
    a.stq(t3, 0, s0);
    a.addq(t1, 1, t1);
    a.cmplt(t1, 6, t4);
    a.bne(t4, "outer");
    a.syscall(SysExit);
    return a.finish("main");
}

/**
 * Every lap stores to "sink" and to one of two neighbouring quads: the
 * unwatched "spill" on most laps, the watched "mark" on every 64th
 * (a new value each time, so each such lap is a watch hit). An
 * odd/even forward branch sends half the laps down each path.
 */
Program
guardedStoreLoopProgram()
{
    Assembler a;
    a.data(layout::DataBase);
    a.label("mark");
    a.quad(0);
    a.label("spill");
    a.quad(0);
    a.label("sink");
    a.quad(0);
    a.text(layout::TextBase);
    a.label("main");
    a.la(s0, "spill");
    a.la(s1, "sink");
    a.li(s2, 400);
    a.lda(t1, 0, zero);
    a.lda(t3, 0, zero);
    a.label("loop");
    a.stmt(1);
    a.stq(t3, 0, s1);
    a.and_(t1, 63, t4);
    a.cmpeq(t4, 63, t4);
    a.sll(t4, 3, t4);
    a.subq(s0, t4, t5); // &mark on every 64th lap, else &spill
    a.stq(t1, 0, t5);
    a.and_(t1, 1, t4);
    a.beq(t4, "even");
    a.addq(t3, 3, t3);
    a.label("even");
    a.addq(t3, t1, t3);
    a.addq(t1, 1, t1);
    a.cmplt(t1, s2, t4);
    a.bne(t4, "loop");
    a.syscall(SysExit);
    return a.finish("main");
}

enum class JitMode { Off, On, Flip };

/**
 * Run the fixed verb script and record every observable: stop reason,
 * position (µop time, app insts, pc), event identity, and the session
 * digest after each verb; then the tool-state digest and the
 * interval-replay verification. Returns the log for cross-mode diff.
 */
std::vector<std::string>
runScenario(const Program &prog, const DebuggerOptions &dbg, JitMode mode,
            TraceCacheStats *jitStats)
{
    const BackendKind kind = dbg.backend;
    SessionOptions o;
    o.debugger = dbg;
    o.timeTravel.checkpointInterval = 64;
    DebugSession session(prog, o);
    EXPECT_GE(session.setWatch(
                  WatchSpec::scalar("mark", prog.symbol("mark"), 8)),
              0);
    EXPECT_TRUE(session.attach()) << backendName(kind);
    auto jitCfg = [&]() -> TraceJitConfig & {
        return session.target().jit()->config();
    };
    if (mode == JitMode::Off)
        jitCfg().enabled = false;
    auto flip = [&]() {
        if (mode == JitMode::Flip)
            jitCfg().enabled = !jitCfg().enabled;
    };

    std::vector<std::string> log;
    auto rec = [&](const char *verb, const StopInfo &s) {
        std::ostringstream os;
        os << verb << " reason=" << static_cast<int>(s.reason)
           << " time=" << s.time << " insts=" << s.appInsts
           << " pc=" << std::hex << s.pc << " markpc=" << s.mark.pc
           << std::dec << " events=" << session.eventCount()
           << " digest=" << std::hex << session.digest();
        log.push_back(os.str());
    };

    rec("cont1", session.cont());
    flip();
    rec("stepi", session.stepi(7));
    flip();
    rec("cont2", session.cont());
    flip();
    rec("rstep", session.reverseStep(40));
    flip();
    rec("slice", session.contSlice(123));
    flip();
    rec("cont3", session.cont());
    flip();
    std::string err;
    EXPECT_TRUE(session.toolEnable("coverage", {}, &err)) << err;
    rec("cont4", session.cont());
    flip();
    rec("end", session.runToEnd());
    flip();
    rec("rcont", session.reverseContinue());

    std::string report;
    uint64_t toolDigest = 0;
    EXPECT_TRUE(session.toolReport("coverage", &report, &toolDigest,
                                   &err))
        << err;
    {
        std::ostringstream os;
        os << "tool digest=" << std::hex << toolDigest;
        log.push_back(os.str());
    }

    IntervalReplay::Report vr = session.verifyReplay(2);
    EXPECT_TRUE(vr.ok) << backendName(kind) << ": " << vr.error;
    {
        std::ostringstream os;
        os << "verify final=" << std::hex << vr.finalDigest
           << " live=" << vr.liveDigest << " digest=" << session.digest()
           << std::dec << " marks=" << vr.marksVerified;
        log.push_back(os.str());
    }

    if (jitStats)
        *jitStats = session.target().jit()->stats();
    return log;
}

/** Run the script off, on and flipped; every log line must agree.
 *  Returns the on-leg's trace-cache counters. */
TraceCacheStats
expectConverge(const Program &prog, const DebuggerOptions &dbg)
{
    const char *name = backendName(dbg.backend);
    TraceCacheStats on;
    std::vector<std::string> offLog =
        runScenario(prog, dbg, JitMode::Off, nullptr);
    std::vector<std::string> onLog =
        runScenario(prog, dbg, JitMode::On, &on);
    std::vector<std::string> flipLog =
        runScenario(prog, dbg, JitMode::Flip, nullptr);
    EXPECT_EQ(offLog.size(), onLog.size()) << name;
    EXPECT_EQ(offLog.size(), flipLog.size()) << name;
    for (size_t i = 0; i < offLog.size() && i < onLog.size() &&
                       i < flipLog.size();
         ++i) {
        EXPECT_EQ(offLog[i], onLog[i])
            << name << " diverged (trace on) at step " << i;
        EXPECT_EQ(offLog[i], flipLog[i])
            << name << " diverged (flip) at step " << i;
    }
    // The on-leg must actually have exercised the trace cache, or the
    // parity above proves nothing.
    EXPECT_GT(on.tracedUops, 0u) << name;
    return on;
}

DebuggerOptions
backendOptions(BackendKind kind)
{
    DebuggerOptions d;
    d.backend = kind;
    return d;
}

class JitParity : public ::testing::TestWithParam<BackendKind>
{
};

TEST_P(JitParity, TraceOnOffAndFlipConverge)
{
    expectConverge(hotLoopProgram(), backendOptions(GetParam()));
}

/**
 * Watch hits inside traced store loops. Under the DISE default
 * production the hits leave the trace through a d_ccall guard, and the
 * odd/even branch grows a side-exit trace linked back to the loop
 * trace: more traces than the program's one loop head.
 */
TEST_P(JitParity, GuardedStoresAndSideExitTracesConverge)
{
    BackendKind kind = GetParam();
    TraceCacheStats s =
        expectConverge(guardedStoreLoopProgram(), backendOptions(kind));
    if (kind == BackendKind::Dise) {
        EXPECT_GT(s.sideExits, 0u);
        EXPECT_GT(s.callExits, 0u);
        EXPECT_GT(s.built, 1u);
    }
}

/** The condCallTrap=false production skips its d_call with a d_beq:
 *  the trace carries the skip as a DiseBranch guard. */
TEST(JitParityDise, BranchOverCallShapeConverges)
{
    DebuggerOptions d = backendOptions(BackendKind::Dise);
    d.dise.condCallTrap = false;
    TraceCacheStats s = expectConverge(guardedStoreLoopProgram(), d);
    EXPECT_GT(s.sideExits, 0u);
    EXPECT_GT(s.built, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, JitParity,
                         ::testing::Values(BackendKind::Dise,
                                           BackendKind::SingleStep,
                                           BackendKind::VirtualMemory,
                                           BackendKind::HardwareReg,
                                           BackendKind::Rewrite));

} // namespace
} // namespace dise
