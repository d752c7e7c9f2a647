/**
 * @file
 * Pipeline configuration sweeps: the timing model must respond sanely
 * and monotonically to its structural parameters (width, window sizes,
 * cache geometry, front-end depth, transition cost), and the DISE
 * mechanisms must interact with them the way the paper's analysis
 * assumes (flush costs scale with depth, bandwidth costs with width).
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "harness/experiment.hh"

namespace dise {
namespace {

RunStats
runCrafty(TimingConfig cfg)
{
    Workload w = buildCrafty({});
    DebugTarget t(w.program);
    t.load();
    StreamEnv env;
    env.sink = &t.sink;
    TimingCpu cpu(t.arch, t.mem, &t.engine, env, cfg);
    return cpu.run({});
}

TEST(ConfigSweep, WiderIsNotSlower)
{
    TimingConfig narrow;
    narrow.width = 2;
    narrow.intAlus = 2;
    TimingConfig wide;
    wide.width = 8;
    wide.intAlus = 8;
    RunStats n = runCrafty(narrow);
    RunStats w = runCrafty(wide);
    EXPECT_LT(w.cycles, n.cycles);
    EXPECT_EQ(n.appInsts, w.appInsts); // same work
}

/** Figure 2a-style unconditional watch check appended to every store. */
Production
storeCheckProduction()
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

struct GoldenStats
{
    uint64_t cycles, microOps, appInsts;
    uint64_t mispredictFlushes, diseFlushes, serializeFlushes;
    uint64_t loads, stores;
};

void
expectGolden(const RunStats &r, const GoldenStats &g)
{
    EXPECT_EQ(r.cycles, g.cycles);
    EXPECT_EQ(r.microOps, g.microOps);
    EXPECT_EQ(r.appInsts, g.appInsts);
    EXPECT_EQ(r.mispredictFlushes, g.mispredictFlushes);
    EXPECT_EQ(r.diseFlushes, g.diseFlushes);
    EXPECT_EQ(r.serializeFlushes, g.serializeFlushes);
    EXPECT_EQ(r.loads, g.loads);
    EXPECT_EQ(r.stores, g.stores);
}

TEST(ConfigSweep, DefaultConfigMatchesPinnedCycles)
{
    // Pinned from the model with its ROB scan cursors and µop-pool
    // references each swapped for the legacy whole-window scans and
    // per-op copies: all three variants agreed bit for bit. Any change
    // to these numbers is a change to the simulated machine.
    expectGolden(runCrafty({}),
                 {40412, 146466, 146466, 100, 0, 2, 385, 13454});

    Workload w = buildBzip2({});
    DebugTarget t(w.program);
    t.engine.addProduction(storeCheckProduction());
    t.arch.writeDise(3, w.hotAddr);
    t.load();
    StreamEnv env;
    env.sink = &t.sink;
    TimingCpu cpu(t.arch, t.mem, &t.engine, env, {});
    RunStats r = cpu.run({});
    expectGolden(r, {263942, 971585, 610442, 194, 0, 3, 80125, 120381});
    EXPECT_EQ(r.expansionOps, 361143u);
    EXPECT_EQ(r.transitionsUser, 16000u);
}

TEST(ConfigSweep, DeeperFrontEndCostsMore)
{
    TimingConfig shallow;
    shallow.frontDepth = 4;
    TimingConfig deep;
    deep.frontDepth = 24;
    // twolf mispredicts a lot; deeper redirects must hurt.
    Workload w = buildTwolf({});
    auto run = [&](TimingConfig cfg) {
        DebugTarget t(w.program);
        t.load();
        StreamEnv env;
        env.sink = &t.sink;
        TimingCpu cpu(t.arch, t.mem, &t.engine, env, cfg);
        return cpu.run({});
    };
    EXPECT_LT(run(shallow).cycles, run(deep).cycles);
}

TEST(ConfigSweep, SmallerRobIsNotFaster)
{
    TimingConfig small;
    small.robSize = 16;
    small.rsSize = 8;
    TimingConfig big;
    RunStats s = runCrafty(small);
    RunStats b = runCrafty(big);
    EXPECT_LE(b.cycles, s.cycles);
}

TEST(ConfigSweep, MemoryLatencyGovernsSerialChains)
{
    // A single dependent pointer chase has no memory-level parallelism
    // for the window to mine, so its cycle count must track the DRAM
    // latency. (mcf itself runs four chains and becomes bus-bandwidth
    // bound instead — see BusBandwidthGovernsMcf.)
    using namespace reg;
    Assembler a;
    a.data(0x0200'0000);
    a.label("nodes");
    {
        constexpr unsigned N = 4096; // 256KB of 64B nodes
        std::vector<uint8_t> net(N * 64);
        for (unsigned j = 0; j < N; ++j) {
            uint64_t ptr = 0x0200'0000 + ((j + 1537) % N) * 64;
            for (int b = 0; b < 8; ++b)
                net[j * 64 + b] = (ptr >> (8 * b)) & 0xff;
        }
        a.blob(std::move(net));
    }
    a.text(0x0100'0000);
    a.label("main");
    a.la(t0, "nodes");
    a.li(t9, 2000);
    a.lda(t8, 0, zero);
    a.label("loop");
    a.ldq(t0, 0, t0);
    a.addq(t8, 1, t8);
    a.cmplt(t8, t9, t1);
    a.bne(t1, "loop");
    a.syscall(SysExit);
    Program prog = a.finish("main");

    auto run = [&](unsigned lat) {
        TimingConfig cfg;
        cfg.mem.memLatency = lat;
        cfg.mem.l1d.sizeBytes = 4096; // force misses
        cfg.mem.l2.sizeBytes = 64 * 1024;
        DebugTarget t(prog);
        t.load();
        StreamEnv env;
        env.sink = &t.sink;
        TimingCpu cpu(t.arch, t.mem, &t.engine, env, cfg);
        return cpu.run({});
    };
    RunStats fast = run(20);
    RunStats slow = run(300);
    EXPECT_GT(static_cast<double>(slow.cycles) / fast.cycles, 1.8);
}

TEST(ConfigSweep, BusBandwidthGovernsMcf)
{
    // mcf's four chains expose enough memory-level parallelism that the
    // 32-byte bus, not raw latency, sets its throughput.
    Workload w = buildMcf({});
    auto run = [&](unsigned busCycles) {
        TimingConfig cfg;
        cfg.mem.busCyclesPerLine = busCycles;
        DebugTarget t(w.program);
        t.load();
        StreamEnv env;
        env.sink = &t.sink;
        TimingCpu cpu(t.arch, t.mem, &t.engine, env, cfg);
        return cpu.run({});
    };
    RunStats fast = run(2);
    RunStats slow = run(24);
    EXPECT_GT(static_cast<double>(slow.cycles) / fast.cycles, 1.3);
}

TEST(ConfigSweep, TinyICacheHurtsGcc)
{
    Workload w = buildGcc({});
    auto run = [&](uint64_t icacheBytes) {
        TimingConfig cfg;
        cfg.mem.l1i.sizeBytes = icacheBytes;
        DebugTarget t(w.program);
        t.load();
        StreamEnv env;
        env.sink = &t.sink;
        TimingCpu cpu(t.arch, t.mem, &t.engine, env, cfg);
        return cpu.run({});
    };
    RunStats big = run(64 * 1024);
    RunStats tiny = run(2 * 1024);
    EXPECT_GT(tiny.cycles, big.cycles * 11 / 10);
}

/** Parameterized: every (width, robSize) combination completes with
 *  identical architectural results. */
class GeometryGrid
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(GeometryGrid, SameArchitecturalOutcome)
{
    auto [width, rob] = GetParam();
    TimingConfig cfg;
    cfg.width = width;
    cfg.intAlus = width;
    cfg.robSize = rob;
    cfg.rsSize = rob > 16 ? rob / 2 : rob;

    Workload w = buildCrafty({});
    DebugTarget t(w.program);
    t.load();
    StreamEnv env;
    env.sink = &t.sink;
    TimingCpu cpu(t.arch, t.mem, &t.engine, env, cfg);
    RunStats s = cpu.run({});
    EXPECT_EQ(s.halt, HaltReason::Exited);
    // Architectural results are timing-independent.
    ASSERT_EQ(t.sink.marks.size(), 1u);
    static uint64_t expected = 0;
    if (!expected)
        expected = t.sink.marks[0];
    EXPECT_EQ(t.sink.marks[0], expected);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GeometryGrid,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(16u, 64u, 128u, 256u)));

/** DISE overhead must shrink as the machine gets wider (bandwidth
 *  slack absorbs the inserted instructions). */
TEST(ConfigSweep, WidthAbsorbsDiseOverhead)
{
    auto overhead = [&](unsigned width) {
        Workload w = buildBzip2({});
        TimingConfig cfg;
        cfg.width = width;
        cfg.intAlus = width;

        DebugTarget base(w.program);
        base.load();
        StreamEnv envB;
        envB.sink = &base.sink;
        TimingCpu cpuB(base.arch, base.mem, &base.engine, envB, cfg);
        uint64_t baseCycles = cpuB.run({}).cycles;

        DebugTarget t(w.program);
        DebuggerOptions o;
        o.backend = BackendKind::Dise;
        Debugger dbg(t, o);
        dbg.watch(w.watch(WatchSel::COLD));
        EXPECT_TRUE(dbg.attach());
        uint64_t dbgCycles = dbg.run(cfg, {}).cycles;
        return static_cast<double>(dbgCycles) / baseCycles;
    };
    double narrow = overhead(2);
    double wide = overhead(8);
    EXPECT_LT(wide, narrow);
}

/** Replacement-table pressure: an engine with a tiny replacement table
 *  still executes correctly (stalls, not wrong answers). */
TEST(ConfigSweep, TinyReplacementTableStillCorrect)
{
    Workload w = buildCrafty({});
    DebugTarget t(w.program);
    DiseEngineConfig ecfg;
    ecfg.replacementTableInsts = 8;
    ecfg.replacementLineInsts = 8;
    ecfg.replacementTableAssoc = 1;
    // Rebuild the engine in-place with the tiny table.
    t.engine.~DiseEngine();
    new (&t.engine) DiseEngine(ecfg);

    DebuggerOptions o;
    o.backend = BackendKind::Dise;
    Debugger dbg(t, o);
    dbg.watch(w.watch(WatchSel::WARM1));
    ASSERT_TRUE(dbg.attach());
    FuncResult r = dbg.runFunctional(100000);
    EXPECT_NE(r.halt, HaltReason::Fault);
    EXPECT_GT(dbg.watchEvents().size(), 0u);
}

} // namespace
} // namespace dise
