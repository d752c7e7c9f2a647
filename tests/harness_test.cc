/**
 * @file
 * Harness tests: option parsing, baseline caching, slowdown
 * computation, unsupported-cell reporting, and the frequency /
 * functional-summary measurement paths the table benches use.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"

namespace dise {
namespace {

TEST(HarnessArgs, Defaults)
{
    const char *argv[] = {"bench"};
    HarnessOptions o = parseHarnessArgs(1, const_cast<char **>(argv));
    EXPECT_EQ(o.scale, 1u);
    EXPECT_EQ(o.transitionCost, 100000u);
    EXPECT_FALSE(o.csv);
}

TEST(HarnessArgs, ParsesEverything)
{
    const char *argv[] = {"bench", "--scale", "3", "--transition-cost",
                          "250000", "--csv", "--seed", "99"};
    HarnessOptions o = parseHarnessArgs(8, const_cast<char **>(argv));
    EXPECT_EQ(o.scale, 3u);
    EXPECT_EQ(o.transitionCost, 250000u);
    EXPECT_EQ(o.seed, 99u);
    EXPECT_TRUE(o.csv);
}

// A bad command line is a usage error: one stderr line, exit 2.
TEST(HarnessArgs, UnknownOptionIsUsageError)
{
    const char *argv[] = {"bench", "--bogus"};
    EXPECT_EXIT(parseHarnessArgs(2, const_cast<char **>(argv)),
                testing::ExitedWithCode(2), "unknown option '--bogus'");
}

TEST(HarnessArgs, MissingValueIsUsageError)
{
    const char *argv[] = {"bench", "--scale"};
    EXPECT_EXIT(parseHarnessArgs(2, const_cast<char **>(argv)),
                testing::ExitedWithCode(2), "missing value for --scale");
}

TEST(HarnessArgs, BadScaleIsUsageError)
{
    for (const char *bad : {"0", "x", "3x", "", "-1"}) {
        const char *argv[] = {"bench", "--scale", bad};
        EXPECT_EXIT(parseHarnessArgs(3, const_cast<char **>(argv)),
                    testing::ExitedWithCode(2), "--scale wants")
            << "--scale '" << bad << "'";
    }
}

TEST(Runner, BaselineIsCachedAndStable)
{
    ExperimentRunner run;
    const RunStats &a = run.baseline("crafty");
    const RunStats &b = run.baseline("crafty");
    EXPECT_EQ(&a, &b);
    EXPECT_GT(a.cycles, 0u);
    EXPECT_EQ(a.halt, HaltReason::Exited);
}

TEST(Runner, UndebuggedSlowdownIsUnity)
{
    // Attaching a DISE debugger with no watchpoints and no breakpoints
    // adds no productions: slowdown must be exactly 1.
    ExperimentRunner run;
    DebuggerOptions o;
    o.backend = BackendKind::Dise;
    RunOutcome out = run.debugged("crafty", {}, o);
    ASSERT_TRUE(out.supported);
    EXPECT_NEAR(out.slowdown, 1.0, 1e-9);
}

TEST(Runner, UnsupportedCellsReported)
{
    ExperimentRunner run;
    DebuggerOptions vm;
    vm.backend = BackendKind::VirtualMemory;
    RunOutcome out = run.debugged(
        "bzip2", {run.workload("bzip2").watch(WatchSel::INDIRECT)}, vm);
    EXPECT_FALSE(out.supported);
    EXPECT_EQ(slowdownCell(out), "n/a");
}

TEST(Runner, StandardWatchConditionalNeverMatches)
{
    ExperimentRunner run;
    WatchSpec plain = run.standardWatch("twolf", WatchSel::HOT, false);
    WatchSpec cond = run.standardWatch("twolf", WatchSel::HOT, true);
    EXPECT_FALSE(plain.conditional);
    EXPECT_TRUE(cond.conditional);
    EXPECT_EQ(plain.addr, cond.addr);

    // The Figure 4 predicate truly never matches: zero user events.
    DebuggerOptions dd;
    dd.backend = BackendKind::Dise;
    RunOutcome out = run.debugged("twolf", {cond}, dd);
    ASSERT_TRUE(out.supported);
    EXPECT_EQ(out.watchEvents, 0u);
}

TEST(Runner, TransitionCostScalesSpuriousRuns)
{
    HarnessOptions cheap;
    cheap.transitionCost = 1000;
    HarnessOptions dear;
    dear.transitionCost = 100000;
    ExperimentRunner rc(cheap), rd(dear);
    DebuggerOptions hw;
    hw.backend = BackendKind::HardwareReg;
    // HOT/crafty is dominated by spurious value transitions.
    auto spec = rc.workload("crafty").watch(WatchSel::HOT);
    double sc = rc.debugged("crafty", {spec}, hw).slowdown;
    double sd = rd.debugged("crafty", {spec}, hw).slowdown;
    EXPECT_GT(sd, sc * 20);
}

TEST(Runner, FunctionalSummaryConsistent)
{
    ExperimentRunner run;
    auto sum = run.functionalSummary("bzip2");
    EXPECT_GT(sum.appInsts, 0u);
    EXPECT_NEAR(sum.storeDensity,
                static_cast<double>(sum.stores) / sum.appInsts, 1e-12);
    // Timing and functional app-instruction counts agree exactly.
    EXPECT_EQ(sum.appInsts, run.baseline("bzip2").appInsts);
}

TEST(Runner, FrequenciesSumSanely)
{
    ExperimentRunner run;
    auto rows = run.measureFrequencies("crafty");
    for (const auto &[sel, row] : rows) {
        EXPECT_GE(row.per100k, 0.0);
        EXPECT_LE(row.per100k, 100000.0);
        EXPECT_GE(row.silentPct, 0.0);
        EXPECT_LE(row.silentPct, 100.0);
    }
}

TEST(Runner, EventsCountedInOutcome)
{
    ExperimentRunner run;
    DebuggerOptions dd;
    dd.backend = BackendKind::Dise;
    auto spec = run.workload("crafty").watch(WatchSel::WARM1);
    RunOutcome out = run.debugged("crafty", {spec}, dd);
    ASSERT_TRUE(out.supported);
    EXPECT_GT(out.watchEvents, 0u);
}

TEST(Runner, SeedChangesWorkloadData)
{
    HarnessOptions a, b;
    b.seed = 777;
    ExperimentRunner ra(a), rb(b);
    // Different seeds produce different dynamic store streams for the
    // LCG-driven kernels (same structure, different data).
    auto fa = ra.measureFrequencies("twolf");
    auto fb = rb.measureFrequencies("twolf");
    EXPECT_NE(fa[WatchSel::HOT].per100k, fb[WatchSel::HOT].per100k);
}

} // namespace
} // namespace dise
