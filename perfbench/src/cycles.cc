/**
 * @file
 * The `cycles` workload: the paper's Figure 3 method, in-process, one
 * thread. Each pass builds a fresh ExperimentRunner (so baselines are
 * re-simulated) and runs, for each of the six Table-1 kernels, the
 * undebugged cycle-level baseline plus DISE-debugged runs with an
 * unconditional HOT and an unconditional RANGE watch.
 *
 * app_mips is the host speed of the timing model: simulated
 * instructions of the timed phase per second of this thread's CPU
 * time. The run is one thread, so its CPU time is its busy time; the
 * clock leaves out the time the thread waits for a core on a shared
 * host, which the wall clock would count.
 *
 * Oracle: the simulated numbers are deterministic, so every pass must
 * reproduce the first pass's cycles, retired instructions and watch
 * events cell for cell (and hence an identical sim_overhead_x), and
 * each debugged run must report as many watch events as a functional
 * run of the same watch on the plain interpreter.
 */

#include <algorithm>
#include <cmath>

#include "common.hh"
#include "harness/experiment.hh"

namespace perfbench {

using namespace dise;

namespace {

constexpr unsigned kScale = 1;
constexpr unsigned kSetups = 9;
constexpr size_t kMinPasses = 3;
const WatchSel kWatches[] = {WatchSel::HOT, WatchSel::RANGE};

struct Cell
{
    uint64_t cycles = 0;
    uint64_t appInsts = 0;
    size_t watchEvents = 0;

    uint64_t
    digest() const
    {
        return fnvU64(watchEvents, fnvU64(appInsts, fnvU64(cycles, 0)));
    }
};

HarnessOptions
harness(uint64_t seed)
{
    HarnessOptions h;
    h.scale = kScale;
    h.seed = seed;
    return h;
}

} // namespace

void
runCycles(Ctx &ctx, double seconds)
{
    const std::vector<std::string> &kernels = workloadNames();

    // ------------------------------------------------------- set-up
    // Building the runner and its six kernels.
    std::vector<double> setups;
    for (unsigned k = 0; k < kSetups; ++k) {
        uint64_t t0 = nowNs();
        ExperimentRunner run(harness(ctx.seed));
        for (const std::string &name : kernels)
            run.workload(name);
        setups.push_back(secondsSince(t0));
    }
    ctx.samples("setup_s", setups);

    // -------------------------------------------------- timed phase
    // Cells differ in length by 20x, so each cell's latency is
    // reported per 1000 simulated instructions (host time per
    // simulated event): a continuous distribution whose percentiles
    // do not jump between cell types. At least kMinPasses passes run,
    // so the p80 always has its 50 samples.
    std::vector<std::vector<Cell>> passes;
    std::vector<double> overheads;
    uint64_t insts = 0;
    auto cell = [&](std::vector<Cell> &cells, uint64_t t0, const RunStats &s,
                    size_t events) {
        double us = usSince(t0);
        ctx.sample("cell_us", us);
        ctx.sample("op_us", us * 1000 / std::max<uint64_t>(1, s.appInsts));
        insts += s.appInsts;
        cells.push_back({s.cycles, s.appInsts, events});
    };
    uint64_t start = nowNs();
    uint64_t startCpu = threadCpuNs();
    uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    while (nowNs() < deadline || passes.size() < kMinPasses) {
        SpanScope pass("cycles.pass");
        ExperimentRunner run(harness(ctx.seed));
        std::vector<Cell> cells;
        double logSum = 0;
        for (const std::string &name : kernels) {
            run.workload(name);
            uint64_t t0 = nowNs();
            RunStats base;
            {
                SpanScope sp("cycles.baseline");
                base = run.baseline(name);
            }
            ctx.ops.check(base.cycles > 0, "baseline of " + name);
            cell(cells, t0, base, 0);
            for (WatchSel sel : kWatches) {
                DebuggerOptions d;
                d.backend = BackendKind::Dise;
                uint64_t t1 = nowNs();
                RunOutcome o;
                {
                    SpanScope sp("cycles.debugged");
                    o = run.debugged(
                        name, {run.standardWatch(name, sel, false)}, d);
                }
                ctx.ops.check(o.supported && o.stats.cycles > 0,
                              "debugged run of " + name);
                cell(cells, t1, o.stats, o.watchEvents);
                logSum += std::log(static_cast<double>(o.stats.cycles) /
                                   base.cycles);
            }
        }
        overheads.push_back(std::exp(logSum / (2 * kernels.size())));
        passes.push_back(std::move(cells));
    }
    double elapsed = secondsSince(start);
    double cpuSeconds = (threadCpuNs() - startCpu) / 1e9;
    ctx.set("peak_rss_mb", peakRssMb());
    ctx.set("app_mips", insts / cpuSeconds / 1e6);
    ctx.set("cycles.wall_mips", insts / elapsed / 1e6);
    ctx.set("sim_overhead_x", overheads.front());
    ctx.set("cycles.passes", passes.size());

    // ------------------------------------------------------- oracle
    for (size_t p = 1; p < passes.size(); ++p) {
        for (size_t c = 0; c < passes[p].size(); ++c)
            ctx.expectEq(passes[0][c].digest(), passes[p][c].digest(),
                         "cycles cell " + std::to_string(c) + " of pass " +
                             std::to_string(p));
        ctx.expectEq(static_cast<uint64_t>(overheads[0] * 1e12),
                     static_cast<uint64_t>(overheads[p] * 1e12),
                     "sim_overhead_x of pass " + std::to_string(p));
    }
    for (size_t k = 0; k < kernels.size(); ++k) {
        Workload w = buildProgram(kernels[k], kScale, ctx.seed);
        for (size_t s = 0; s < 2; ++s) {
            DebugSession ref(w.program, sessionOptions(false));
            ref.setWatch(w.watch(kWatches[s]));
            ref.runToEnd();
            ctx.expectEq(passes[0][3 * k + 1 + s].watchEvents,
                         ref.eventCount(),
                         "watch events of " + kernels[k] + " " +
                             watchSelName(kWatches[s]));
        }
    }
}

} // namespace perfbench
