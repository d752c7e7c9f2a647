/**
 * @file
 * Simulator-throughput benchmark: host speed of the simulator across
 * the Figure 3/4 workloads under three instrumentation configurations:
 *
 *   off     - empty pattern table (undebugged baseline)
 *   uncond  - every store expanded with an unconditional watchpoint
 *             check (Figure 3 methodology)
 *   cond    - every store expanded with a conditional (value-predicate)
 *             watchpoint check (Figure 4 methodology)
 *
 * The functional section runs each cell twice through the interpreter
 * (predecoded µop cache, indexed production matching, memoized
 * expansions): once with the trace JIT and once without. Both legs must
 * retire identical counts; the µop-MIPS ratio is the JIT speedup. The
 * debugger section does the same for what a debug session runs: a
 * Debugger with the default DISE backend (match-address production,
 * d_ccall to a generated handler) and one WARM1 watch, run to the end.
 * The cycle-level section runs the timing model once per cell and
 * reports its simulated MIPS and cycle count. Results, with the host's
 * CPU model and core count, are emitted as BENCH_throughput.json.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "cpu/func_cpu.hh"
#include "cpu/timing_cpu.hh"
#include "debug/debugger.hh"
#include "debug/target.hh"
#include "dise/engine.hh"
#include "host_info.hh"
#include "workloads/workload.hh"

using namespace dise;

namespace {

enum class Config { Off, Uncond, Cond };

const char *
configName(Config c)
{
    switch (c) {
      case Config::Off: return "off";
      case Config::Uncond: return "uncond";
      case Config::Cond: return "cond";
    }
    return "?";
}

struct Options
{
    bool quick = false;
    unsigned reps = 2;
    uint64_t maxAppInsts = 0; ///< 0 = run workloads to completion
    uint64_t timingInsts = 300000; ///< app-inst cap for timing cells
    bool noTiming = false;
    std::string out = "BENCH_throughput.json";
};

struct Measurement
{
    std::string workload;
    Config config = Config::Off;
    bool jit = true;
    uint64_t appInsts = 0;
    uint64_t microOps = 0;
    double seconds = 0.0;

    double mips() const { return seconds > 0 ? appInsts / seconds / 1e6 : 0; }
    double
    microMips() const
    {
        return seconds > 0 ? microOps / seconds / 1e6 : 0;
    }
};

/** Figure 2a-style inline watchpoint check appended to every store. */
Production
storeCheckProduction(bool conditional)
{
    auto R = [](RegId r) { return TRegField::reg(r); };
    Production p;
    p.name = conditional ? "watch-cond" : "watch-uncond";
    p.pattern = Pattern::forClass(OpClass::Store);

    std::vector<TemplateInst> seq;
    seq.push_back(TemplateInst::trigInst());
    // Reconstruct the store address into dr1.
    seq.push_back(TemplateInst::mem(Opcode::LDA, R(dr(1)),
                                    TImmField::trigImm(),
                                    TRegField::trigRb()));
    // Address match against the watched location in dr3.
    seq.push_back(TemplateInst::op3(Opcode::CMPEQ, R(dr(1)), R(dr(3)),
                                    R(dr(2))));
    if (!conditional) {
        // Unconditional: trap whenever the watched address is written.
        TemplateInst t;
        t.op = Opcode::CTRAP;
        t.ra = R(dr(2));
        t.imm = TImmField::imm(1);
        seq.push_back(t);
    } else {
        // Conditional: on an address match, load the new value and
        // trap only when it equals the predicate constant in dr4.
        TemplateInst skip;
        skip.op = Opcode::D_BEQ;
        skip.ra = R(dr(2));
        skip.imm = TImmField::imm(3);
        seq.push_back(skip);
        seq.push_back(TemplateInst::mem(Opcode::LDQ, R(dr(0)),
                                        TImmField::imm(0), R(dr(1))));
        seq.push_back(TemplateInst::op3(Opcode::CMPEQ, R(dr(0)), R(dr(4)),
                                        R(dr(0))));
        TemplateInst t;
        t.op = Opcode::CTRAP;
        t.ra = R(dr(0));
        t.imm = TImmField::imm(1);
        seq.push_back(t);
    }
    p.replacement = std::move(seq);
    return p;
}

/** Install @p config's store check on @p target, then load it. */
void
instrument(DebugTarget &target, const Workload &w, Config config)
{
    if (config != Config::Off) {
        target.engine.addProduction(
            storeCheckProduction(config == Config::Cond));
        target.arch.writeDise(3, w.hotAddr);
        // Figure 4 predicate: a constant the watched value never takes.
        target.arch.writeDise(4, 0xdeadbeefcafeull);
    }
    target.load();
}

/** Best of N by MIPS: the container's wall clock is noisy. */
template <typename M, typename Fn>
M
bestOf(unsigned reps, Fn run)
{
    M best;
    for (unsigned i = 0; i < reps; ++i) {
        M m = run();
        if (i == 0 || m.mips() > best.mips())
            best = m;
    }
    return best;
}

/**
 * One functional run: the interpreter with the target's trace cache
 * wired in (or not), same workload and instrumentation. The jit-off leg
 * leaves env.jit null, so it pays zero cache overhead.
 */
Measurement
measureFunctional(const Workload &w, Config config, bool jitOn,
               const Options &opts)
{
    DebugTarget target(w.program);
    instrument(target, w, config);

    StreamEnv env;
    env.sink = &target.sink;
    if (jitOn)
        env.jit = target.jit();
    FuncCpu cpu(target.arch, target.mem, &target.engine, env);

    auto t0 = std::chrono::steady_clock::now();
    FuncResult r = cpu.run(opts.maxAppInsts);
    auto t1 = std::chrono::steady_clock::now();
    if (r.halt == HaltReason::Fault)
        fatal("jit throughput run of '", w.name, "' faulted: ",
              r.faultMessage);

    Measurement m;
    m.workload = w.name;
    m.config = config;
    m.jit = jitOn;
    m.appInsts = r.appInsts;
    m.microOps = r.microOps;
    m.seconds = std::chrono::duration<double>(t1 - t0).count();
    return m;
}

/**
 * One debugger run to the end: the default DISE backend with one WARM1
 * watch, trace cache enabled or not — the production debug sessions
 * install, not a hand-rolled one.
 */
Measurement
measureDebugger(const Workload &w, bool jitOn)
{
    DebugTarget target(w.program);
    target.jit()->config().enabled = jitOn;
    Debugger dbg(target);
    if (dbg.watch(w.watch(WatchSel::WARM1)) < 0 || !dbg.attach())
        fatal("cannot attach a WARM1 watch to '", w.name, "'");

    auto t0 = std::chrono::steady_clock::now();
    FuncResult r = dbg.runFunctional();
    auto t1 = std::chrono::steady_clock::now();
    if (r.halt != HaltReason::Exited)
        fatal("debugger throughput run of '", w.name,
              "' did not exit: ", r.faultMessage);

    Measurement m;
    m.workload = w.name;
    m.jit = jitOn;
    m.appInsts = r.appInsts;
    m.microOps = r.microOps;
    m.seconds = std::chrono::duration<double>(t1 - t0).count();
    return m;
}

/** One cycle-level run: simulated MIPS of the timing model itself. */
struct TimingMeasurement
{
    std::string workload;
    Config config = Config::Off;
    uint64_t appInsts = 0;
    uint64_t cycles = 0;
    double seconds = 0.0;

    double mips() const { return seconds > 0 ? appInsts / seconds / 1e6 : 0; }
};

TimingMeasurement
measureTiming(const Workload &w, Config config, const Options &opts)
{
    DebugTarget target(w.program);
    instrument(target, w, config);

    StreamEnv env;
    env.sink = &target.sink;
    TimingCpu cpu(target.arch, target.mem, &target.engine, env);
    RunLimits lim;
    lim.maxAppInsts = opts.timingInsts;

    auto t0 = std::chrono::steady_clock::now();
    RunStats r = cpu.run(lim);
    auto t1 = std::chrono::steady_clock::now();
    if (r.halt == HaltReason::Fault)
        fatal("timing throughput run of '", w.name, "' faulted: ",
              r.faultMessage);

    TimingMeasurement m;
    m.workload = w.name;
    m.config = config;
    m.appInsts = r.appInsts;
    m.cycles = r.cycles;
    m.seconds = std::chrono::duration<double>(t1 - t0).count();
    return m;
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usageError("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--quick") {
            opts.quick = true;
            opts.reps = 1;
            opts.maxAppInsts = 50000;
            opts.timingInsts = 30000;
        } else if (arg == "--no-timing") {
            opts.noTiming = true;
        } else if (arg == "--timing-insts") {
            opts.timingInsts = static_cast<uint64_t>(std::atoll(next()));
        } else if (arg == "--reps") {
            opts.reps = static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--insts") {
            opts.maxAppInsts = static_cast<uint64_t>(std::atoll(next()));
        } else if (arg == "--out") {
            opts.out = next();
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: bench_throughput [options]\n"
                "  --quick       one workload, capped instructions (CI)\n"
                "  --reps N      repetitions per cell (best-of, default 2)\n"
                "  --insts N     cap application instructions per run\n"
                "  --timing-insts N  app-inst cap for the timing cells\n"
                "  --no-timing   skip the cycle-level section\n"
                "  --out FILE    JSON output path "
                "(default BENCH_throughput.json)\n");
            std::exit(0);
        } else {
            usageError("unknown option '" + arg + "'");
        }
    }
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);

    std::vector<std::string> names =
        opts.quick ? std::vector<std::string>{"bzip2"} : workloadNames();
    const Config configs[] = {Config::Off, Config::Uncond, Config::Cond};

    // Functional section: the interpreter with the trace cache on vs
    // off. µop MIPS is the honest metric here — the JIT's job is
    // retiring expansion µops cheaply.
    std::vector<Measurement> jitResults;
    double jitSpeedupMin = 0.0;
    {
        TextTable jtable;
        jtable.setHeader({"workload", "config", "jit µMIPS",
                          "interp µMIPS", "speedup"});
        bool jfirst = true;
        for (const auto &name : names) {
            WorkloadParams params;
            Workload w = buildWorkload(name, params);
            for (Config config : configs) {
                auto on = bestOf<Measurement>(opts.reps, [&] {
                    return measureFunctional(w, config, true, opts);
                });
                auto off = bestOf<Measurement>(opts.reps, [&] {
                    return measureFunctional(w, config, false, opts);
                });
                if (on.appInsts != off.appInsts ||
                    on.microOps != off.microOps)
                    fatal("trace JIT changed retirement counts on '",
                          name, "/", configName(config), "': ",
                          on.appInsts, "/", on.microOps, " vs ",
                          off.appInsts, "/", off.microOps);
                jitResults.push_back(on);
                jitResults.push_back(off);
                double sp = off.microMips() > 0
                                ? on.microMips() / off.microMips()
                                : 0.0;
                if (config == Config::Uncond) {
                    if (jfirst || sp < jitSpeedupMin)
                        jitSpeedupMin = sp;
                    jfirst = false;
                }
                char onBuf[32], offBuf[32], spBuf[32];
                std::snprintf(onBuf, sizeof onBuf, "%.2f",
                              on.microMips());
                std::snprintf(offBuf, sizeof offBuf, "%.2f",
                              off.microMips());
                std::snprintf(spBuf, sizeof spBuf, "%.2fx", sp);
                jtable.addRow(
                    {name, configName(config), onBuf, offBuf, spBuf});
            }
        }
        std::printf("trace JIT (cache on vs off, µop MIPS):\n");
        std::fputs(jtable.render().c_str(), stdout);
        std::printf(
            "min unconditional-instrumentation JIT speedup: %.2fx\n",
            jitSpeedupMin);
    }

    // Debugger section: the production a debug session runs, trace
    // cache on vs off, each run to the end (a capped run would measure
    // mostly the cache's warm-up).
    std::vector<Measurement> dbgResults;
    double dbgSpeedupMin = 0.0;
    {
        TextTable dtable;
        dtable.setHeader({"workload", "jit MIPS", "interp MIPS",
                          "speedup"});
        std::vector<std::string> dnames =
            opts.quick ? std::vector<std::string>{"bzip2"}
                       : std::vector<std::string>{"bzip2", "mcf", "gcc",
                                                  "vortex"};
        for (const auto &name : dnames) {
            WorkloadParams params;
            Workload w = buildWorkload(name, params);
            auto on = bestOf<Measurement>(
                opts.reps, [&] { return measureDebugger(w, true); });
            auto off = bestOf<Measurement>(
                opts.reps, [&] { return measureDebugger(w, false); });
            if (on.appInsts != off.appInsts || on.microOps != off.microOps)
                fatal("trace JIT changed debugger retirement counts on '",
                      name, "': ", on.appInsts, "/", on.microOps, " vs ",
                      off.appInsts, "/", off.microOps);
            dbgResults.push_back(on);
            dbgResults.push_back(off);
            double sp = off.mips() > 0 ? on.mips() / off.mips() : 0.0;
            if (dbgResults.size() == 2 || sp < dbgSpeedupMin)
                dbgSpeedupMin = sp;
            char onBuf[32], offBuf[32], spBuf[32];
            std::snprintf(onBuf, sizeof onBuf, "%.2f", on.mips());
            std::snprintf(offBuf, sizeof offBuf, "%.2f", off.mips());
            std::snprintf(spBuf, sizeof spBuf, "%.2fx", sp);
            dtable.addRow({name, onBuf, offBuf, spBuf});
        }
        std::printf("\ndebugger, default DISE + WARM1 watch, run to end "
                    "(cache on vs off, MIPS):\n");
        std::fputs(dtable.render().c_str(), stdout);
        std::printf("min debugger JIT speedup: %.2fx\n", dbgSpeedupMin);
    }

    // Cycle-level section: simulated MIPS of the timing model.
    std::vector<TimingMeasurement> timingResults;
    if (!opts.noTiming) {
        TextTable ttable;
        ttable.setHeader({"workload", "config", "MIPS", "cycles"});
        std::vector<std::string> tnames =
            opts.quick ? std::vector<std::string>{"bzip2"}
                       : std::vector<std::string>{"bzip2", "mcf"};
        for (const auto &name : tnames) {
            WorkloadParams params;
            Workload w = buildWorkload(name, params);
            for (Config config : {Config::Off, Config::Uncond}) {
                auto m = bestOf<TimingMeasurement>(opts.reps, [&] {
                    return measureTiming(w, config, opts);
                });
                timingResults.push_back(m);
                char mipsBuf[32];
                std::snprintf(mipsBuf, sizeof mipsBuf, "%.2f", m.mips());
                ttable.addRow({name, configName(config), mipsBuf,
                               std::to_string(m.cycles)});
            }
        }
        std::printf("\ntiming model:\n");
        std::fputs(ttable.render().c_str(), stdout);
    }

    std::ofstream os(opts.out);
    if (!os)
        fatal("cannot write ", opts.out);
    os << "{\n  \"bench\": \"throughput\",\n";
    os << "  \"quick\": " << (opts.quick ? "true" : "false") << ",\n";
    os << "  \"host\": " << hostJson() << ",\n";
    os << "  \"jit_uncond_speedup_min\": " << jitSpeedupMin << ",\n";
    os << "  \"jit_debugger_speedup_min\": " << dbgSpeedupMin << ",\n";
    os << "  \"jit_runs\": [\n";
    for (size_t i = 0; i < jitResults.size(); ++i) {
        const Measurement &m = jitResults[i];
        os << "    {\"workload\": \"" << m.workload << "\", \"config\": \""
           << configName(m.config) << "\", \"jit\": \""
           << (m.jit ? "on" : "off")
           << "\", \"app_insts\": " << m.appInsts
           << ", \"micro_ops\": " << m.microOps
           << ", \"seconds\": " << m.seconds << ", \"mips\": " << m.mips()
           << ", \"micro_mips\": " << m.microMips() << "}"
           << (i + 1 < jitResults.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"debugger_runs\": [\n";
    for (size_t i = 0; i < dbgResults.size(); ++i) {
        const Measurement &m = dbgResults[i];
        os << "    {\"workload\": \"" << m.workload << "\", \"jit\": \""
           << (m.jit ? "on" : "off")
           << "\", \"app_insts\": " << m.appInsts
           << ", \"micro_ops\": " << m.microOps
           << ", \"seconds\": " << m.seconds << ", \"mips\": " << m.mips()
           << "}" << (i + 1 < dbgResults.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"timing_runs\": [\n";
    for (size_t i = 0; i < timingResults.size(); ++i) {
        const TimingMeasurement &m = timingResults[i];
        os << "    {\"workload\": \"" << m.workload << "\", \"config\": \""
           << configName(m.config)
           << "\", \"app_insts\": " << m.appInsts
           << ", \"cycles\": " << m.cycles << ", \"seconds\": " << m.seconds
           << ", \"mips\": " << m.mips() << "}"
           << (i + 1 < timingResults.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::printf("wrote %s\n", opts.out.c_str());
    return 0;
}
