/**
 * @file
 * Debug-tool overhead benchmark: what does "leaving the sanitizer on"
 * actually cost?
 *
 * Runs one workload to completion under a plain session (the
 * baseline), then once per debug tool, then with all five tools
 * armed, measuring wall time each way (best-of-N reps so scheduler
 * noise does not masquerade as tool cost). Overhead is reported per
 * tool as a percentage over the baseline run. memtrace is measured
 * twice — suppress=1 and suppress=0 — to put a number on the
 * same-address redundancy suppression: the suppressed run must both
 * elide accesses (suppressed counter > 0) and be cheaper than the
 * full-trace run.
 *
 * Emits BENCH_tools.json:
 *   ./build/tools_bench --out BENCH_tools.json
 *   ./build/tools_bench --quick        # CI smoke (small work items)
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "session/debug_session.hh"
#include "tools/toolset.hh"
#include "workloads/workload.hh"

using namespace dise;

namespace {

double
nowMs()
{
    using namespace std::chrono;
    return duration<double, std::milli>(
               steady_clock::now().time_since_epoch())
        .count();
}

using ToolSpec = std::pair<std::string, tools::ToolSet::Config>;

struct RunResult
{
    std::string config;      ///< row label in the JSON
    double wallMs = 0;       ///< best-of-reps wall time
    double toolMs = 0;       ///< best-of-reps time inside tool bodies
    double overheadPct = 0;  ///< vs the baseline row
    uint64_t appInsts = 0;
    uint64_t uopsSeen = 0;   ///< armed µops observed by the tools
    uint64_t checks = 0;
    uint64_t suppressed = 0;
    uint64_t findings = 0;
};

/** Drive @p workload to completion with @p armed tools enabled,
 *  @p reps times; keep the fastest wall time and the (identical
 *  across reps — the tools are deterministic) counters of the last. */
RunResult
runConfig(const std::string &label, const Program &prog,
          BackendKind backend, const std::vector<ToolSpec> &armed,
          unsigned reps)
{
    RunResult r;
    r.config = label;
    r.wallMs = 1e30;
    r.toolMs = armed.empty() ? 0 : 1e30;
    for (unsigned rep = 0; rep < reps; ++rep) {
        SessionOptions opts;
        opts.debugger.backend = backend;
        opts.timeTravel.checkpointInterval = 1u << 20;
        DebugSession session(prog, opts);
        DISE_ASSERT(session.attach(), "bench attach failed");
        for (const ToolSpec &t : armed) {
            std::string err;
            DISE_ASSERT(session.toolEnable(t.first, t.second, &err),
                        "bench enable ", t.first, " failed: ", err);
        }
        double t0 = nowMs();
        StopInfo stop = session.runToEnd();
        double t1 = nowMs();
        DISE_ASSERT(stop.reason == StopReason::Halted,
                    "bench run did not halt (reason ",
                    static_cast<int>(stop.reason), ")");
        r.wallMs = std::min(r.wallMs, t1 - t0);
        if (!armed.empty())
            r.toolMs = std::min(
                r.toolMs,
                session.debugger().backend().tools().toolNs() / 1e6);
        r.appInsts = session.stats().appInsts;
        r.uopsSeen = 0;
        r.checks = 0;
        r.suppressed = 0;
        r.findings = 0;
        for (const tools::ToolStatsRow &row :
             session.debugger().backend().tools().statsRows()) {
            r.uopsSeen = std::max(r.uopsSeen, row.uopsSeen);
            r.checks += row.checks;
            r.suppressed += row.suppressed;
            r.findings += row.findings;
        }
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string out = "BENCH_tools.json";
    // bzip2 re-touches the same granules heavily (~65% of accesses),
    // which is the regime memtrace's suppression exists for.
    std::string workload = "bzip2";
    BackendKind backend = BackendKind::Dise;
    unsigned reps = 0;
    unsigned scale = 0;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usageError("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--quick")
            quick = true;
        else if (arg == "--out")
            out = next();
        else if (arg == "--workload")
            workload = next();
        else if (arg == "--reps")
            reps = static_cast<unsigned>(std::atoi(next()));
        else if (arg == "--scale")
            scale = static_cast<unsigned>(std::atoi(next()));
        else if (arg == "--backend") {
            if (!parseBackendToken(next(), backend))
                usageError("unknown backend");
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: tools_bench [options]\n"
                        "  --quick          fewer reps, small scale (CI)\n"
                        "  --out FILE       JSON output "
                        "(default BENCH_tools.json)\n"
                        "  --workload NAME  workload (default bzip2)\n"
                        "  --backend NAME   dise | single-step | vm | "
                        "hwreg | rewrite\n"
                        "  --reps N         repetitions, best-of "
                        "(default 5, quick 2)\n"
                        "  --scale N        workload scale "
                        "(default 4, quick 1)\n");
            return 0;
        } else {
            usageError("unknown option '", arg, "'");
        }
    }
    if (!reps)
        reps = quick ? 2 : 5;
    if (!scale)
        scale = quick ? 1 : 4;

    Program prog = buildWorkload(workload, {scale}).program;
    std::printf("tool overhead bench: workload=%s backend=%s scale=%u "
                "reps=%u (best-of)\n",
                workload.c_str(), backendName(backend), scale, reps);

    const std::vector<std::pair<std::string, std::vector<ToolSpec>>>
        configs = {
            {"baseline", {}},
            {"asan", {{"asan", {}}}},
            {"leakcheck", {{"leakcheck", {}}}},
            {"coverage", {{"coverage", {}}}},
            {"memtrace", {{"memtrace", {{"suppress", "1"}}}}},
            {"memtrace-nosuppress",
             {{"memtrace", {{"suppress", "0"}}}}},
            {"addrleak", {{"addrleak", {}}}},
            {"all",
             {{"asan", {}},
              {"leakcheck", {}},
              {"coverage", {}},
              {"memtrace", {{"suppress", "1"}}},
              {"addrleak", {}}}},
        };

    std::vector<RunResult> results;
    try {
        for (const auto &cfg : configs) {
            RunResult r = runConfig(cfg.first, prog, backend,
                                    cfg.second, reps);
            if (!results.empty() && results.front().wallMs > 0)
                r.overheadPct = (r.wallMs / results.front().wallMs -
                                 1.0) * 100.0;
            results.push_back(r);
            std::printf("  %-20s %8.2f ms  %+6.1f%%  tool %7.2f ms  "
                        "checks=%llu suppressed=%llu findings=%llu\n",
                        r.config.c_str(), r.wallMs, r.overheadPct,
                        r.toolMs,
                        static_cast<unsigned long long>(r.checks),
                        static_cast<unsigned long long>(r.suppressed),
                        static_cast<unsigned long long>(r.findings));
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench failed: %s\n", e.what());
        return 1;
    }

    const RunResult *mtOn = nullptr, *mtOff = nullptr;
    for (const RunResult &r : results) {
        if (r.config == "memtrace")
            mtOn = &r;
        if (r.config == "memtrace-nosuppress")
            mtOff = &r;
    }
    // Compared on time *inside the tool bodies* (ToolSet::toolNs):
    // end-to-end wall is dominated by µop interpretation, whose
    // run-to-run noise swamps the digest-and-ring work suppression
    // elides. The body clock isolates exactly the work that differs.
    bool suppressionWins = mtOn->toolMs <= mtOff->toolMs;
    std::printf("  memtrace suppression: %llu of %llu accesses elided, "
                "%s (tool body %.2f vs %.2f ms)\n",
                static_cast<unsigned long long>(mtOn->suppressed),
                static_cast<unsigned long long>(mtOn->checks),
                suppressionWins ? "cheaper than full trace"
                                : "NOT cheaper this run",
                mtOn->toolMs, mtOff->toolMs);
    if (mtOn->suppressed == 0) {
        std::fprintf(stderr, "bench failed: memtrace suppression "
                             "elided nothing\n");
        return 1;
    }

    FILE *f = std::fopen(out.c_str(), "w");
    if (!f)
        fatal("cannot write ", out);
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"tools\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "  \"workload\": \"%s\",\n", workload.c_str());
    std::fprintf(f, "  \"backend\": \"%s\",\n", backendName(backend));
    std::fprintf(f, "  \"scale\": %u,\n", scale);
    std::fprintf(f, "  \"reps\": %u,\n", reps);
    std::fprintf(f, "  \"runs\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        std::fprintf(
            f,
            "    {\"config\": \"%s\", \"wall_ms\": %g, "
            "\"tool_ms\": %g, "
            "\"overhead_pct\": %g, \"app_insts\": %llu, "
            "\"uops_seen\": %llu, \"checks\": %llu, "
            "\"suppressed\": %llu, \"findings\": %llu}%s\n",
            r.config.c_str(), r.wallMs, r.toolMs, r.overheadPct,
            static_cast<unsigned long long>(r.appInsts),
            static_cast<unsigned long long>(r.uopsSeen),
            static_cast<unsigned long long>(r.checks),
            static_cast<unsigned long long>(r.suppressed),
            static_cast<unsigned long long>(r.findings),
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(
        f,
        "  \"memtrace_suppression\": {\"suppressed\": %llu, "
        "\"checks\": %llu, \"tool_ms_on\": %g, \"tool_ms_off\": %g, "
        "\"wall_ms_on\": %g, \"wall_ms_off\": %g, "
        "\"suppression_wins\": %s}\n",
        static_cast<unsigned long long>(mtOn->suppressed),
        static_cast<unsigned long long>(mtOn->checks), mtOn->toolMs,
        mtOff->toolMs, mtOn->wallMs, mtOff->wallMs,
        suppressionWins ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
