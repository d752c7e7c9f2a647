/**
 * @file
 * Replay-latency benchmark: what reverse execution costs, and what
 * interval-parallel reconstruction buys back.
 *
 * One instrumented session records a workload to completion, then:
 *
 *  - reverse-continue latency: travel back to the last recorded event
 *    (restore + bounded replay — the interactive "go back" a gdb user
 *    feels);
 *  - deep re-travel: reverse to the start of history and replay the
 *    whole explored timeline forward again (the O(trace) case the job
 *    scheduler slices);
 *  - interval-parallel reconstruction: replay every checkpoint
 *    interval on share-nothing replicas with 1 / 2 / 4 workers,
 *    verifying the stitched digests are bit-identical to the live
 *    session (serial 1-worker is the baseline the parallel runs are
 *    compared against).
 *
 * Emits BENCH_replay.json:
 *   ./build/replay_bench --out BENCH_replay.json
 *   ./build/replay_bench --quick        # CI smoke (small work items)
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "session/debug_session.hh"
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

struct ParallelResult
{
    unsigned workers = 0;
    double wallMs = 0;
    uint64_t digest = 0;
    size_t intervals = 0;
    uint64_t uopsReplayed = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string out = "BENCH_replay.json";
    std::string workload = "mcf";
    BackendKind backend = BackendKind::Dise;
    uint64_t cpInterval = 2048;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usageError("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--quick")
            quick = true;
        else if (arg == "--out")
            out = next();
        else if (arg == "--workload")
            workload = next();
        else if (arg == "--checkpoint-interval")
            cpInterval = static_cast<uint64_t>(std::atoll(next()));
        else if (arg == "--backend") {
            if (!parseBackendToken(next(), backend))
                usageError("unknown backend");
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: replay_bench [options]\n"
                "  --quick                  small work items (CI smoke)\n"
                "  --out FILE               JSON output "
                "(default BENCH_replay.json)\n"
                "  --workload NAME          workload (default mcf)\n"
                "  --backend NAME           dise | single-step | vm | "
                "hwreg | rewrite\n"
                "  --checkpoint-interval N  time-travel checkpoint "
                "interval (default 2048)\n");
            return 0;
        } else {
            usageError("unknown option '" + arg + "'");
        }
    }

    unsigned scale = quick ? 1 : 4;
    unsigned hw = std::thread::hardware_concurrency();
    std::printf("replay bench: workload=%s backend=%s scale=%u "
                "checkpoint-interval=%llu cores=%u\n",
                workload.c_str(), backendName(backend), scale,
                static_cast<unsigned long long>(cpInterval), hw);

    Workload w = buildWorkload(workload, {scale});
    SessionOptions so;
    so.debugger.backend = backend;
    so.timeTravel.checkpointInterval = cpInterval;
    DebugSession s(w.program, so);
    s.setWatch(WatchSpec::scalar("HOT", w.hotAddr, 8));

    // Record the full timeline.
    double t0 = nowMs();
    StopInfo end = s.runToEnd();
    double recordMs = nowMs() - t0;
    DISE_ASSERT(end.reason == StopReason::Halted,
                "workload did not run to completion: ",
                end.describe());
    SessionStats st = s.stats();
    std::printf("  record: %8.1f ms, %llu insts, %zu events, %zu "
                "checkpoints\n",
                recordMs, static_cast<unsigned long long>(st.appInsts),
                st.events, st.checkpoints);

    // Reverse-continue latency: back to the last recorded event (or
    // the start of history when the workload fired none).
    t0 = nowMs();
    StopInfo back = s.reverseContinue();
    double reverseContinueMs = nowMs() - t0;
    std::printf("  reverse-continue: %.3f ms (%s)\n", reverseContinueMs,
                stopReasonName(back.reason));

    // Deep re-travel: to the start of history and forward to the end
    // again — the O(trace) replay the scheduler slices for fairness.
    t0 = nowMs();
    s.reverseStep(st.appInsts);
    double reverseToStartMs = nowMs() - t0;
    t0 = nowMs();
    StopInfo end2 = s.runToEnd();
    double retravelMs = nowMs() - t0;
    DISE_ASSERT(end2.time == end.time, "re-travel missed the end");
    std::printf("  reverse-to-start: %.1f ms; forward re-travel: %.1f "
                "ms\n",
                reverseToStartMs, retravelMs);

    // Interval-parallel reconstruction, 1 / 2 / 4 workers.
    std::vector<ParallelResult> runs;
    for (unsigned workers : {1u, 2u, 4u}) {
        t0 = nowMs();
        IntervalReplay::Report rep = s.verifyReplay(workers);
        double wall = nowMs() - t0;
        DISE_ASSERT(rep.ok, "interval replay failed: ", rep.error);
        DISE_ASSERT(rep.finalDigest == s.digest(),
                    "stitched digest diverged from the live session");
        ParallelResult r;
        r.workers = workers;
        r.wallMs = wall;
        r.digest = rep.finalDigest;
        r.intervals = rep.intervals.size();
        r.uopsReplayed = rep.uopsReplayed;
        runs.push_back(r);
        std::printf("  interval replay x%u: %8.1f ms over %zu "
                    "intervals (%.2fx vs serial)\n",
                    workers, wall, r.intervals,
                    runs.front().wallMs > 0
                        ? runs.front().wallMs / wall
                        : 0);
    }

    FILE *f = std::fopen(out.c_str(), "w");
    if (!f)
        fatal("cannot write ", out);
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"replay\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "  \"workload\": \"%s\",\n", workload.c_str());
    std::fprintf(f, "  \"backend\": \"%s\",\n", backendName(backend));
    std::fprintf(f, "  \"checkpoint_interval\": %llu,\n",
                 static_cast<unsigned long long>(cpInterval));
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw);
    std::fprintf(f, "  \"app_insts\": %llu,\n",
                 static_cast<unsigned long long>(st.appInsts));
    std::fprintf(f, "  \"events\": %zu,\n", st.events);
    std::fprintf(f, "  \"checkpoints\": %zu,\n", st.checkpoints);
    std::fprintf(f, "  \"record_ms\": %g,\n", recordMs);
    std::fprintf(f, "  \"reverse_continue_ms\": %g,\n",
                 reverseContinueMs);
    std::fprintf(f, "  \"reverse_to_start_ms\": %g,\n",
                 reverseToStartMs);
    std::fprintf(f, "  \"forward_retravel_ms\": %g,\n", retravelMs);
    std::fprintf(f, "  \"interval_replay\": [\n");
    for (size_t i = 0; i < runs.size(); ++i) {
        const ParallelResult &r = runs[i];
        std::fprintf(
            f,
            "    {\"workers\": %u, \"wall_ms\": %g, \"intervals\": "
            "%zu, \"uops_replayed\": %llu, \"digest\": \"0x%llx\", "
            "\"speedup_vs_serial\": %g}%s\n",
            r.workers, r.wallMs, r.intervals,
            static_cast<unsigned long long>(r.uopsReplayed),
            static_cast<unsigned long long>(r.digest),
            runs.front().wallMs > 0 ? runs.front().wallMs / r.wallMs
                                    : 0,
            i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
