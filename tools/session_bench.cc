/**
 * @file
 * Multi-session scaling benchmark: aggregate simulated MIPS as a
 * function of concurrent session count.
 *
 * For N in {1, 2, 4, 8}, hosts N independent instrumented sessions
 * (each its own workload instance with a watched variable under the
 * chosen backend) in one SessionManager, drives them all to
 * completion through the JobScheduler from N client threads, and reports
 * total application instructions / wall time. Sessions are
 * share-nothing, so aggregate throughput should scale with
 * min(sessions, slots, cores) — the "many concurrent users" claim,
 * measured.
 *
 * Emits BENCH_sessions.json:
 *   ./build/session_bench --out BENCH_sessions.json
 *   ./build/session_bench --quick        # CI smoke (small work items)
 */

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "persist/store.hh"
#include "persist/vfs.hh"
#include "server/job_scheduler.hh"
#include "server/session_manager.hh"
#include "server/supervisor.hh"
#include "server/wire_client.hh"
#include "workloads/workload.hh"

using namespace dise;
using namespace dise::server;

namespace {

struct RunResult
{
    unsigned sessions = 0;
    uint64_t totalInsts = 0;
    uint64_t totalUops = 0;
    uint64_t totalEvents = 0;
    uint64_t slices = 0;
    double wallMs = 0;
    double mips = 0;
};

double
nowMs()
{
    using namespace std::chrono;
    return duration<double, std::milli>(
               steady_clock::now().time_since_epoch())
        .count();
}

/** Drive N sessions of @p workload to completion on one scheduler. */
RunResult
runScale(unsigned n, const std::string &workload, BackendKind backend,
         unsigned scale, unsigned slots)
{
    Workload proto = buildWorkload(workload, {scale});
    Addr watchAddr = proto.warm1Addr;

    SessionManagerOptions mopts;
    mopts.maxSessions = n;
    mopts.session.timeTravel.checkpointInterval = 1u << 20;
    SessionManager manager(
        mopts, [&](const std::string &, Program &out) {
            out = buildWorkload(workload, {scale}).program;
            return true;
        });
    JobScheduler queue({slots, 50000});

    std::vector<ManagedSessionPtr> sessions;
    for (unsigned i = 0; i < n; ++i) {
        ManagedSessionPtr ms = manager.create(workload, backend);
        DISE_ASSERT(ms, "admission failed in bench");
        ms->session.setWatch(
            WatchSpec::scalar("WARM1", watchAddr, 8));
        sessions.push_back(std::move(ms));
    }

    uint64_t slices0 = queue.slicesRun();
    double t0 = nowMs();
    std::vector<std::thread> drivers;
    for (auto &ms : sessions)
        drivers.emplace_back([&queue, ms] {
            StopInfo stop;
            std::string err;
            bool ok = queue.drive(*ms, RequestKind::RunToEnd, 0, stop,
                                  &err);
            DISE_ASSERT(ok, "bench session failed: ", err);
        });
    for (auto &t : drivers)
        t.join();
    double t1 = nowMs();

    RunResult r;
    r.sessions = n;
    r.wallMs = t1 - t0;
    r.slices = queue.slicesRun() - slices0;
    for (auto &ms : sessions) {
        r.totalInsts += ms->appInsts.load();
        r.totalUops += ms->uops.load();
        r.totalEvents += ms->events.load();
    }
    r.mips = r.wallMs > 0 ? r.totalInsts / (r.wallMs * 1000.0) : 0;
    return r;
}

struct ShardRunResult
{
    unsigned procs = 0;
    unsigned sessions = 0;
    uint64_t totalInsts = 0;
    double wallMs = 0;
    double mips = 0;
    std::vector<ShardStatsRow> perShard;
};

/** Drive @p nSessions sessions to completion over the wire against a
 *  @p procs-shard fleet (one worker slot per shard, so the knob under
 *  test is process count, not thread count). */
ShardRunResult
runShardScale(unsigned procs, unsigned nSessions,
              const std::string &workload, BackendKind backend,
              unsigned scale)
{
    Workload proto = buildWorkload(workload, {scale});
    Addr watchAddr = proto.warm1Addr;

    ShardSupervisorOptions sopts;
    sopts.shards = procs;
    sopts.worker.maxSessions = nSessions;
    sopts.worker.slots = 1;
    sopts.worker.sliceInsts = 50000;
    sopts.worker.session.timeTravel.checkpointInterval = 1u << 20;
    sopts.factory = [workload, scale](const std::string &,
                                      Program &out) {
        out = buildWorkload(workload, {scale}).program;
        return true;
    };
    ShardSupervisor fleet(sopts);
    DISE_ASSERT(fleet.start(), "bench fleet start failed");

    // One wire connection per session; least-loaded placement spreads
    // them evenly across the shards.
    std::vector<std::unique_ptr<WireClient>> clients;
    for (unsigned i = 0; i < nSessions; ++i) {
        auto c = std::make_unique<WireClient>();
        std::string err;
        DISE_ASSERT(c->connectTo(fleet.port(), &err),
                    "bench fleet connect failed: ", err);
        Request create;
        create.kind = RequestKind::SessionCreate;
        create.name = workload;
        create.backend = backend;
        Response resp;
        DISE_ASSERT(c->call(create, resp) && resp.ok(),
                    "bench session-create failed: ", resp.error);
        Request watch;
        watch.kind = RequestKind::SetWatch;
        watch.watch = WatchSpec::scalar("WARM1", watchAddr, 8);
        DISE_ASSERT(c->call(watch, resp) && resp.ok(),
                    "bench set-watch failed: ", resp.error);
        clients.push_back(std::move(c));
    }

    double t0 = nowMs();
    std::vector<std::thread> drivers;
    for (auto &c : clients)
        drivers.emplace_back([&c] {
            Request run;
            run.kind = RequestKind::RunToEnd;
            run.count = 0;
            Response resp;
            DISE_ASSERT(c->call(run, resp) && resp.ok(),
                        "bench run-to-end failed: ", resp.error);
        });
    for (auto &t : drivers)
        t.join();
    double t1 = nowMs();

    ShardRunResult r;
    r.procs = procs;
    r.sessions = nSessions;
    r.wallMs = t1 - t0;
    r.perShard = fleet.shardStats();
    for (const ShardStatsRow &row : r.perShard)
        r.totalInsts += row.appInsts;
    r.mips = r.wallMs > 0 ? r.totalInsts / (r.wallMs * 1000.0) : 0;
    for (auto &c : clients)
        c->close();
    fleet.stop();
    return r;
}

struct DurableResult
{
    unsigned iters = 0;
    uint64_t appInsts = 0;
    uint64_t imageBytes = 0;
    double hibernateMs = 0; ///< mean export + crash-consistent put
    double resurrectMs = 0; ///< mean load + rebuild-replay + verify
};

/** Unique scratch store directory under $TMPDIR (default /tmp),
 *  emptied and removed on destruction — which also runs when a bench
 *  assertion unwinds, so failed runs leave nothing behind. */
struct ScratchDir
{
    std::string path;
    persist::RealVfs vfs;

    ScratchDir()
    {
        const char *tmp = std::getenv("TMPDIR");
        std::string tmpl = std::string(tmp && *tmp ? tmp : "/tmp") +
                           "/session_bench_store_XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (!::mkdtemp(buf.data()))
            fatal("cannot create scratch dir ", tmpl);
        path = buf.data();
    }

    ~ScratchDir()
    {
        std::vector<std::string> names;
        if (vfs.list(path, names))
            for (const std::string &n : names)
                vfs.remove(path + "/" + n);
        ::rmdir(path.c_str());
    }
};

/** Hibernate/resurrect round-trip latency at a mid-run position. */
DurableResult
runDurable(const std::string &workload, BackendKind backend,
           unsigned scale, unsigned iters)
{
    ScratchDir scratch;
    const std::string &dir = scratch.path;
    persist::RealVfs &vfs = scratch.vfs;
    persist::SessionStore store(dir, vfs);
    DISE_ASSERT(store.open().ok, "bench store open failed");

    Workload proto = buildWorkload(workload, {scale});
    SessionManagerOptions mopts;
    mopts.maxSessions = 2;
    SessionManager manager(
        mopts, [&](const std::string &, Program &out) {
            out = buildWorkload(workload, {scale}).program;
            return true;
        });
    manager.adoptStore(&store);
    JobScheduler queue({1, 50000});

    ManagedSessionPtr ms = manager.create(workload, backend);
    DISE_ASSERT(ms, "bench admission failed");
    ms->session.setWatch(
        WatchSpec::scalar("WARM1", proto.warm1Addr, 8));
    StopInfo stop;
    std::string err;
    DISE_ASSERT(queue.drive(*ms, RequestKind::Cont, 0, stop, &err),
                "bench cont failed: ", err);

    DurableResult r;
    r.iters = iters;
    r.appInsts = ms->appInsts.load();
    uint64_t id = ms->id;
    ms.reset();
    for (unsigned i = 0; i < iters; ++i) {
        double t0 = nowMs();
        DISE_ASSERT(manager.hibernate(id, &err),
                    "bench hibernate failed: ", err);
        double t1 = nowMs();
        ms = manager.find(id, false, &err);
        DISE_ASSERT(ms, "bench resurrect failed: ", err);
        double t2 = nowMs();
        ms.reset();
        r.hibernateMs += t1 - t0;
        r.resurrectMs += t2 - t1;
    }
    r.hibernateMs /= iters;
    r.resurrectMs /= iters;
    r.imageBytes = store.counters().bytes;

    manager.destroy(id);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string out = "BENCH_sessions.json";
    std::string workload = "mcf";
    BackendKind backend = BackendKind::Dise;
    unsigned slots = 0;    // hardware concurrency
    unsigned maxProcs = 4; // shard-mode sweep cap (0 = skip)

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
        else if (arg == "--workers")
            slots = static_cast<unsigned>(std::atoi(next()));
        else if (arg == "--procs")
            maxProcs = static_cast<unsigned>(std::atoi(next()));
        else if (arg == "--backend") {
            if (!parseBackendToken(next(), backend))
                usageError("unknown backend");
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: session_bench [options]\n"
                "  --quick           small work items (CI smoke)\n"
                "  --out FILE        JSON output "
                "(default BENCH_sessions.json)\n"
                "  --workload NAME   workload (default mcf)\n"
                "  --backend NAME    dise | single-step | vm | hwreg | "
                "rewrite\n"
                "  --workers N       scheduler slots (default: hardware)\n"
                "  --procs N         shard-process sweep cap, 0 = skip "
                "(default 4)\n");
            return 0;
        } else {
            usageError("unknown option '" + arg + "'");
        }
    }

    unsigned scale = quick ? 1 : 4;
    unsigned hw = std::thread::hardware_concurrency();
    std::printf("session scaling bench: workload=%s backend=%s "
                "scale=%u cores=%u slots=%s\n",
                workload.c_str(), backendName(backend), scale, hw,
                slots ? std::to_string(slots).c_str() : "hw");

    std::vector<RunResult> results;
    std::vector<ShardRunResult> shardResults;
    DurableResult d;
    // Catch bench assertions (they throw) so ScratchDir unwinds and
    // early failures never leak a scratch store into the filesystem.
    try {
        for (unsigned n : {1u, 2u, 4u, 8u}) {
            RunResult r = runScale(n, workload, backend, scale, slots);
            results.push_back(r);
            std::printf(
                "  %u session(s): %8.1f ms, %llu insts, %llu slices, "
                "aggregate %.2f MIPS (%.2fx vs 1)\n",
                n, r.wallMs,
                static_cast<unsigned long long>(r.totalInsts),
                static_cast<unsigned long long>(r.slices), r.mips,
                results.front().mips > 0
                    ? r.mips / results.front().mips
                    : 0);
        }

        // Process sharding: same 8 sessions, N worker processes of
        // one slot each behind the supervisor port.
        for (unsigned procs = 1; procs <= maxProcs; procs *= 2) {
            ShardRunResult r =
                runShardScale(procs, 8, workload, backend, scale);
            shardResults.push_back(r);
            std::printf(
                "  %u shard proc(s), %u sessions: %8.1f ms, %llu "
                "insts, aggregate %.2f MIPS (%.2fx vs 1 proc)\n",
                r.procs, r.sessions, r.wallMs,
                static_cast<unsigned long long>(r.totalInsts), r.mips,
                shardResults.front().mips > 0
                    ? r.mips / shardResults.front().mips
                    : 0);
            for (const ShardStatsRow &row : r.perShard)
                std::printf("      shard %llu (pid %llu): %llu insts, "
                            "%.2f MIPS\n",
                            static_cast<unsigned long long>(row.index),
                            static_cast<unsigned long long>(row.pid),
                            static_cast<unsigned long long>(
                                row.appInsts),
                            r.wallMs > 0
                                ? row.appInsts / (r.wallMs * 1000.0)
                                : 0);
        }

        d = runDurable(workload, backend, scale, quick ? 3 : 10);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench failed: %s\n", e.what());
        return 1;
    }
    std::printf("  durable round-trip @ %llu insts: hibernate %.2f ms, "
                "resurrect %.2f ms, image %llu bytes (%u iters)\n",
                static_cast<unsigned long long>(d.appInsts),
                d.hibernateMs, d.resurrectMs,
                static_cast<unsigned long long>(d.imageBytes),
                d.iters);

    FILE *f = std::fopen(out.c_str(), "w");
    if (!f)
        fatal("cannot write ", out);
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"sessions\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "  \"workload\": \"%s\",\n", workload.c_str());
    std::fprintf(f, "  \"backend\": \"%s\",\n", backendName(backend));
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw);
    std::fprintf(f, "  \"slots\": %u,\n",
                 slots ? slots : std::max(2u, hw));
    std::fprintf(f, "  \"slice_insts\": 50000,\n");
    std::fprintf(f, "  \"runs\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        std::fprintf(
            f,
            "    {\"sessions\": %u, \"total_app_insts\": %llu, "
            "\"total_uops\": %llu, \"events\": %llu, \"slices\": %llu, "
            "\"wall_ms\": %g, \"aggregate_mips\": %g, "
            "\"scaling_vs_1\": %g}%s\n",
            r.sessions, static_cast<unsigned long long>(r.totalInsts),
            static_cast<unsigned long long>(r.totalUops),
            static_cast<unsigned long long>(r.totalEvents),
            static_cast<unsigned long long>(r.slices), r.wallMs,
            r.mips,
            results.front().mips > 0 ? r.mips / results.front().mips
                                     : 0,
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"shard_runs\": [\n");
    for (size_t i = 0; i < shardResults.size(); ++i) {
        const ShardRunResult &r = shardResults[i];
        std::fprintf(
            f,
            "    {\"procs\": %u, \"sessions\": %u, "
            "\"slots_per_shard\": 1, \"total_app_insts\": %llu, "
            "\"wall_ms\": %g, \"aggregate_mips\": %g, "
            "\"scaling_vs_1proc\": %g, \"per_shard\": [",
            r.procs, r.sessions,
            static_cast<unsigned long long>(r.totalInsts), r.wallMs,
            r.mips,
            shardResults.front().mips > 0
                ? r.mips / shardResults.front().mips
                : 0);
        for (size_t k = 0; k < r.perShard.size(); ++k) {
            const ShardStatsRow &row = r.perShard[k];
            std::fprintf(
                f,
                "%s{\"shard\": %llu, \"pid\": %llu, "
                "\"app_insts\": %llu, \"uops\": %llu, \"mips\": %g}",
                k ? ", " : "",
                static_cast<unsigned long long>(row.index),
                static_cast<unsigned long long>(row.pid),
                static_cast<unsigned long long>(row.appInsts),
                static_cast<unsigned long long>(row.totalUops),
                r.wallMs > 0 ? row.appInsts / (r.wallMs * 1000.0)
                             : 0);
        }
        std::fprintf(f, "]}%s\n",
                     i + 1 < shardResults.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(
        f,
        "  \"durable\": {\"iterations\": %u, \"app_insts\": %llu, "
        "\"image_bytes\": %llu, \"hibernate_ms\": %g, "
        "\"resurrect_ms\": %g}\n",
        d.iters, static_cast<unsigned long long>(d.appInsts),
        static_cast<unsigned long long>(d.imageBytes), d.hibernateMs,
        d.resurrectMs);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
