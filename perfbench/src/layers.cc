/**
 * @file
 * The traced run's layer probes: each layer measured from outside by
 * timing calls into its public functions, plus the layer ladder.
 *
 * The ladder runs one program (mcf, DISE, one WARM1 watch) through
 * every layer in turn — cpu → dise → jit → record → session → sched →
 * server → shard — and times the served session in the `served` load
 * shape (three concurrent wire sessions on two slots). Each rung
 * reports MIPS; the difference of adjacent rungs' host nanoseconds per
 * application instruction is that layer's self cost. The served
 * session does not cross the shard hop, so its gap to the raw
 * interpreter is the sum of the cpu..server layer costs plus an
 * explicit remainder (contention with the other sessions); the shard
 * rung is reported beside it.
 */

#include <filesystem>
#include <thread>

#include "common.hh"
#include "gdb_client.hh"
#include "harness/experiment.hh"
#include "persist/store.hh"
#include "rsp/server.hh"
#include "server/server.hh"
#include "server/supervisor.hh"
#include "server/wire_client.hh"

namespace perfbench {

using namespace dise;
using namespace dise::server;

namespace {

const std::vector<std::string> kPrograms = {"bzip2", "mcf", "gcc", "vortex"};
const std::string kLadderProgram = "mcf";
constexpr unsigned kScale = 2;
constexpr unsigned kRepeats = 5;
constexpr unsigned kCalls = 200;

struct Probe
{
    Ctx &ctx;
    std::map<std::string, Workload> programs;

    const Workload &
    program(const std::string &name)
    {
        auto it = programs.find(name);
        if (it == programs.end())
            it = programs.emplace(name, buildProgram(name, kScale, ctx.seed))
                     .first;
        return it->second;
    }

    SessionManager::ProgramFactory
    factory()
    {
        uint64_t seed = ctx.seed;
        return [seed](const std::string &name, Program &out) {
            out = buildProgram(name, kScale, seed).program;
            return true;
        };
    }
};

double
mips(uint64_t insts, double seconds)
{
    return seconds > 0 ? insts / seconds / 1e6 : 0;
}

/** Median of @p n timings (µs) of @p fn. */
template <typename Fn>
double
medianUs(unsigned n, Fn fn)
{
    std::vector<double> v;
    for (unsigned i = 0; i < n; ++i) {
        uint64_t t0 = nowNs();
        fn();
        v.push_back(usSince(t0));
    }
    return median(v);
}

struct FuncRung
{
    double mips = 0;
    FuncResult result;
    TraceCacheStats jit;
};

/** FuncCpu::run on @p w: no debugger (empty table), or the DISE
 *  backend with a WARM1 watch; trace JIT on or off. */
FuncRung
funcRun(const Workload &w, bool dise, bool jit)
{
    SpanScope sp(dise ? (jit ? "ladder.jit" : "ladder.dise") : "ladder.cpu");
    FuncRung r;
    DebugTarget t(w.program);
    t.jit()->config().enabled = jit;
    uint64_t t0 = 0;
    if (dise) {
        Debugger dbg(t, DebuggerOptions{});
        dbg.watch(w.watch(WatchSel::WARM1));
        dbg.attach();
        t0 = nowNs();
        r.result = dbg.runFunctional();
    } else {
        t.load();
        StreamEnv env;
        env.sink = &t.sink;
        FuncCpu cpu(t.arch, t.mem, &t.engine, env);
        t0 = nowNs();
        r.result = cpu.run();
    }
    r.mips = mips(r.result.appInsts, secondsSince(t0));
    r.jit = t.jit()->stats();
    return r;
}

/** Median-MIPS of @p n repeats of @p fn (which returns MIPS). */
template <typename Fn>
double
medianMips(Fn fn)
{
    std::vector<double> v;
    for (unsigned i = 0; i < kRepeats; ++i)
        v.push_back(fn());
    return median(v);
}

/** One wire session on @p port: create, WARM1 watch, run-to-end. */
double
wireSessionMips(Probe &p, uint16_t port, const std::string &name)
{
    WireClient c;
    std::string err;
    if (!p.ctx.ops.check(c.connectTo(port, &err), "connect: " + err))
        return 0;
    Request create;
    create.kind = RequestKind::SessionCreate;
    create.name = name;
    Request watch;
    watch.kind = RequestKind::SetWatch;
    watch.watch = p.program(name).watch(WatchSel::WARM1);
    Request run;
    run.kind = RequestKind::RunToEnd;
    run.count = 0;
    Response cr, wr, rr, dr;
    if (!wireCall(p.ctx, c, create, cr, "wire.session-create") ||
        !wireCall(p.ctx, c, watch, wr, "wire.set-watch"))
        return 0;
    uint64_t t0 = nowNs();
    if (!wireCall(p.ctx, c, run, rr, "wire.run-to-end"))
        return 0;
    double m = mips(rr.stop.appInsts, secondsSince(t0));
    Request destroy;
    destroy.kind = RequestKind::SessionDestroy;
    destroy.session = cr.value;
    wireCall(p.ctx, c, destroy, dr, "wire.session-destroy");
    c.close();
    return m;
}

/** Median round trip (µs) of the `stats` verb on a fresh recorded
 *  session reached through @p port. */
double
wireStatsUs(Probe &p, uint16_t port)
{
    WireClient c;
    std::string err;
    if (!p.ctx.ops.check(c.connectTo(port, &err), "connect: " + err))
        return 0;
    Request create;
    create.kind = RequestKind::SessionCreate;
    create.name = kLadderProgram;
    Response cr, resp;
    if (!wireCall(p.ctx, c, create, cr, "wire.session-create"))
        return 0;
    Request stats;
    stats.kind = RequestKind::Stats;
    double us = medianUs(kCalls, [&] {
        wireCall(p.ctx, c, stats, resp, "wire.stats");
    });
    Request destroy;
    destroy.kind = RequestKind::SessionDestroy;
    destroy.session = cr.value;
    wireCall(p.ctx, c, destroy, resp, "wire.session-destroy");
    c.close();
    return us;
}

} // namespace

void
runLayers(Ctx &ctx)
{
    Probe p{ctx, {}};
    auto set = [&](const std::string &name, double v) { ctx.set(name, v); };

    // ------------------------------------------- cpu / dise / jit
    uint64_t invalidations = 0;
    std::map<std::string, FuncRung> jitRungs;
    for (const std::string &name : kPrograms) {
        const Workload &w = p.program(name);
        set("cpu.mips." + name, medianMips([&] { return funcRun(w, false, false).mips; }));
        FuncRung dise = funcRun(w, true, false);
        set("dise.mips." + name, medianMips([&] { return funcRun(w, true, false).mips; }));
        set("dise.expansion_ops_per_inst." + name,
            double(dise.result.expansionOps) / dise.result.appInsts);
        FuncRung jit = funcRun(w, true, true);
        set("jit.mips." + name, medianMips([&] { return funcRun(w, true, true).mips; }));
        set("jit.coverage." + name,
            double(jit.jit.tracedUops) / jit.result.microOps);
        set("jit.side_exits_per_kuop." + name,
            1000.0 * jit.jit.sideExits / jit.result.microOps);
        invalidations += jit.jit.invalidated;
        jitRungs[name] = jit;
    }

    // ------------------------------------------------ record (replay)
    std::vector<std::pair<std::string, bool>> checks;
    for (const std::string &name : kPrograms) {
        const Workload &w = p.program(name);
        TimeTravel::Stats st{};
        set("replay.record_mips." + name, medianMips([&] {
                SpanScope sp("ladder.record");
                DebugSession s(w.program, sessionOptions(true));
                s.setWatch(w.watch(WatchSel::WARM1));
                s.attach();
                uint64_t t0 = nowNs();
                StopInfo stop = s.runToEnd();
                double m = mips(stop.appInsts, secondsSince(t0));
                st = *s.travelStats();
                return m;
            }));
        set("replay.pages_per_checkpoint." + name,
            double(st.pagesCopied) / std::max<uint64_t>(1, st.checkpointsTaken));
        // A forward recording executes exactly the µops the JIT rung
        // retired (TimeTravel::Stats vs FuncResult/TraceCacheStats).
        checks.push_back({"record uops == jit rung uops (" + name + ")",
                          st.uops == jitRungs[name].result.microOps});
        checks.push_back({"traced uops <= uops (" + name + ")",
                          jitRungs[name].jit.tracedUops <=
                              jitRungs[name].result.microOps});
    }

    // ------------------------------------- session / tools / reverse
    const Workload &lw = p.program(kLadderProgram);
    double sessionMips = medianMips([&] {
        SpanScope sp("ladder.session");
        DebugSession s(lw.program, sessionOptions(true));
        Request watch;
        watch.kind = RequestKind::SetWatch;
        watch.watch = lw.watch(WatchSel::WARM1);
        s.handle(watch);
        Request run;
        run.kind = RequestKind::RunToEnd;
        run.count = 0;
        uint64_t t0 = nowNs();
        Response r = s.handle(run);
        return mips(r.stop.appInsts, secondsSince(t0));
    });

    uint64_t checksTotal = 0, suppressed = 0, toolInsts = 0;
    for (const std::string &name : kPrograms) {
        const Workload &w = p.program(name);
        set("tools.mips.asan." + name, medianMips([&] {
                SpanScope sp("tools.asan-run");
                DebugSession s(w.program, sessionOptions(true));
                s.setWatch(w.watch(WatchSel::WARM1));
                std::string err;
                ctx.ops.check(s.toolEnable("asan", {}, &err),
                              "tool-enable asan: " + err);
                uint64_t t0 = nowNs();
                StopInfo stop = s.runToEnd();
                double m = mips(stop.appInsts, secondsSince(t0));
                for (const tools::ToolStatsRow &row :
                     s.debugger().backend().tools().statsRows())
                    if (row.name == "asan") {
                        checksTotal += row.checks;
                        suppressed += row.suppressed;
                        toolInsts += stop.appInsts;
                    }
                return m;
            }));
    }
    set("tools.checks_per_kinst", 1000.0 * checksTotal / std::max<uint64_t>(1, toolInsts));
    set("tools.suppressed_ratio",
        double(suppressed) / std::max<uint64_t>(1, checksTotal + suppressed));

    {
        // Reverse, interval replay and verb dispatch on one recorded
        // session.
        DebugSession s(lw.program, sessionOptions(true));
        s.setWatch(lw.watch(WatchSel::WARM1));
        s.runToEnd();
        TimeTravel::Stats before = *s.travelStats();
        std::vector<double> rev;
        const unsigned kReverses = 30;
        for (unsigned i = 0; i < kReverses; ++i) {
            SpanScope sp("replay.reverse");
            uint64_t t0 = nowNs();
            if (i % 2)
                s.reverseStep(1 + (i * 7919) % 20000);
            else
                s.reverseContinue();
            rev.push_back(usSince(t0) / 1e3);
        }
        TimeTravel::Stats after = *s.travelStats();
        set("replay.reverse_ms", median(rev));
        set("replay.replayed_uops_per_reverse",
            double(after.replayedUops - before.replayedUops) / kReverses);
        set("replay.pages_restored_per_reverse",
            double(after.pagesRestored - before.pagesRestored) / kReverses);

        uint64_t timeline = s.stats().time;
        uint64_t t0 = nowNs();
        IntervalReplay::Report rep;
        {
            SpanScope sp("replay.verify");
            rep = s.verifyReplay(2);
        }
        set("replay.verify_ms", usSince(t0) / 1e3);
        ctx.ops.check(rep.ok && rep.finalDigest == s.digest(),
                      "in-process verifyReplay: " + rep.error);
        set("replay.verify_steals", rep.steals);
        // Timeline µops up to the session's furthest explored point.
        set("replay.verify_replayed_ratio",
            double(rep.uopsReplayed) / std::max<uint64_t>(1, timeline));

        auto handleUs = [&](const std::string &verb, const Request &req) {
            set("session.handle_us." + verb, medianUs(kCalls, [&] {
                    SpanScope sp("session.handle");
                    ctx.ops.check(s.handle(req).ok(), "handle " + verb);
                }));
        };
        Request r;
        r.kind = RequestKind::ReadRegisters;
        handleUs("read-registers", r);
        r.kind = RequestKind::ReadMemory;
        r.addr = lw.warm1Addr;
        r.size = 8;
        handleUs("read-memory", r);
        r.kind = RequestKind::Stats;
        handleUs("stats", r);
        r.kind = RequestKind::Stepi;
        r.count = 1;
        handleUs("stepi", r);
        std::vector<uint8_t> cur = s.readMemory(lw.warm1Addr, 8);
        r.kind = RequestKind::WriteMemory;
        r.value = 0;
        for (size_t i = 0; i < cur.size(); ++i)
            r.value |= uint64_t(cur[i]) << (8 * i);
        handleUs("write-memory", r);

        Request te;
        te.kind = RequestKind::ToolEnable;
        te.name = "asan";
        uint64_t t1 = nowNs();
        ctx.ops.check(s.handle(te).ok(), "handle tool-enable");
        set("session.tool_enable_ms", usSince(t1) / 1e3);
        te.kind = RequestKind::ToolDisable;
        ctx.ops.check(s.handle(te).ok(), "handle tool-disable");

        uint64_t t2 = nowNs();
        {
            SpanScope sp("session.rebuild");
            ctx.ops.check(s.setWatch(lw.watch(WatchSel::COLD)) >= 0,
                          "post-attach set-watch: " + s.lastRefusal());
        }
        set("session.rebuild_ms", usSince(t2) / 1e3);
    }

    // -------------------------------------------------------- sched
    double schedMips = medianMips([&] {
        SpanScope sp("ladder.sched");
        SessionManager manager({}, p.factory());
        JobScheduler queue({1, 50000});
        ManagedSessionPtr ms = manager.create(kLadderProgram, BackendKind::Dise);
        ms->session.setWatch(lw.watch(WatchSel::WARM1));
        StopInfo stop;
        std::string err;
        uint64_t t0 = nowNs();
        ctx.ops.check(queue.drive(*ms, RequestKind::RunToEnd, 0, stop, &err),
                      "sched drive: " + err);
        double m = mips(stop.appInsts, secondsSince(t0));
        queue.stop();
        return m;
    });
    set("sched.drive_overhead_pct", 100.0 * (sessionMips / schedMips - 1.0));

    // ---------------------------------------------- server / served
    DebugServerOptions so;
    so.slots = 2;
    so.defaultWorkload = kLadderProgram;
    double serverMips = 0, servedMips = 0, wireUs = 0, rspUs = 0;
    {
        DebugServer server(so, p.factory());
        ctx.ops.check(server.start(), "server start");
        serverMips = medianMips([&] {
            SpanScope sp("ladder.server");
            return wireSessionMips(p, server.port(), kLadderProgram);
        });
        WireClient ctl;
        ctl.connectTo(server.port());
        Request ss;
        ss.kind = RequestKind::ServerStats;
        Response s0, s1;
        wireCall(ctx, ctl, ss, s0, "wire.server-stats");
        std::vector<double> served;
        for (unsigned i = 0; i < kRepeats; ++i) {
            SpanScope sp("ladder.served");
            std::vector<std::thread> others;
            for (const char *other : {"bzip2", "gcc"})
                others.emplace_back([&, other] {
                    wireSessionMips(p, server.port(), other);
                });
            served.push_back(wireSessionMips(p, server.port(), kLadderProgram));
            for (auto &t : others)
                t.join();
        }
        servedMips = median(served);
        wireCall(ctx, ctl, ss, s1, "wire.server-stats");
        // The served workload reports the scheduler figures of its own
        // load (with the RSP user); the ladder's stand in elsewhere.
        bool ownSched = ctx.workload != "served";
        const char *qwName = "dise_sched_queue_wait_us";
        const char *slName = "dise_slice_duration_us";
        const HistogramSnapshot *qw = findHist(s1.server, qwName);
        if (qw && ownSched) {
            set("sched.queue_wait_p50_us",
                histPercentile(*qw, findHist(s0.server, qwName), 0.5));
            set("sched.queue_wait_p99_us",
                histPercentile(*qw, findHist(s0.server, qwName), 0.99));
        }
        if (const HistogramSnapshot *sl = findHist(s1.server, slName)) {
            if (ownSched)
                set("sched.slice_p50_us",
                    histPercentile(*sl, findHist(s0.server, slName), 0.5));
            checks.push_back({"slices counter == slice histogram count",
                              s1.server.slices - s0.server.slices ==
                                  sl->count - (findHist(s0.server, slName)
                                                   ? findHist(s0.server, slName)->count
                                                   : 0)});
        }
        if (ownSched)
            set("sched.slices", s1.server.slices - s0.server.slices);
        ctl.close();

        // Front-end round trips minus the in-process handler.
        wireUs = wireStatsUs(p, server.port());
        DebugSession local(lw.program, sessionOptions(true));
        Request st;
        st.kind = RequestKind::Stats;
        double handleUs = medianUs(kCalls, [&] { local.handle(st); });
        set("server.wire_rtt_us", wireUs - handleUs);

        GdbClient gdb;
        ctx.ops.check(gdb.connectTo(server.port()), "rsp connect");
        gdb.exchange("qSupported:hwbreak+");
        double gUs = medianUs(kCalls, [&] {
            SpanScope sp("rsp.exchange.g");
            ctx.ops.check(gdb.exchange("g").size() > 16, "rsp g");
        });
        gdb.exchange("D");
        gdb.close();
        rsp::RspConnection conn(local);
        double inProc = medianUs(kCalls, [&] { conn.handlePacket("g"); });
        rspUs = gUs - inProc;
        set("rsp.rtt_us", rspUs);
        server.stop();
    }
    {
        Request req;
        req.kind = RequestKind::Stats;
        Response resp;
        resp.inReplyTo = RequestKind::Stats;
        resp.stats.time = 123456789;
        resp.stats.appInsts = 98765;
        set("server.codec_us", medianUs(kCalls, [&] {
                for (int i = 0; i < 10; ++i) {
                    Request rq;
                    Response rs;
                    decodeRequest(encodeRequest(req), rq);
                    decodeResponse(encodeResponse(resp), rs);
                }
            }) / 10);
    }

    // --------------------------------------------------------- shard
    double shardMips = 0;
    {
        ShardSupervisorOptions sopts;
        sopts.shards = 1;
        sopts.worker = so;
        sopts.factory = p.factory();
        ShardSupervisor fleet(sopts);
        if (ctx.ops.check(fleet.start(), "shard fleet start")) {
            shardMips = medianMips([&] {
                SpanScope sp("ladder.shard");
                return wireSessionMips(p, fleet.port(), kLadderProgram);
            });
            set("shard.hop_us", wireStatsUs(p, fleet.port()) - wireUs);
            fleet.stop();
        }
    }

    // ------------------------------------------------------- persist
    {
        std::string dir = ctx.outDir + "/persist-store";
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        persist::RealVfs vfs;
        persist::SessionStore store(dir, vfs);
        ctx.ops.check(store.open().ok, "store open");
        SessionManager manager({}, p.factory());
        manager.adoptStore(&store);
        JobScheduler queue({1, 50000});
        ManagedSessionPtr ms = manager.create(kLadderProgram, BackendKind::Dise);
        ms->session.setWatch(lw.watch(WatchSel::WARM1));
        StopInfo stop;
        std::string err;
        ctx.ops.check(queue.drive(*ms, RequestKind::Cont, 0, stop, &err),
                      "persist cont: " + err);
        uint64_t id = ms->id;
        ms.reset();
        std::vector<double> hib, res;
        for (unsigned i = 0; i < kRepeats; ++i) {
            uint64_t t0 = nowNs();
            ctx.ops.check(manager.hibernate(id, &err), "hibernate: " + err);
            hib.push_back(usSince(t0) / 1e3);
            uint64_t t1 = nowNs();
            ms = manager.find(id, false, &err);
            ctx.ops.check(ms != nullptr, "resurrect: " + err);
            res.push_back(usSince(t1) / 1e3);
            ms.reset();
        }
        set("persist.hibernate_ms", median(hib));
        set("persist.resurrect_ms", median(res));
        set("persist.image_bytes", store.counters().bytes);
        manager.destroy(id);
        queue.stop();
        std::filesystem::remove_all(dir);
    }

    // -------------------------------------------------------- timing
    {
        HarnessOptions h;
        h.scale = kScale;
        h.seed = ctx.seed;
        ExperimentRunner run(h);
        uint64_t dFlush = 0, mFlush = 0, stall = 0;
        for (const std::string &name : kPrograms) {
            set("timing.ipc." + name, run.baseline(name).ipc());
            DebuggerOptions d;
            RunOutcome o = run.debugged(
                name, {run.standardWatch(name, WatchSel::HOT, false)}, d);
            dFlush += o.stats.diseFlushes;
            mFlush += o.stats.mispredictFlushes;
            stall += o.stats.transitionStallCycles;
        }
        set("timing.dise_flushes", dFlush);
        set("timing.mispredict_flushes", mFlush);
        set("timing.transition_stall_cycles", stall);
    }
    set("jit.invalidations", invalidations);

    // -------------------------------------------------------- ladder
    // Host ns per application instruction at each rung; adjacent
    // differences are the layers' self costs.
    const std::vector<std::pair<std::string, double>> rungs = {
        {"cpu", ctx.values()["cpu.mips." + kLadderProgram]},
        {"dise", ctx.values()["dise.mips." + kLadderProgram]},
        {"jit", ctx.values()["jit.mips." + kLadderProgram]},
        {"record", ctx.values()["replay.record_mips." + kLadderProgram]},
        {"session", sessionMips},
        {"sched", schedMips},
        {"server", serverMips},
    };
    auto ns = [](double m) { return m > 0 ? 1e3 / m : 0; };
    double layersNs = 0;
    for (size_t i = 0; i < rungs.size(); ++i) {
        set("ladder.mips." + rungs[i].first, rungs[i].second);
        if (i) {
            double c = ns(rungs[i].second) - ns(rungs[i - 1].second);
            set("ladder.cost_ns." + rungs[i].first, c);
            layersNs += c;
        }
    }
    double totalNs = ns(servedMips) - ns(rungs.front().second);
    set("ladder.mips.served", servedMips);
    set("ladder.mips.shard", shardMips);
    set("ladder.cost_ns.shard", ns(shardMips) - ns(serverMips));
    set("ladder.cost_ns.remainder", totalNs - layersNs);
    set("ladder.total_ns", totalNs);

    // ---------------------------------------------------- cross-check
    auto v = ctx.values();
    auto has = [&](const char *k) { return v.count(k) > 0; };
    if (has("xcheck.slices_counter"))
        checks.push_back({"served: slices counter == slice histogram",
                          v["xcheck.slices_counter"] == v["xcheck.slices_histogram"]});
    if (has("xcheck.jobs"))
        checks.push_back({"served: queue waits >= jobs",
                          v["xcheck.queue_waits"] >= v["xcheck.jobs"]});
    if (has("xcheck.server_app_insts"))
        checks.push_back({"served: server app insts >= bench batch insts",
                          v["xcheck.server_app_insts"] >=
                              v["xcheck.bench_batch_app_insts"]});
    if (has("xcheck.server_verbs"))
        checks.push_back({"served: bench wire calls == server verb histogram",
                          v["xcheck.bench_wire_calls"] == v["xcheck.server_verbs"]});
    if (has("xcheck.travel_work_match"))
        checks.push_back({"timetravel: server TimeTravel::Stats checkpoints, "
                          "restores, pages, uops == oracle's",
                          v["xcheck.travel_work_match"] == 1});
    if (has("xcheck.travel_replayed_match"))
        checks.push_back({"timetravel: server TimeTravel::Stats replayedUops "
                          "== oracle's",
                          v["xcheck.travel_replayed_match"] == 1});
    size_t agree = 0;
    for (const auto &[what, ok] : checks) {
        agree += ok;
        if (!ok)
            std::fprintf(stderr, "perfbench: cross-check disagrees: %s\n",
                         what.c_str());
    }
    set("obs.crosscheck_agree_pct", 100.0 * agree / std::max<size_t>(1, checks.size()));
    set("obs.crosscheck_checks", checks.size());
}

} // namespace perfbench
