/**
 * @file
 * The `served` workload: one in-process DebugServer with two scheduler
 * slots shared by three batch wire connections and one gdb-style RSP
 * user.
 *
 * Each batch connection runs DISE sessions back to back (create, WARM1
 * watch, run-to-end, read-registers, stats, destroy) on its own
 * program — bzip2, mcf (loop-heavy) and gcc (branchy) — so every
 * session pays its own JIT warm-up inside the timed phase. The RSP
 * connection sets a Z2 watch on HOT and then repeats the packet cycle
 * of the gdb session captured in the top-level README.md (`c`, `c`,
 * `bc`, `m` of the watched cell, `bs`), reconnecting when its target
 * exits.
 *
 * Oracle: every batch session must match one in-process run of its
 * program on the plain interpreter (trace JIT off, no server), and
 * every RSP reply must match the same packet script replayed through
 * an in-process RspConnection on a JIT-off session.
 */

#include <cstdio>
#include <memory>
#include <thread>

#include "common.hh"
#include "gdb_client.hh"
#include "rsp/server.hh"
#include "server/server.hh"
#include "server/wire_client.hh"

namespace perfbench {

using namespace dise;
using namespace dise::server;

namespace {

const std::vector<std::string> kBatchPrograms = {"bzip2", "mcf", "gcc"};
/** The RSP user debugs its own program (factory key "rsp-user"). */
const std::string kRspKey = "rsp-user";
const std::string kRspProgram = "bzip2";
constexpr unsigned kBatchScale = 2;
constexpr unsigned kRspScale = 1;
constexpr unsigned kSlots = 2;
constexpr unsigned kSetups = 9;

std::string
hexAddr(Addr a)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llx", static_cast<unsigned long long>(a));
    return buf;
}

/** Digest of one finished batch session: its final stop, registers
 *  and position counters. */
uint64_t
batchDigest(const Response &run, const Response &regs, const Response &st)
{
    uint64_t h = responseDigest(run);
    h = fnvU64(responseDigest(regs), h);
    h = fnvU64(st.stats.time, h);
    h = fnvU64(st.stats.appInsts, h);
    return fnvU64(st.stats.events, h);
}

struct BatchDone
{
    size_t program = 0;
    uint64_t digest = 0;
    uint64_t appInsts = 0;
};

/** One RSP target's life: the packets sent after the capability
 *  handshake and the replies received. */
struct RspLife
{
    std::vector<std::pair<std::string, std::string>> packets;
};

struct Fixture
{
    std::unique_ptr<DebugServer> server;
    std::vector<std::unique_ptr<WireClient>> batch;
    std::unique_ptr<WireClient> control;
    std::unique_ptr<GdbClient> rsp;
    RspLife life;
    Addr hotAddr = 0;
    std::vector<Addr> warm1;
};

/** Capability handshake, `?` and the Z2 watch of a new RSP life. */
bool
rspAttach(Ctx &ctx, Fixture &fx, bool timed)
{
    fx.rsp = std::make_unique<GdbClient>();
    if (!ctx.ops.check(fx.rsp->connectTo(fx.server->port(), 30),
                       "rsp connect failed"))
        return false;
    fx.rsp->exchange("qSupported:hwbreak+");
    fx.life = RspLife{};
    for (const std::string &p : {std::string("?"),
                                 "Z2," + hexAddr(fx.hotAddr) + ",8"}) {
        uint64_t t0 = nowNs();
        std::string reply = fx.rsp->exchange(p);
        if (timed)
            ctx.sample("op_us", usSince(t0));
        fx.life.packets.emplace_back(p, reply);
        if (!ctx.ops.check(!reply.empty() && reply[0] != '<' &&
                               reply[0] != 'E',
                           "rsp " + p + " -> " + reply))
            return false;
    }
    return true;
}

bool
setUp(Ctx &ctx, Fixture &fx, uint64_t seed)
{
    DebugServerOptions o;
    o.slots = kSlots;
    o.maxSessions = 8;
    o.defaultBackend = BackendKind::Dise;
    o.defaultWorkload = kRspKey;
    auto factory = [seed](const std::string &name, Program &out) {
        if (name == kRspKey) {
            out = buildProgram(kRspProgram, kRspScale, seed).program;
            return true;
        }
        for (const std::string &p : kBatchPrograms)
            if (p == name) {
                out = buildProgram(p, kBatchScale, seed).program;
                return true;
            }
        return false;
    };
    fx.server = std::make_unique<DebugServer>(o, factory);
    if (!ctx.ops.check(fx.server->start(), "server start failed"))
        return false;
    fx.warm1.clear();
    for (const std::string &p : kBatchPrograms)
        fx.warm1.push_back(buildProgram(p, kBatchScale, seed).warm1Addr);
    fx.hotAddr = buildProgram(kRspProgram, kRspScale, seed).hotAddr;
    for (size_t i = 0; i <= kBatchPrograms.size(); ++i) {
        auto c = std::make_unique<WireClient>();
        std::string err;
        if (!ctx.ops.check(c->connectTo(fx.server->port(), &err),
                           "wire connect failed: " + err))
            return false;
        Response resp;
        Request list;
        list.kind = RequestKind::SessionList;
        if (!wireCall(ctx, *c, list, resp, "wire.session-list"))
            return false;
        if (i == kBatchPrograms.size())
            fx.control = std::move(c);
        else
            fx.batch.push_back(std::move(c));
    }
    return rspAttach(ctx, fx, false);
}

void
tearDown(Fixture &fx)
{
    if (fx.rsp)
        fx.rsp->close();
    for (auto &c : fx.batch)
        c->close();
    if (fx.control)
        fx.control->close();
    if (fx.server)
        fx.server->stop();
}

ServerStats
serverStats(Ctx &ctx, Fixture &fx)
{
    Request req;
    req.kind = RequestKind::ServerStats;
    Response resp;
    wireCall(ctx, *fx.control, req, resp, "wire.server-stats");
    return resp.server;
}

} // namespace

void
runServed(Ctx &ctx, double seconds)
{
    // ------------------------------------------------------- set-up
    Fixture fx;
    std::vector<double> setups;
    for (unsigned k = 0; k < kSetups; ++k) {
        uint64_t t0 = nowNs();
        bool ok = setUp(ctx, fx, ctx.seed);
        setups.push_back(secondsSince(t0));
        if (!ok) {
            tearDown(fx);
            return;
        }
        if (k + 1 < kSetups) {
            tearDown(fx);
            fx = Fixture{};
        }
    }
    ctx.samples("setup_s", setups);

    // -------------------------------------------------- timed phase
    ServerStats before = serverStats(ctx, fx);
    std::mutex doneMu;
    std::vector<BatchDone> done;
    std::vector<RspLife> lives;
    uint64_t start = nowNs();
    uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);

    std::vector<std::thread> threads;
    for (size_t i = 0; i < kBatchPrograms.size(); ++i)
        threads.emplace_back([&, i] {
            WireClient &c = *fx.batch[i];
            while (nowNs() < deadline) {
                SpanScope life("served.batch-session");
                Request create;
                create.kind = RequestKind::SessionCreate;
                create.name = kBatchPrograms[i];
                create.backend = BackendKind::Dise;
                Response cr, wr, run, regs, st, dr;
                if (!wireCall(ctx, c, create, cr, "wire.session-create"))
                    return;
                Request watch;
                watch.kind = RequestKind::SetWatch;
                watch.watch = WatchSpec::scalar("WARM1", fx.warm1[i], 8);
                Request r;
                r.kind = RequestKind::RunToEnd;
                r.count = 0;
                Request rr;
                rr.kind = RequestKind::ReadRegisters;
                Request sr;
                sr.kind = RequestKind::Stats;
                Request d;
                d.kind = RequestKind::SessionDestroy;
                d.session = cr.value;
                bool ok = wireCall(ctx, c, watch, wr, "wire.set-watch") &&
                          wireCall(ctx, c, r, run, "wire.run-to-end") &&
                          wireCall(ctx, c, rr, regs, "wire.read-registers") &&
                          wireCall(ctx, c, sr, st, "wire.stats");
                wireCall(ctx, c, d, dr, "wire.session-destroy");
                if (!ok)
                    return;
                std::lock_guard<std::mutex> lk(doneMu);
                done.push_back({i, batchDigest(run, regs, st),
                                run.stop.appInsts});
            }
        });

    threads.emplace_back([&] {
        // The gdb user of README.md's captured session: two hits
        // forward, one back, a look at the watched cell, one step back.
        const std::string cycle[] = {"c", "c", "bc",
                                     "m" + hexAddr(fx.hotAddr) + ",8", "bs"};
        for (uint64_t n = 0; nowNs() < deadline; ++n) {
            const std::string &p = cycle[n % 5];
            uint64_t t0 = nowNs();
            std::string reply;
            {
                SpanScope sp("rsp.exchange." +
                             (p[0] == 'm' ? std::string("m") : p));
                reply = fx.rsp->exchange(p);
            }
            ctx.sample("op_us", usSince(t0));
            fx.life.packets.emplace_back(p, reply);
            if (!ctx.ops.check(!reply.empty() && reply[0] != '<' &&
                                   reply[0] != 'E',
                               "rsp " + p + " -> " + reply))
                return;
            if (reply[0] == 'W' || reply[0] == 'X') {
                // Target exited: detach and debug a fresh one.
                uint64_t t1 = nowNs();
                std::string bye = fx.rsp->exchange("D");
                ctx.sample("op_us", usSince(t1));
                ctx.ops.check(bye == "OK", "rsp D -> " + bye);
                fx.rsp->close();
                lives.push_back(std::move(fx.life));
                if (!rspAttach(ctx, fx, true))
                    return;
            }
        }
    });
    for (auto &t : threads)
        t.join();
    double elapsed = secondsSince(start);
    lives.push_back(fx.life);
    ctx.set("peak_rss_mb", peakRssMb());

    uint64_t insts = 0;
    for (const BatchDone &b : done)
        insts += b.appInsts;
    ctx.set("app_mips", insts / elapsed / 1e6);
    ctx.set("served.batch_sessions", done.size());
    ctx.set("served.rsp_lives", lives.size());

    ServerStats after = serverStats(ctx, fx);
    if (ctx.trace) {
        // Cross-check the bench's view against the server's counters.
        const HistogramSnapshot *sl = findHist(after, "dise_slice_duration_us");
        const HistogramSnapshot *sl0 = findHist(before, "dise_slice_duration_us");
        const HistogramSnapshot *qw = findHist(after, "dise_sched_queue_wait_us");
        const HistogramSnapshot *qw0 = findHist(before, "dise_sched_queue_wait_us");
        uint64_t slices = after.slices - before.slices;
        uint64_t sliceHist = sl ? sl->count - (sl0 ? sl0->count : 0) : 0;
        uint64_t jobs = after.jobs - before.jobs;
        uint64_t waits = qw ? qw->count - (qw0 ? qw0->count : 0) : 0;
        uint64_t appInsts = after.totalAppInsts - before.totalAppInsts;
        ctx.set("xcheck.slices_counter", slices);
        ctx.set("xcheck.slices_histogram", sliceHist);
        ctx.set("xcheck.jobs", jobs);
        ctx.set("xcheck.queue_waits", waits);
        ctx.set("xcheck.server_app_insts", appInsts);
        ctx.set("xcheck.bench_batch_app_insts", insts);
        ctx.set("sched.slices", slices);
        if (qw) {
            ctx.set("sched.queue_wait_p50_us", histPercentile(*qw, qw0, 0.5));
            ctx.set("sched.queue_wait_p99_us", histPercentile(*qw, qw0, 0.99));
        }
        if (sl)
            ctx.set("sched.slice_p50_us", histPercentile(*sl, sl0, 0.5));
        size_t wireCalls = 0;
        for (const char *v :
             {"wire.session-create", "wire.set-watch", "wire.run-to-end",
              "wire.read-registers", "wire.stats", "wire.session-destroy"})
            wireCalls += Spans::instance().count(v);
        const HistogramSnapshot *vl = findHist(after, "dise_verb_latency_us");
        const HistogramSnapshot *vl0 = findHist(before, "dise_verb_latency_us");
        ctx.set("xcheck.bench_wire_calls", wireCalls);
        // The closing server-stats call is observed after its reply.
        ctx.set("xcheck.server_verbs",
                vl ? vl->count - (vl0 ? vl0->count : 0) - 1 : 0);
    }
    tearDown(fx);

    // ------------------------------------------------------- oracle
    std::vector<uint64_t> expected;
    for (size_t i = 0; i < kBatchPrograms.size(); ++i) {
        Workload w = buildProgram(kBatchPrograms[i], kBatchScale, ctx.seed);
        DebugSession ref(w.program, sessionOptions(false));
        Request watch;
        watch.kind = RequestKind::SetWatch;
        watch.watch = WatchSpec::scalar("WARM1", w.warm1Addr, 8);
        ref.handle(watch);
        Request r;
        r.kind = RequestKind::RunToEnd;
        r.count = 0;
        Response run = ref.handle(r);
        Request rr;
        rr.kind = RequestKind::ReadRegisters;
        Response regs = ref.handle(rr);
        Request sr;
        sr.kind = RequestKind::Stats;
        Response st = ref.handle(sr);
        expected.push_back(batchDigest(run, regs, st));
    }
    for (const BatchDone &b : done)
        ctx.expectEq(expected[b.program], b.digest,
                     "batch session of " + kBatchPrograms[b.program]);

    Program rspProg = buildProgram(kRspProgram, kRspScale, ctx.seed).program;
    for (const RspLife &life : lives) {
        DebugSession ref(rspProg, sessionOptions(false));
        rsp::RspConnection conn(ref);
        conn.handlePacket("qSupported:hwbreak+");
        uint64_t want = 0xcbf29ce484222325ull, got = want;
        for (const auto &[packet, reply] : life.packets) {
            std::string r = conn.handlePacket(packet);
            want = fnv(r.data(), r.size(), want);
            got = fnv(reply.data(), reply.size(), got);
        }
        ctx.expectEq(want, got, "rsp packet script");
    }
}

} // namespace perfbench
