/**
 * @file
 * The `timetravel` workload: one wire client, one DISE session on mcf
 * (many checkpoints). Set-up records the run to its end; the timed
 * phase is a seeded script of read-class verbs (reverse-continue,
 * reverse-step n, run-to-event k, cont) and edit-class verbs
 * (post-attach set-watch, each a rebuild-replay), with a replay-verify
 * every few verbs. Its throughput is the distance the session travels
 * along the recorded timeline, in app instructions per host second.
 *
 * Oracle: the identical request sequence replayed in-process on a
 * JIT-off DebugSession must produce the same stop positions, event
 * indices, register/memory contents and replay digests, response by
 * response.
 *
 * The other edit verbs (write-memory, write-register, remove-watch,
 * tool-enable/disable) trip known defects of the time-travel layer;
 * each run replays one minimal script per defect and reports which
 * still reproduce (known_defects), apart from the operation count.
 */

#include <cstdio>
#include <memory>
#include <random>

#include "common.hh"
#include "server/server.hh"
#include "server/wire_client.hh"

namespace perfbench {

using namespace dise;
using namespace dise::server;

namespace {

const std::string kProgram = "mcf";
constexpr unsigned kScale = 1;
constexpr unsigned kSlots = 2;
constexpr unsigned kSetups = 7;
constexpr unsigned kVerifyEvery = 25;
constexpr unsigned kEditWatches = 4;

/** Verb classes; the order indexes kSpan/kSeries in the timed loop. */
enum class Class { Setup, Read, Edit, Verify };

struct Step
{
    Class cls;
    Request req;
    uint64_t digest = 0; ///< responseDigest of the server's reply
};

struct Fixture
{
    std::unique_ptr<DebugServer> server;
    std::unique_ptr<WireClient> client;
    uint64_t sessionId = 0;
};

Request
make(RequestKind kind, uint64_t count = 1)
{
    Request r;
    r.kind = kind;
    r.count = count;
    return r;
}

/**
 * A known defect of the time-travel layer: a minimal wire script, run
 * on a fresh DebugServer session of mcf (program seed 1), whose last
 * request fails while the defect stands. When one stops reproducing,
 * its verbs belong back in the timed script's edit class.
 */
struct KnownDefect
{
    const char *name;
    std::vector<const char *> script;
};

const std::vector<KnownDefect> kKnownDefects = {
    // Interval replay diverges from the recorded timeline once a
    // post-attach watch has been removed.
    {"remove-watch-then-replay-verify",
     {"set-watch wkind=scalar name=WARM1 addr=0x2401000 size=8",
      "run-to-end",
      "set-watch wkind=scalar name=COLD addr=0x3efffe0 size=8",
      "remove-watch index=1",
      "replay-verify count=2"}},
    // A poke after sliced reverse travel trips "stale pending
    // interventions survived a timeline fork".
    {"poke-after-reverse",
     {"set-watch wkind=scalar name=WARM1 addr=0x2401000 size=8",
      "run-to-end",
      "reverse-step count=3530",
      "cont",
      "write-memory addr=0x2401000 size=8 value=0x0",
      "cont",
      "reverse-step count=2667",
      "cont",
      "cont",
      "write-memory addr=0x2401000 size=8 value=0x0"}},
    // A post-attach set-watch after a tool-enable loses its event
    // position in the rebuild replay.
    {"set-watch-after-tool-enable",
     {"set-watch wkind=scalar name=WARM1 addr=0x2401000 size=8",
      "run-to-end",
      "set-watch wkind=scalar name=WARM2 addr=0x3efffd0 size=8 cond=1 "
      "pred=0xdeadbeef0000",
      "set-watch wkind=scalar name=WARM2 addr=0x3efffd0 size=8 cond=1 "
      "pred=0xdeadbeef0001",
      "run-to-event count=90",
      "tool-enable name=asan",
      "run-to-event count=111",
      "set-watch wkind=scalar name=WARM2 addr=0x3efffd0 size=8 cond=1 "
      "pred=0xdeadbeef0002"}},
};

/** Replays every known-defect script and reports which reproduce
 *  (defect.<name> = 1) and how many (known_defects). A reproduction is
 *  not a failed operation of the run: the verbs involved are kept out
 *  of the timed script until their defect is fixed. */
void
checkKnownDefects(Ctx &ctx)
{
    Program prog = buildProgram(kProgram, kScale, 1).program;
    size_t reproduced = 0;
    for (const KnownDefect &d : kKnownDefects) {
        DebugServerOptions o;
        o.slots = kSlots;
        DebugServer server(o, [prog](const std::string &, Program &out) {
            out = prog;
            return true;
        });
        WireClient client;
        Request create = make(RequestKind::SessionCreate);
        create.name = kProgram;
        create.backend = BackendKind::Dise;
        Response resp;
        if (!ctx.ops.check(server.start() &&
                               client.connectTo(server.port()) &&
                               client.call(create, resp) && resp.ok(),
                           std::string("known defect ") + d.name +
                               ": session set-up failed"))
            return;
        std::string error;
        for (const char *line : d.script) {
            Request req;
            if (!ctx.ops.check(decodeRequest(line, req),
                               std::string("bad defect script: ") + line))
                return;
            if (!client.call(req, resp, &error) || !resp.ok()) {
                error = std::string(line) + " -> " + resp.error + error;
                break;
            }
        }
        client.close();
        server.stop();
        bool reproduces = !error.empty();
        std::string verdict = reproduces
                                  ? "reproduces: " + error.substr(0, 200)
                                  : "no longer reproduces";
        std::fprintf(stderr, "known defect %s: %s\n", d.name,
                     verdict.c_str());
        ctx.set(std::string("defect.") + d.name, reproduces ? 1 : 0);
        reproduced += reproduces;
    }
    ctx.set("known_defects", reproduced);
}

/** Set-up requests: the WARM1 watch and the recording run. */
std::vector<Request>
setupScript(const Workload &w)
{
    Request watch = make(RequestKind::SetWatch);
    watch.watch = w.watch(WatchSel::WARM1);
    return {watch, make(RequestKind::RunToEnd, 0), make(RequestKind::Stats)};
}

} // namespace

void
runTimetravel(Ctx &ctx, double seconds)
{
    Workload w = buildProgram(kProgram, kScale, ctx.seed);
    std::vector<Request> setupReqs = setupScript(w);

    // ------------------------------------------------------- set-up
    Fixture fx;
    std::vector<double> setups;
    std::vector<Step> steps;
    size_t events = 0;
    uint64_t end = 0; ///< app-instruction position at the recording's end
    for (unsigned k = 0; k < kSetups; ++k) {
        if (fx.server) {
            fx.client->close();
            fx.server->stop();
        }
        fx = Fixture{};
        steps.clear();
        uint64_t t0 = nowNs();
        DebugServerOptions o;
        o.slots = kSlots;
        Program prog = w.program;
        fx.server = std::make_unique<DebugServer>(
            o, [prog](const std::string &, Program &out) {
                out = prog;
                return true;
            });
        fx.client = std::make_unique<WireClient>();
        std::string err;
        if (!ctx.ops.check(fx.server->start() &&
                               fx.client->connectTo(fx.server->port(), &err),
                           "server start/connect failed: " + err))
            return;
        Request create = make(RequestKind::SessionCreate);
        create.name = kProgram;
        create.backend = BackendKind::Dise;
        Response resp;
        if (!wireCall(ctx, *fx.client, create, resp, "wire.session-create"))
            return;
        fx.sessionId = resp.value;
        for (const Request &req : setupReqs) {
            if (!wireCall(ctx, *fx.client, req, resp, "wire.setup"))
                return;
            if (req.kind == RequestKind::RunToEnd)
                end = resp.stop.appInsts;
            if (req.kind == RequestKind::Stats)
                events = resp.stats.events;
            steps.push_back({Class::Setup, req, responseDigest(resp)});
        }
        setups.push_back(secondsSince(t0));
    }
    ctx.samples("setup_s", setups);
    if (!ctx.ops.check(events > 0, "recording found no events"))
        return;

    // -------------------------------------------------- timed phase
    // No captured time-travel session exists to take the verb mix
    // from, so it is uniform: each verb is one of the four read verbs
    // or a set-watch edit with equal odds, reverse-step counts are
    // uniform over one checkpoint interval, run-to-event targets are
    // uniform over the timeline, and every kVerifyEvery-th verb is a
    // replay-verify. An edit sets one of kEditWatches conditional WARM2
    // watches whose predicate never holds: the first setting of each
    // is a rebuild-replay, later ones re-arm it, so replay cost does
    // not grow through the run.
    std::mt19937_64 rng(ctx.seed * 0x2545f4914f6cdd1dull + 7);
    const uint64_t interval = SessionOptions{}.timeTravel.checkpointInterval;
    uint64_t edits = 0;
    uint64_t pos = end;
    double travelled = 0;

    uint64_t start = nowNs();
    uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    for (uint64_t n = 1; nowNs() < deadline; ++n) {
        Class cls = Class::Read;
        Request req;
        if (n % kVerifyEvery == 0) {
            cls = Class::Verify;
            req = make(RequestKind::ReplayVerify, 2);
        } else {
            switch (rng() % 5) {
              case 0:
                req = make(RequestKind::ReverseContinue);
                break;
              case 1:
                req = make(RequestKind::ReverseStep, 1 + rng() % interval);
                break;
              case 2:
                req = make(RequestKind::RunToEvent, rng() % events);
                break;
              case 3:
                req = make(RequestKind::Cont);
                break;
              default:
                cls = Class::Edit;
                req = make(RequestKind::SetWatch);
                req.watch = w.watch(WatchSel::WARM2).withCondition(
                    0xdeadbeef0000ull + edits++ % kEditWatches);
            }
        }

        Response resp;
        uint64_t t0 = nowNs();
        static const char *const kSpan[] = {"wire.setup", "wire.read-verb",
                                            "wire.edit-verb",
                                            "wire.replay-verify"};
        static const char *const kSeries[] = {"setup_us", "op_us", "edit_us",
                                              "verify_us"};
        bool ok = wireCall(ctx, *fx.client, req, resp,
                           kSpan[static_cast<int>(cls)]);
        double us = usSince(t0);
        if (!ok)
            break;
        if (resp.hasStop) {
            uint64_t at = resp.stop.appInsts;
            travelled += at > pos ? at - pos : pos - at;
            pos = at;
        }
        ctx.sample(kSeries[static_cast<int>(cls)], us);
        steps.push_back({cls, req, responseDigest(resp)});
    }
    double elapsed = secondsSince(start);
    ctx.set("peak_rss_mb", peakRssMb());
    ctx.set("app_mips", travelled / elapsed / 1e6);
    ctx.set("timetravel.travelled_insts", travelled);

    TimeTravel::Stats served{};
    if (ManagedSessionPtr ms = fx.server->sessions().find(fx.sessionId))
        if (const TimeTravel::Stats *st = ms->session.travelStats())
            served = *st;
    fx.client->close();
    fx.server->stop();

    // ------------------------------------------------------- oracle
    DebugSession ref(w.program, sessionOptions(false));
    for (const Step &s : steps)
        ctx.expectEq(s.digest, responseDigest(ref.handle(s.req)),
                     std::string("timetravel ") + requestKindName(s.req.kind));
    checkKnownDefects(ctx);
    if (ctx.trace) {
        // The server's sliced verbs and the oracle's one-shot verbs
        // must do the same work: same checkpoints, restores, restored
        // pages and executed µops, and the same µops counted as
        // replayed.
        const TimeTravel::Stats *st = ref.travelStats();
        bool same = st && st->checkpointsTaken == served.checkpointsTaken &&
                    st->restores == served.restores &&
                    st->pagesRestored == served.pagesRestored &&
                    st->uops == served.uops;
        ctx.set("xcheck.travel_work_match", same ? 1 : 0);
        ctx.set("xcheck.travel_replayed_match",
                st && st->replayedUops == served.replayedUops ? 1 : 0);
    }
}

} // namespace perfbench
