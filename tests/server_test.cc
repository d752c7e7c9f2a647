/**
 * @file
 * Multi-session server tests: the SessionManager's admission cap and
 * stat rollups, the JobScheduler's slicing/round-robin/teardown-mid-run
 * behavior, and the one-port TCP front end serving concurrent RSP and
 * typed-wire clients on distinct targets with isolated, cross-checked
 * stop locations — including a seeded-random multi-client soak.
 */

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>

#include "common/stats.hh"
#include "persist/fault_injector.hh"
#include "persist/store.hh"
#include "persist/vfs.hh"
#include "rsp/client.hh"
#include "server/server.hh"
#include "workloads/workload.hh"

namespace dise {
namespace {

using namespace server;
using rsp::RspClient;
using rsp::stopReplyPc;

SessionOptions
smallSessions()
{
    SessionOptions o;
    o.timeTravel.checkpointInterval = 512;
    return o;
}

/** Minimal line-oriented wire client for the typed protocol. */
class WireClient
{
  public:
    ~WireClient() { close(); }

    bool
    connectTo(uint16_t port, unsigned timeoutSeconds = 20)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            return false;
        timeval tv{};
        tv.tv_sec = timeoutSeconds;
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0) {
            close();
            return false;
        }
        return true;
    }

    /** One request line out, one response line back (decoded).
     *  Server-initiated `event` lines arriving in between are decoded
     *  into events(). */
    bool
    roundTrip(const std::string &line, Response &resp)
    {
        std::string out = line + "\n";
        if (::write(fd_, out.data(), out.size()) !=
            static_cast<ssize_t>(out.size()))
            return false;
        for (;;) {
            size_t nl;
            while ((nl = buf_.find('\n')) == std::string::npos) {
                char chunk[4096];
                ssize_t n = ::read(fd_, chunk, sizeof chunk);
                if (n <= 0)
                    return false;
                buf_.append(chunk, static_cast<size_t>(n));
            }
            std::string reply = buf_.substr(0, nl);
            buf_.erase(0, nl + 1);
            if (reply.rfind("event ", 0) == 0 || reply == "event") {
                SessionEvent ev;
                if (decodeEvent(reply, ev))
                    events_.push_back(ev);
                continue;
            }
            return decodeResponse(reply, resp);
        }
    }

    /** Events pushed by the server so far (drained). */
    std::vector<SessionEvent>
    takeEvents()
    {
        std::vector<SessionEvent> out;
        out.swap(events_);
        return out;
    }

    bool
    roundTripOk(const std::string &line, Response &resp)
    {
        return roundTrip(line, resp) && resp.ok();
    }

    void
    close()
    {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

  private:
    int fd_ = -1;
    std::string buf_;
    std::vector<SessionEvent> events_;
};

// ------------------------------------------------------ SessionManager

TEST(SessionManager, AdmissionCapAndLifecycle)
{
    SessionManager mgr({2, smallSessions()});
    std::string err;
    ManagedSessionPtr a = mgr.create("demo", BackendKind::Dise);
    ManagedSessionPtr b = mgr.create("mcf", BackendKind::Dise);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(mgr.count(), 2u);

    ManagedSessionPtr c =
        mgr.create("demo", BackendKind::Dise, false, &err);
    EXPECT_EQ(c, nullptr);
    EXPECT_NE(err.find("cap"), std::string::npos) << err;
    EXPECT_EQ(mgr.stats().rejected, 1u);

    // Destroying one frees a slot.
    EXPECT_TRUE(mgr.destroy(a->id));
    EXPECT_TRUE(a->closing.load());
    EXPECT_FALSE(mgr.destroy(a->id)); // already gone
    ManagedSessionPtr d = mgr.create("demo", BackendKind::Dise);
    ASSERT_TRUE(d);
    EXPECT_EQ(mgr.count(), 2u);
    EXPECT_EQ(mgr.stats().peakSessions, 2u);
    EXPECT_EQ(mgr.stats().created, 3u);

    // Unknown workloads are rejected, not fatal.
    EXPECT_EQ(mgr.create("not-a-workload", BackendKind::Dise, false,
                         &err),
              nullptr);
    EXPECT_NE(err.find("unknown workload"), std::string::npos);

    // Exclusive (per-connection) sessions never resolve via select.
    EXPECT_TRUE(mgr.destroy(b->id));
    ManagedSessionPtr e =
        mgr.create("demo", BackendKind::Dise, /*exclusive=*/true);
    ASSERT_TRUE(e);
    EXPECT_EQ(mgr.find(e->id, /*forSelect=*/true), nullptr);
    EXPECT_EQ(mgr.find(e->id), e);
}

TEST(SessionManager, StatsRollAcrossDestroy)
{
    SessionManager mgr({4, smallSessions()});
    JobScheduler queue({2, 2000});
    ManagedSessionPtr ms = mgr.create("demo", BackendKind::Dise);
    ASSERT_TRUE(ms);
    StopInfo stop;
    std::string err;
    ASSERT_TRUE(
        queue.drive(*ms, RequestKind::RunToEnd, 0, stop, &err))
        << err;
    EXPECT_EQ(stop.reason, StopReason::Halted);

    ServerStats live = mgr.stats();
    EXPECT_GT(live.totalAppInsts, 0u);
    EXPECT_GT(live.totalUops, 0u);

    // The totals survive the session's destruction (retired rollup).
    EXPECT_TRUE(mgr.destroy(ms->id));
    ServerStats after = mgr.stats();
    EXPECT_EQ(after.activeSessions, 0u);
    EXPECT_EQ(after.destroyed, 1u);
    EXPECT_EQ(after.totalAppInsts, live.totalAppInsts);
}

// ------------------------------------------------------------ JobScheduler

TEST(JobScheduler, BoundedSlicesMatchUnboundedExecution)
{
    // A watch-hit cont driven through 1-slot, small-slice scheduling
    // stops at the identical location as a direct session.
    Program prog = buildHeisenbugDemo();
    Addr watchAddr = prog.symbol("directory");

    DebugSession ref(prog, smallSessions());
    ref.setWatch(WatchSpec::scalar("directory", watchAddr, 8));
    StopInfo refHit = ref.cont();
    ASSERT_EQ(refHit.reason, StopReason::Event);

    SessionManager mgr({1, smallSessions()});
    JobScheduler queue({1, 500});
    ManagedSessionPtr ms = mgr.create("demo", BackendKind::Dise);
    ASSERT_TRUE(ms);
    ms->session.setWatch(
        WatchSpec::scalar("directory", watchAddr, 8));

    StopInfo stop;
    std::string err;
    ASSERT_TRUE(queue.drive(*ms, RequestKind::Cont, 0, stop, &err))
        << err;
    EXPECT_EQ(stop.reason, StopReason::Event);
    EXPECT_EQ(stop.pc, refHit.pc);
    EXPECT_EQ(stop.time, refHit.time);
    EXPECT_EQ(stop.appInsts, refHit.appInsts);

    // Run-to-end from here takes many bounded slices, not one.
    uint64_t before = queue.slicesRun();
    ASSERT_TRUE(
        queue.drive(*ms, RequestKind::RunToEnd, 0, stop, &err));
    EXPECT_EQ(stop.reason, StopReason::Halted);
    EXPECT_GT(queue.slicesRun() - before, 3u);

    // Reverse works through the queue too.
    ASSERT_TRUE(queue.drive(*ms, RequestKind::ReverseContinue, 0,
                            stop, &err));
    EXPECT_EQ(stop.reason, StopReason::Event);

    // Non-resume verbs are refused.
    EXPECT_FALSE(
        queue.drive(*ms, RequestKind::ReadRegisters, 0, stop, &err));
}

TEST(JobScheduler, TeardownMidRunAbortsAtSliceBoundary)
{
    SessionManager mgr({1, smallSessions()});
    JobScheduler queue({1, 1000});
    ManagedSessionPtr ms = mgr.create("mcf", BackendKind::Dise);
    ASSERT_TRUE(ms);

    std::atomic<bool> failed{false};
    std::string err;
    std::thread driver([&] {
        StopInfo stop;
        failed = !queue.drive(*ms, RequestKind::RunToEnd, 0, stop,
                              &err);
    });
    // Let it make some progress, then tear the session down under it.
    while (ms->slices.load() < 2)
        std::this_thread::yield();
    EXPECT_TRUE(mgr.destroy(ms->id));
    driver.join();
    EXPECT_TRUE(failed.load());
    EXPECT_NE(err.find("destroyed"), std::string::npos) << err;
    EXPECT_EQ(mgr.count(), 0u);
}

TEST(JobScheduler, UnsupportedBackendFailsCleanly)
{
    SessionManager mgr({1, smallSessions()});
    JobScheduler queue({1, 1000});
    ManagedSessionPtr ms =
        mgr.create("demo", BackendKind::VirtualMemory);
    ASSERT_TRUE(ms);
    Program prog = buildHeisenbugDemo();
    ms->session.setWatch(WatchSpec::indirect(
        "*p", prog.symbol("directory"), 8));
    StopInfo stop;
    std::string err;
    EXPECT_FALSE(
        queue.drive(*ms, RequestKind::Cont, 0, stop, &err));
    EXPECT_NE(err.find("cannot implement"), std::string::npos) << err;
}

TEST(JobScheduler, ReverseReplayDoesNotStarveForwardSessions)
{
    // The acceptance scenario: ONE worker slot, two sessions. R runs a
    // long replay-family verb (run-to-event discovery across the whole
    // trace); F steps forward in small jobs. Because every job yields
    // at bounded µop-slice boundaries and the ready queue round-robins,
    // F must complete all its steps while R is still replaying — and R
    // must advance between each of F's steps.
    SessionManagerOptions mopts;
    mopts.maxSessions = 2;
    mopts.session.timeTravel.checkpointInterval = 1u << 20;
    SessionManager mgr(mopts);
    JobScheduler sched({1, 1000});

    ManagedSessionPtr r = mgr.create("mcf", BackendKind::Dise);
    ManagedSessionPtr f = mgr.create("demo", BackendKind::Dise);
    ASSERT_TRUE(r && f);

    // R: a run-to-event hunt for an event number that never fires —
    // a bounded O(trace) sliced replay ending in Halted.
    std::atomic<bool> rDone{false};
    std::atomic<bool> rOk{false};
    std::thread rDriver([&] {
        StopInfo stop;
        std::string err;
        bool ok = sched.drive(*r, RequestKind::RunToEvent, 999999,
                              stop, &err);
        rOk = ok && stop.reason == StopReason::Halted;
        rDone = true;
    });
    while (r->slices.load() < 1)
        std::this_thread::yield();

    // F: ten small forward steps, each its own job.
    uint64_t lastRSlices = r->slices.load();
    int progressed = 0, beforeRDone = 0;
    for (int i = 0; i < 10; ++i) {
        StopInfo stop;
        std::string err;
        ASSERT_TRUE(
            sched.drive(*f, RequestKind::Stepi, 200, stop, &err))
            << err;
        beforeRDone += !rDone.load();
        uint64_t now = r->slices.load();
        progressed += now > lastRSlices;
        lastRSlices = now;
    }
    // Forward progress between replay slices, both directions: F was
    // never starved behind R's replay (all 10 steps landed while R was
    // still running), and R kept replaying between F's steps.
    EXPECT_EQ(beforeRDone, 10)
        << "the forward session was starved behind a replay";
    EXPECT_GE(progressed, 9)
        << "the replay made no progress between forward steps";

    rDriver.join();
    EXPECT_TRUE(rOk.load());
    EXPECT_GT(r->slices.load(), 50u) << "replay should take many slices";
}

TEST(JobScheduler, InterruptedJobLandsAtSliceBoundaryAndResumes)
{
    // A gdb Ctrl-C: cancel() finalizes the job between slices; the
    // session sits at a valid intermediate position and keeps working.
    SessionManagerOptions mopts;
    mopts.session.timeTravel.checkpointInterval = 1u << 20;
    SessionManager mgr(mopts);
    JobScheduler sched({1, 500});
    ManagedSessionPtr ms = mgr.create("mcf", BackendKind::Dise);
    ASSERT_TRUE(ms);

    std::atomic<bool> landed{false};
    std::atomic<bool> wasInterrupted{false};
    StopInfo landing;
    std::mutex mu;
    JobScheduler::TicketPtr t = sched.driveAsync(
        ms, RequestKind::RunToEnd, 0,
        [&](bool ok, bool interrupted, const StopInfo &stop,
            const std::string &err) {
            std::lock_guard<std::mutex> lk(mu);
            landing = stop;
            wasInterrupted = interrupted;
            landed = ok;
        });
    ASSERT_TRUE(t);
    while (ms->slices.load() < 3)
        std::this_thread::yield();
    sched.cancel(t);
    std::string err;
    EXPECT_FALSE(sched.wait(t, &err)); // result: interrupted
    EXPECT_EQ(err, "interrupted");
    while (!landed.load())
        std::this_thread::yield();
    EXPECT_TRUE(wasInterrupted.load());
    {
        std::lock_guard<std::mutex> lk(mu);
        EXPECT_GT(landing.appInsts, 0u);
        EXPECT_LT(landing.appInsts,
                  1000000u); // mid-run, not at the end
    }

    // The session resumes from the interrupted position to completion.
    StopInfo stop;
    ASSERT_TRUE(
        sched.drive(*ms, RequestKind::RunToEnd, 0, stop, &err))
        << err;
    EXPECT_EQ(stop.reason, StopReason::Halted);
    EXPECT_GE(ms->jobs.load(), 2u);
}

// --------------------------------------------- concurrency, in-process

TEST(ServerConcurrency, DistinctSessionsCrossCheckedInParallel)
{
    // N threads, each driving its own session through a
    // watch/continue/reverse cycle; every stop location must equal
    // the single-threaded reference for that session's workload.
    struct Scenario
    {
        std::string workload;
        Addr watchAddr;
        StopInfo refHit1, refHit2, refBack;
    };
    std::vector<Scenario> scenarios;
    for (std::string w : {"demo", "mcf", "bzip2", "twolf"}) {
        Scenario sc;
        sc.workload = w;
        Program prog;
        if (w == "demo") {
            prog = buildHeisenbugDemo();
            sc.watchAddr = prog.symbol("directory");
        } else {
            Workload wl = buildWorkload(w, {});
            sc.watchAddr = wl.hotAddr;
            prog = std::move(wl.program);
        }
        DebugSession ref(prog, smallSessions());
        ref.setWatch(WatchSpec::scalar("w", sc.watchAddr, 8));
        sc.refHit1 = ref.cont();
        sc.refHit2 = ref.cont(); // may be Halted (single-hit watches)
        sc.refBack = ref.reverseContinue();
        ASSERT_EQ(sc.refHit1.reason, StopReason::Event) << w;
        scenarios.push_back(sc);
    }

    SessionManager mgr(
        {static_cast<unsigned>(scenarios.size()), smallSessions()});
    JobScheduler queue({2, 2000}); // fewer slots than sessions: contention
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (const Scenario &sc : scenarios) {
        threads.emplace_back([&, sc] {
            ManagedSessionPtr ms =
                mgr.create(sc.workload, BackendKind::Dise);
            if (!ms) {
                ++mismatches;
                return;
            }
            ms->session.setWatch(
                WatchSpec::scalar("w", sc.watchAddr, 8));
            StopInfo h1, h2, back;
            std::string err;
            bool ok =
                queue.drive(*ms, RequestKind::Cont, 0, h1, &err) &&
                queue.drive(*ms, RequestKind::Cont, 0, h2, &err) &&
                queue.drive(*ms, RequestKind::ReverseContinue, 0,
                            back, &err);
            if (!ok || h1.reason != sc.refHit1.reason ||
                h1.pc != sc.refHit1.pc ||
                h1.time != sc.refHit1.time ||
                h2.reason != sc.refHit2.reason ||
                h2.pc != sc.refHit2.pc ||
                h2.time != sc.refHit2.time ||
                back.reason != sc.refBack.reason ||
                back.time != sc.refBack.time)
                ++mismatches;
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_GT(queue.slicesRun(), scenarios.size());
}

// ------------------------------------------------------- TCP front end

TEST(DebugServerTcp, TwoRspClientsPlusWireClientOnDistinctTargets)
{
    // The acceptance scenario: one daemon, two simultaneous
    // gdb-style clients (each its own demo target) plus a typed-wire
    // client on a different workload, all with correct isolated
    // stops.
    Program demo = buildHeisenbugDemo();
    Addr demoWatch = demo.symbol("directory");
    DebugSession demoRef(demo, smallSessions());
    demoRef.setWatch(WatchSpec::scalar("w", demoWatch, 8));
    StopInfo demoHit1 = demoRef.cont();
    StopInfo demoHit2 = demoRef.cont();
    ASSERT_EQ(demoHit1.reason, StopReason::Event);

    Workload mcf = buildWorkload("mcf", {});
    DebugSession mcfRef(mcf.program, smallSessions());
    mcfRef.setWatch(WatchSpec::scalar("HOT", mcf.hotAddr, 8));
    StopInfo mcfHit = mcfRef.cont();
    ASSERT_EQ(mcfHit.reason, StopReason::Event);

    DebugServerOptions opts;
    opts.maxSessions = 8;
    opts.session = smallSessions();
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    std::atomic<int> failures{0};
    auto rspClient = [&] {
        RspClient client;
        if (!client.connectTo(srv.port())) {
            ++failures;
            return;
        }
        char z2[64];
        std::snprintf(z2, sizeof z2, "Z2,%llx,8",
                      static_cast<unsigned long long>(demoWatch));
        if (client.exchange("qSupported").find("ReverseContinue+") ==
            std::string::npos)
            ++failures;
        if (client.exchange(z2) != "OK")
            ++failures;
        uint64_t pc1 = 0, pc2 = 0, pcBack = 0;
        std::string h1 = client.exchange("c");
        std::string h2 = client.exchange("c");
        std::string back = client.exchange("bc");
        if (!stopReplyPc(h1, pc1) || pc1 != demoHit1.pc)
            ++failures;
        if (!stopReplyPc(h2, pc2) || pc2 != demoHit2.pc)
            ++failures;
        if (!stopReplyPc(back, pcBack) || pcBack != demoHit1.pc)
            ++failures;
        if (client.exchange("D") != "OK")
            ++failures;
    };

    std::thread rsp1(rspClient), rsp2(rspClient);
    // Wire client rides along on its own target.
    {
        WireClient wire;
        ASSERT_TRUE(wire.connectTo(srv.port()));
        Response resp;
        ASSERT_TRUE(wire.roundTripOk(
            "session-create seq=1 name=mcf backend=dise", resp));
        uint64_t sessionId = resp.value;
        EXPECT_GT(sessionId, 0u);

        Request setw;
        setw.kind = RequestKind::SetWatch;
        setw.seq = 2;
        setw.watch = WatchSpec::scalar("HOT", mcf.hotAddr, 8);
        ASSERT_TRUE(wire.roundTripOk(encodeRequest(setw), resp));

        ASSERT_TRUE(wire.roundTripOk("cont seq=3", resp));
        ASSERT_TRUE(resp.hasStop);
        EXPECT_EQ(resp.stop.reason, StopReason::Event);
        EXPECT_EQ(resp.stop.pc, mcfHit.pc);
        EXPECT_EQ(resp.stop.time, mcfHit.time);

        ASSERT_TRUE(wire.roundTripOk("server-stats seq=4", resp));
        EXPECT_GE(resp.server.created, 1u);
        EXPECT_GE(resp.server.activeSessions, 1u);
        EXPECT_EQ(resp.server.maxSessions, 8u);
        EXPECT_GT(resp.server.totalAppInsts, 0u);

        char destroy[64];
        std::snprintf(destroy, sizeof destroy,
                      "session-destroy seq=5 session=%llu",
                      static_cast<unsigned long long>(sessionId));
        ASSERT_TRUE(wire.roundTripOk(destroy, resp));
    }
    rsp1.join();
    rsp2.join();
    EXPECT_EQ(failures.load(), 0);

    // Per-connection teardown completes shortly after the detach
    // reply reaches the client; poll rather than race it.
    ServerStats st;
    for (int spin = 0; spin < 200; ++spin) {
        st = srv.stats();
        if (st.activeSessions == 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GE(st.created, 3u);
    EXPECT_EQ(st.activeSessions, 0u); // all torn down
    EXPECT_GE(st.slices, 1u);
    EXPECT_GE(srv.connectionsServed(), 3u);
    srv.stop();
}

TEST(DebugServerTcp, AdmissionCapRejectsExcessRspClients)
{
    DebugServerOptions opts;
    opts.maxSessions = 1;
    opts.session = smallSessions();
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    RspClient first;
    ASSERT_TRUE(first.connectTo(srv.port()));
    // Holding a live session...
    EXPECT_NE(first.exchange("qSupported").find("PacketSize"),
              std::string::npos);

    // ...the second client is admitted at TCP level but gets no
    // session: the server hangs up before any reply.
    RspClient second;
    ASSERT_TRUE(second.connectTo(srv.port(), 5));
    std::string reply = second.exchange("qSupported");
    EXPECT_EQ(reply, "<timeout-or-eof>") << reply;
    EXPECT_GE(srv.stats().rejected, 1u);

    // A wire client is told why.
    WireClient wire;
    ASSERT_TRUE(wire.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(
        wire.roundTrip("session-create seq=1 name=demo", resp));
    EXPECT_EQ(resp.status, ResponseStatus::Error);
    EXPECT_NE(resp.error.find("cap"), std::string::npos);

    EXPECT_EQ(first.exchange("D"), "OK");
    srv.stop();
}

TEST(DebugServerTcp, SeededRandomMultiClientSoak)
{
    // Three concurrent RSP clients fire seeded-random command mixes
    // at one daemon while a wire client polls server-stats; nothing
    // may wedge, crash, or bleed between sessions.
    Program demo = buildHeisenbugDemo();
    Addr watchAddr = demo.symbol("directory");

    DebugServerOptions opts;
    opts.maxSessions = 8;
    opts.sliceInsts = 2000;
    opts.session = smallSessions();
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    std::atomic<int> failures{0};
    auto soakClient = [&](uint32_t seed) {
        std::mt19937 rng(seed);
        RspClient client;
        if (!client.connectTo(srv.port(), 30)) {
            ++failures;
            return;
        }
        char z2[64];
        std::snprintf(z2, sizeof z2, "Z2,%llx,8",
                      static_cast<unsigned long long>(watchAddr));
        if (client.exchange(z2) != "OK")
            ++failures;
        char m[64];
        std::snprintf(m, sizeof m, "m%llx,8",
                      static_cast<unsigned long long>(watchAddr));
        for (int op = 0; op < 30; ++op) {
            std::string reply;
            switch (rng() % 6) {
              case 0:
                reply = client.exchange("c");
                break;
              case 1:
                reply = client.exchange("s");
                break;
              case 2:
                reply = client.exchange("bc");
                break;
              case 3:
                reply = client.exchange("bs");
                break;
              case 4:
                reply = client.exchange(m);
                break;
              case 5:
                reply = client.exchange("g");
                break;
            }
            if (reply == "<timeout-or-eof>" ||
                reply == "<write-error>") {
                ++failures;
                return;
            }
        }
        if (client.exchange("D") != "OK")
            ++failures;
    };

    std::vector<std::thread> clients;
    for (uint32_t i = 0; i < 3; ++i)
        clients.emplace_back(soakClient, 1234u + i);
    std::thread wirePoll([&] {
        WireClient wire;
        if (!wire.connectTo(srv.port())) {
            ++failures;
            return;
        }
        for (int i = 0; i < 10; ++i) {
            Response resp;
            if (!wire.roundTripOk("server-stats seq=1", resp)) {
                ++failures;
                return;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
    });
    for (auto &t : clients)
        t.join();
    wirePoll.join();
    EXPECT_EQ(failures.load(), 0);

    // The daemon is still healthy afterwards.
    RspClient post;
    ASSERT_TRUE(post.connectTo(srv.port()));
    EXPECT_NE(post.exchange("qSupported").find("PacketSize"),
              std::string::npos);
    EXPECT_EQ(post.exchange("D"), "OK");
    srv.stop();
}

TEST(DebugServerTcp, WireDetachKeepsRetiredTotals)
{
    // server-stats totals are "all sessions ever": a wire detach must
    // fold the session's final counters into the retired rollup, not
    // wipe them with the post-detach zeros.
    DebugServerOptions opts;
    opts.maxSessions = 2;
    opts.session = smallSessions();
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    WireClient wire;
    ASSERT_TRUE(wire.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(wire.roundTripOk("session-create seq=1 name=demo",
                                 resp));
    ASSERT_TRUE(wire.roundTripOk("run-to-end seq=2", resp));
    ASSERT_TRUE(wire.roundTripOk("server-stats seq=3", resp));
    uint64_t uopsBefore = resp.server.totalUops;
    EXPECT_GT(uopsBefore, 0u);

    ASSERT_TRUE(wire.roundTripOk("detach seq=4", resp));
    ASSERT_TRUE(wire.roundTripOk("server-stats seq=5", resp));
    EXPECT_EQ(resp.server.activeSessions, 0u);
    EXPECT_GE(resp.server.totalUops, uopsBefore);
    srv.stop();
}

TEST(DebugServerTcp, SubscribePushesEventsWithoutPolling)
{
    // After `subscribe`, the server pushes every queued session event
    // as an `event` line at job-slice and verb boundaries — no
    // stats-polling needed. Order follows the queue's delivery seq.
    Program demo = buildHeisenbugDemo();
    Addr watchAddr = demo.symbol("directory");

    DebugServerOptions opts;
    opts.maxSessions = 2;
    opts.session = smallSessions();
    opts.sliceInsts = 500;
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    WireClient wire;
    ASSERT_TRUE(wire.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(wire.roundTripOk("session-create seq=1 name=demo",
                                 resp));
    Request setw;
    setw.kind = RequestKind::SetWatch;
    setw.seq = 2;
    setw.watch = WatchSpec::scalar("w", watchAddr, 8);
    ASSERT_TRUE(wire.roundTripOk(encodeRequest(setw), resp));
    ASSERT_TRUE(wire.roundTripOk("subscribe seq=3", resp));

    ASSERT_TRUE(wire.roundTripOk("cont seq=4", resp));
    ASSERT_TRUE(resp.hasStop);
    ASSERT_EQ(resp.stop.reason, StopReason::Event);
    std::vector<SessionEvent> events = wire.takeEvents();
    ASSERT_FALSE(events.empty());
    bool sawAttach = false, sawWatch = false;
    uint64_t lastSeq = 0;
    bool first = true;
    for (const SessionEvent &ev : events) {
        if (!first) {
            EXPECT_GT(ev.seq, lastSeq); // queue order preserved
        }
        first = false;
        lastSeq = ev.seq;
        sawAttach |= ev.kind == SessionEventKind::Attached;
        if (ev.kind == SessionEventKind::Watch) {
            sawWatch = true;
            EXPECT_EQ(ev.addr, watchAddr);
        }
    }
    EXPECT_TRUE(sawAttach);
    EXPECT_TRUE(sawWatch);

    // server-stats counts the delivery; unsubscribe stops the flow.
    ASSERT_TRUE(wire.roundTripOk("server-stats seq=5", resp));
    EXPECT_GE(resp.server.eventsPushed, events.size());
    EXPECT_EQ(resp.server.subscribers, 1u);
    ASSERT_TRUE(wire.roundTripOk("unsubscribe seq=6", resp));
    ASSERT_TRUE(wire.roundTripOk("run-to-end seq=7", resp));
    EXPECT_TRUE(wire.takeEvents().empty());
    ASSERT_TRUE(wire.roundTripOk("server-stats seq=8", resp));
    EXPECT_EQ(resp.server.subscribers, 0u);
    srv.stop();
}

TEST(DebugServerTcp, ReplayVerifyRunsAsSiblingJobs)
{
    // replay-verify over the wire: the timeline is reconstructed as
    // one preemptible job per checkpoint interval, stitched digests
    // must equal the session's — and an identical in-process session
    // produces the identical digest.
    Program demo = buildHeisenbugDemo();
    Addr watchAddr = demo.symbol("directory");
    DebugSession ref(demo, smallSessions());
    ref.setWatch(WatchSpec::scalar("w", watchAddr, 8));
    ref.cont();
    ref.runToEnd();
    IntervalReplay::Report refRep = ref.verifyReplay(2);
    ASSERT_TRUE(refRep.ok) << refRep.error;

    DebugServerOptions opts;
    opts.maxSessions = 2;
    opts.slots = 2;
    opts.session = smallSessions();
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    WireClient wire;
    ASSERT_TRUE(wire.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(wire.roundTripOk("session-create seq=1 name=demo",
                                 resp));
    Request setw;
    setw.kind = RequestKind::SetWatch;
    setw.seq = 2;
    setw.watch = WatchSpec::scalar("w", watchAddr, 8);
    ASSERT_TRUE(wire.roundTripOk(encodeRequest(setw), resp));
    ASSERT_TRUE(wire.roundTripOk("cont seq=3", resp));
    ASSERT_TRUE(wire.roundTripOk("run-to-end seq=4", resp));

    uint64_t jobsBefore = srv.stats().jobs;
    ASSERT_TRUE(wire.roundTripOk("replay-verify seq=5 count=4", resp));
    EXPECT_EQ(resp.value, refRep.finalDigest);
    // Both sides replay the same fixed cut: the per-interval end
    // digests match one for one.
    ASSERT_EQ(resp.regs.size(), refRep.intervals.size());
    for (size_t i = 0; i < resp.regs.size(); ++i)
        EXPECT_EQ(resp.regs[i], refRep.intervals[i].endDigest)
            << "interval " << i;
    EXPECT_EQ(resp.index, -1); // the reply carries no index field
    // One sibling pool job per scheduler worker was scheduled, each
    // draining checkpoint ranges until the pool ran dry.
    EXPECT_GE(srv.stats().jobs - jobsBefore, 2u);
    srv.stop();
}

TEST(DebugServerTcp, PostAttachWatchAdditionRunsAsRebuildJob)
{
    // A Z-style post-attach spec addition over the wire rides the
    // scheduler as a preemptible rebuild-replay job and preserves the
    // session's position.
    Program demo = buildHeisenbugDemo();
    Addr watchAddr = demo.symbol("directory");

    DebugServerOptions opts;
    opts.maxSessions = 2;
    opts.session = smallSessions();
    opts.sliceInsts = 300;
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    WireClient wire;
    ASSERT_TRUE(wire.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(wire.roundTripOk("session-create seq=1 name=demo",
                                 resp));
    Request setw;
    setw.kind = RequestKind::SetWatch;
    setw.seq = 2;
    setw.watch = WatchSpec::scalar("w", watchAddr, 8);
    ASSERT_TRUE(wire.roundTripOk(encodeRequest(setw), resp));
    ASSERT_TRUE(wire.roundTripOk("cont seq=3", resp));
    ASSERT_TRUE(resp.hasStop);
    uint64_t posInsts = resp.stop.appInsts;

    Request setw2;
    setw2.kind = RequestKind::SetWatch;
    setw2.seq = 4;
    setw2.watch = WatchSpec::scalar("w4", watchAddr, 4);
    ASSERT_TRUE(wire.roundTripOk(encodeRequest(setw2), resp));
    EXPECT_EQ(resp.index, 1);

    ASSERT_TRUE(wire.roundTripOk("stats seq=5", resp));
    EXPECT_EQ(resp.stats.appInsts, posInsts); // position preserved
    srv.stop();
}

TEST(DebugServerTcp, WireSelectSharesAndDestroyInforms)
{
    DebugServerOptions opts;
    opts.maxSessions = 4;
    opts.session = smallSessions();
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    WireClient a, b;
    ASSERT_TRUE(a.connectTo(srv.port()));
    ASSERT_TRUE(b.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(a.roundTripOk("session-create seq=1 name=demo", resp));
    uint64_t id = resp.value;

    // b can see and select a's session; both observe the same target.
    ASSERT_TRUE(b.roundTripOk("session-list seq=1", resp));
    ASSERT_EQ(resp.regs.size(), 1u);
    EXPECT_EQ(resp.regs[0], id);
    char sel[64];
    std::snprintf(sel, sizeof sel, "session-select seq=2 session=%llu",
                  static_cast<unsigned long long>(id));
    ASSERT_TRUE(b.roundTripOk(sel, resp));
    ASSERT_TRUE(a.roundTripOk("read-registers seq=3", resp));
    std::vector<uint64_t> regsA = resp.regs;
    ASSERT_TRUE(b.roundTripOk("read-registers seq=4", resp));
    EXPECT_EQ(resp.regs, regsA);

    // Destroy via b; a's next request reports the loss.
    char destroy[64];
    std::snprintf(destroy, sizeof destroy,
                  "session-destroy seq=5 session=%llu",
                  static_cast<unsigned long long>(id));
    ASSERT_TRUE(b.roundTripOk(destroy, resp));
    ASSERT_TRUE(a.roundTrip("read-registers seq=6", resp));
    EXPECT_EQ(resp.status, ResponseStatus::Error);
    EXPECT_NE(resp.error.find("destroyed"), std::string::npos)
        << resp.error;
    srv.stop();
}

// ------------------------------------------------------ durable sessions

/** Fresh per-test store directory under the build tree (ctest cwd). */
std::string
storeScratch(const std::string &name)
{
    std::string dir = "server_test_store_" + name + "_" +
                      std::to_string(static_cast<long>(::getpid()));
    persist::RealVfs vfs;
    std::vector<std::string> names;
    if (vfs.list(dir, names))
        for (const std::string &n : names)
            vfs.remove(dir + "/" + n);
    return dir;
}

TEST(SessionManagerDurable, CapEvictsLruIdleAndResurrects)
{
    std::string dir = storeScratch("lru");
    persist::RealVfs vfs;
    persist::SessionStore store(dir, vfs);
    ASSERT_TRUE(store.open().ok);

    SessionManager mgr({2, smallSessions()});
    mgr.adoptStore(&store);
    uint64_t aId = mgr.create("demo", BackendKind::Dise)->id;
    uint64_t bId = mgr.create("mcf", BackendKind::Dise)->id;
    EXPECT_EQ(mgr.count(), 2u);

    // At the cap, creating hibernates the LRU idle session (a — it was
    // touched first and nothing holds it) instead of rejecting.
    uint64_t cId = mgr.create("demo", BackendKind::Dise)->id;
    EXPECT_EQ(mgr.count(), 2u);
    ServerStats s = mgr.stats();
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.hibernated, 1u);
    EXPECT_TRUE(store.contains(aId));
    // ids() spans live AND hibernated sessions.
    EXPECT_EQ(mgr.ids().size(), 3u);

    // find() on the hibernated id transparently resurrects it, which
    // at the cap evicts the next LRU idle victim (b).
    std::string err;
    ManagedSessionPtr a = mgr.find(aId, false, &err);
    ASSERT_TRUE(a) << err;
    EXPECT_EQ(a->id, aId);
    EXPECT_EQ(a->workload, "demo");
    s = mgr.stats();
    EXPECT_EQ(s.resurrections, 1u);
    EXPECT_EQ(s.evictions, 2u);
    EXPECT_EQ(s.hibernated, 1u);
    EXPECT_TRUE(store.contains(bId));
    // a's image stays on disk as a crash-recovery anchor until it is
    // superseded by a later hibernate/persist or the session dies.
    EXPECT_TRUE(store.contains(aId));

    // Busy sessions (held by this test) are never victims: with both
    // remaining slots pinned, admission genuinely rejects.
    ManagedSessionPtr c = mgr.find(cId);
    ASSERT_TRUE(c);
    EXPECT_EQ(mgr.create("demo", BackendKind::Dise, false, &err),
              nullptr);
    EXPECT_NE(err.find("no idle session"), std::string::npos) << err;
    EXPECT_EQ(mgr.stats().rejected, 1u);

    // Destroying a hibernated session erases its image.
    EXPECT_TRUE(mgr.destroy(bId));
    EXPECT_FALSE(store.contains(bId));
    EXPECT_EQ(mgr.stats().hibernated, 0u);
    EXPECT_EQ(mgr.find(bId, false, &err), nullptr);
}

TEST(SessionManagerDurable, HibernateRefusalsKeepSessionIntact)
{
    std::string dir = storeScratch("refuse");
    persist::RealVfs vfs;
    persist::SessionStore store(dir, vfs);
    ASSERT_TRUE(store.open().ok);

    SessionManager mgr({4, smallSessions()});
    std::string err;
    // No store adopted yet: typed refusal.
    ManagedSessionPtr ms = mgr.create("demo", BackendKind::Dise);
    ASSERT_TRUE(ms);
    EXPECT_FALSE(mgr.hibernate(ms->id, &err));
    EXPECT_NE(err.find("store"), std::string::npos) << err;

    mgr.adoptStore(&store);
    // Held by this test: busy, refused, still live.
    EXPECT_FALSE(mgr.hibernate(ms->id, &err));
    EXPECT_NE(err.find("busy"), std::string::npos) << err;
    EXPECT_EQ(mgr.count(), 1u);

    uint64_t id = ms->id;
    ms.reset();
    EXPECT_TRUE(mgr.hibernate(id, &err)) << err;
    EXPECT_FALSE(mgr.hibernate(id, &err)); // already on disk
    EXPECT_NE(err.find("already"), std::string::npos) << err;
}

TEST(SessionManagerDurable, DroppedSubscriberGetsFarewell)
{
    class FlakySink : public EventSink
    {
      public:
        int deliveries = 0;
        std::vector<SessionEvent> farewells;
        bool
        deliver(const SessionEvent &) override
        {
            return deliveries++ < 1; // accept one event, then wedge
        }
        void
        farewell(const SessionEvent &ev) override
        {
            farewells.push_back(ev);
        }
    };

    SessionManager mgr({4, smallSessions()});
    ManagedSessionPtr ms = mgr.create("demo", BackendKind::Dise);
    ASSERT_TRUE(ms);
    auto sink = std::make_shared<FlakySink>();
    ms->addSink(sink);
    EXPECT_EQ(ms->subscriberCount(), 1u);

    Program demo = buildHeisenbugDemo();
    ms->session.setWatch(
        WatchSpec::scalar("w", demo.symbol("directory"), 8));
    ms->session.cont(); // queues attach + checkpoint/watch events
    ms->pushEvents();

    // The wedged sink was dropped gracefully: exactly one farewell
    // line of the dedicated kind, unsubscribe bookkeeping done, and
    // the drop is counted at session and server level.
    ASSERT_EQ(sink->farewells.size(), 1u);
    EXPECT_EQ(sink->farewells[0].kind,
              SessionEventKind::SubscriberDropped);
    EXPECT_EQ(ms->subscriberCount(), 0u);
    EXPECT_EQ(ms->droppedSinks.load(), 1u);
    EXPECT_EQ(mgr.stats().dropped, 1u);

    // The counter survives the session's destruction (retired fold).
    uint64_t id = ms->id;
    ms.reset();
    EXPECT_TRUE(mgr.destroy(id));
    EXPECT_EQ(mgr.stats().dropped, 1u);
}

TEST(DebugServerTcp, HibernateResurrectOverWireWithDigestMatch)
{
    Program demo = buildHeisenbugDemo();
    Addr watchAddr = demo.symbol("directory");
    std::string dir = storeScratch("wire");

    DebugServerOptions opts;
    opts.maxSessions = 2;
    opts.session = smallSessions();
    opts.storeDir = dir;
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    WireClient wire;
    ASSERT_TRUE(wire.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(wire.roundTripOk("session-create seq=1 name=demo",
                                 resp));
    uint64_t id = resp.value;
    Request setw;
    setw.kind = RequestKind::SetWatch;
    setw.seq = 2;
    setw.watch = WatchSpec::scalar("w", watchAddr, 8);
    ASSERT_TRUE(wire.roundTripOk(encodeRequest(setw), resp));
    ASSERT_TRUE(wire.roundTripOk("cont seq=3", resp));
    ASSERT_TRUE(resp.hasStop);
    uint64_t posInsts = resp.stop.appInsts;

    // A crash-consistent image without eviction; its digest is the
    // session's state digest.
    ASSERT_TRUE(wire.roundTripOk("session-persist seq=4", resp));
    uint64_t digest = resp.value;
    EXPECT_NE(digest, 0u);
    ASSERT_TRUE(wire.roundTripOk("store-stats seq=5", resp));
    EXPECT_EQ(resp.store.images, 1u);
    EXPECT_GE(resp.store.puts, 1u);
    EXPECT_GT(resp.store.bytes, 0u);

    // Hibernate the selected session (the handler drops its own
    // reference first), then resurrect it by selecting it again.
    ASSERT_TRUE(wire.roundTripOk("session-hibernate seq=6", resp));
    ASSERT_TRUE(wire.roundTripOk("server-stats seq=7", resp));
    EXPECT_EQ(resp.server.hibernated, 1u);
    EXPECT_EQ(resp.server.evictions, 1u);
    EXPECT_EQ(resp.server.activeSessions, 0u);

    char sel[64];
    std::snprintf(sel, sizeof sel, "session-select seq=8 session=%llu",
                  static_cast<unsigned long long>(id));
    ASSERT_TRUE(wire.roundTripOk(sel, resp));
    ASSERT_TRUE(wire.roundTripOk("stats seq=9", resp));
    EXPECT_EQ(resp.stats.appInsts, posInsts); // position restored

    // Bit-identical state: a fresh image of the resurrected session
    // carries the same digest, and replay-verify still stitches clean.
    ASSERT_TRUE(wire.roundTripOk("session-persist seq=10", resp));
    EXPECT_EQ(resp.value, digest);
    ASSERT_TRUE(wire.roundTripOk("replay-verify seq=11 count=2", resp));
    ASSERT_TRUE(wire.roundTripOk("server-stats seq=12", resp));
    EXPECT_EQ(resp.server.resurrections, 1u);
    EXPECT_EQ(resp.server.hibernated, 0u);
    srv.stop();
}

TEST(DebugServerTcp, RemoveWatchThenReplayVerifyAndResurrect)
{
    // The removed-spec script over the wire (mcf, scale 1, seed 1): a
    // watch added after the run and then removed stays installed, so
    // interval replay stitches clean and a hibernated session
    // resurrects with an equal digest.
    Workload mcf = buildWorkload("mcf", {1, 1});
    DebugServerOptions opts;
    opts.maxSessions = 2;
    opts.slots = 2;
    opts.storeDir = storeScratch("removed");
    DebugServer srv(opts, [&](const std::string &, Program &out) {
        out = mcf.program;
        return true;
    });
    ASSERT_TRUE(srv.start());

    WireClient wire;
    ASSERT_TRUE(wire.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(wire.roundTripOk("session-create seq=1 name=mcf", resp));
    uint64_t id = resp.value;
    Request setw;
    setw.kind = RequestKind::SetWatch;
    setw.seq = 2;
    setw.watch = mcf.watch(WatchSel::WARM1);
    ASSERT_TRUE(wire.roundTripOk(encodeRequest(setw), resp));
    ASSERT_TRUE(wire.roundTripOk("run-to-end seq=3", resp));
    setw.seq = 4;
    setw.watch = mcf.watch(WatchSel::COLD);
    ASSERT_TRUE(wire.roundTripOk(encodeRequest(setw), resp));
    ASSERT_EQ(resp.index, 1);
    ASSERT_TRUE(wire.roundTripOk("remove-watch seq=5 index=1", resp));
    ASSERT_TRUE(wire.roundTripOk("replay-verify seq=6 count=2", resp))
        << resp.error;
    uint64_t stitched = resp.value;

    ASSERT_TRUE(wire.roundTripOk("session-persist seq=7", resp));
    uint64_t digest = resp.value;
    EXPECT_EQ(digest, stitched);
    ASSERT_TRUE(wire.roundTripOk("session-hibernate seq=8", resp));
    char sel[64];
    std::snprintf(sel, sizeof sel, "session-select seq=9 session=%llu",
                  static_cast<unsigned long long>(id));
    ASSERT_TRUE(wire.roundTripOk(sel, resp)) << resp.error;
    ASSERT_TRUE(wire.roundTripOk("session-persist seq=10", resp));
    EXPECT_EQ(resp.value, digest);
    ASSERT_TRUE(wire.roundTripOk("replay-verify seq=11 count=2", resp))
        << resp.error;
    EXPECT_EQ(resp.value, digest);
    srv.stop();
}

TEST(DebugServerTcp, PipelinedClientHangUpLeavesDaemonServing)
{
    // A client that pipelines requests and hangs up without reading
    // the replies: the server's writes hit a reset connection, which
    // must fail the send, not raise SIGPIPE and kill the process.
    DebugServerOptions opts;
    opts.maxSessions = 2;
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(srv.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);
    std::string burst;
    for (int i = 0; i < 5000; ++i)
        burst += "ping seq=" + std::to_string(i + 1) + "\n";
    size_t off = 0;
    while (off < burst.size()) {
        ssize_t n = ::send(fd, burst.data() + off, burst.size() - off,
                           MSG_NOSIGNAL);
        ASSERT_GT(n, 0);
        off += static_cast<size_t>(n);
    }
    ::close(fd);
    // Let the server run into the reset connection.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    WireClient wire;
    ASSERT_TRUE(wire.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(wire.roundTripOk("session-create seq=1 name=demo",
                                 resp));
    EXPECT_TRUE(wire.roundTripOk("ping seq=2", resp)) << resp.error;
    srv.stop();
}

TEST(DebugServerTcp, CreateBeyondCapHibernatesIdleSessions)
{
    std::string dir = storeScratch("cap");
    DebugServerOptions opts;
    opts.maxSessions = 2;
    opts.session = smallSessions();
    opts.storeDir = dir;
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    WireClient wire;
    ASSERT_TRUE(wire.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(wire.roundTripOk("session-create seq=1 name=demo",
                                 resp));
    uint64_t id1 = resp.value;
    ASSERT_TRUE(wire.roundTripOk("session-create seq=2 name=mcf",
                                 resp));
    uint64_t id2 = resp.value;
    // The third create succeeds by hibernating the LRU idle session
    // (the first one — this connection moved its selection off it).
    ASSERT_TRUE(wire.roundTripOk("session-create seq=3 name=demo",
                                 resp));
    ASSERT_TRUE(wire.roundTripOk("server-stats seq=4", resp));
    EXPECT_EQ(resp.server.activeSessions, 2u);
    EXPECT_EQ(resp.server.hibernated, 1u);
    EXPECT_EQ(resp.server.evictions, 1u);
    EXPECT_EQ(resp.server.rejected, 0u);
    ASSERT_TRUE(wire.roundTripOk("session-list seq=5", resp));
    EXPECT_EQ(resp.regs.size(), 3u);

    // Rejection only when nothing is evictable: a second client pins
    // the other live session (id2 — id1 went to disk above), this
    // connection pins its own, so a fourth create has no victim.
    WireClient pinner;
    ASSERT_TRUE(pinner.connectTo(srv.port()));
    Response r;
    char line[64];
    std::snprintf(line, sizeof line, "session-select seq=6 session=%llu",
                  static_cast<unsigned long long>(id2));
    ASSERT_TRUE(pinner.roundTripOk(line, r));
    (void)id1;
    Response rej;
    ASSERT_TRUE(wire.roundTrip("session-create seq=8 name=demo", rej));
    EXPECT_EQ(rej.status, ResponseStatus::Error);
    EXPECT_NE(rej.error.find("no idle session"), std::string::npos)
        << rej.error;
    srv.stop();
}

TEST(DebugServerTcp, RestartRecoversPersistedSessions)
{
    // The in-process crash-recovery e2e: server 1 persists a session
    // and dies without any orderly hibernation; server 2 on the same
    // store directory re-admits and resurrects it, digest-identical.
    Program demo = buildHeisenbugDemo();
    Addr watchAddr = demo.symbol("directory");
    std::string dir = storeScratch("restart");

    uint64_t id = 0, digest = 0, posInsts = 0;
    {
        DebugServerOptions opts;
        opts.maxSessions = 4;
        opts.session = smallSessions();
        opts.storeDir = dir;
        DebugServer srv(opts);
        ASSERT_TRUE(srv.start());
        WireClient wire;
        ASSERT_TRUE(wire.connectTo(srv.port()));
        Response resp;
        ASSERT_TRUE(wire.roundTripOk("session-create seq=1 name=demo",
                                     resp));
        id = resp.value;
        Request setw;
        setw.kind = RequestKind::SetWatch;
        setw.seq = 2;
        setw.watch = WatchSpec::scalar("w", watchAddr, 8);
        ASSERT_TRUE(wire.roundTripOk(encodeRequest(setw), resp));
        ASSERT_TRUE(wire.roundTripOk("cont seq=3", resp));
        posInsts = resp.stop.appInsts;
        ASSERT_TRUE(wire.roundTripOk("session-persist seq=4", resp));
        digest = resp.value;
        srv.stop(); // hard stop: nothing else written to the store
    }

    DebugServerOptions opts;
    opts.maxSessions = 4;
    opts.session = smallSessions();
    opts.storeDir = dir;
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());
    WireClient wire;
    ASSERT_TRUE(wire.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(wire.roundTripOk("server-stats seq=1", resp));
    EXPECT_EQ(resp.server.hibernated, 1u);
    char sel[64];
    std::snprintf(sel, sizeof sel, "session-select seq=2 session=%llu",
                  static_cast<unsigned long long>(id));
    ASSERT_TRUE(wire.roundTripOk(sel, resp));
    ASSERT_TRUE(wire.roundTripOk("stats seq=3", resp));
    EXPECT_EQ(resp.stats.appInsts, posInsts);
    ASSERT_TRUE(wire.roundTripOk("session-persist seq=4", resp));
    EXPECT_EQ(resp.value, digest); // bit-identical resurrection
    srv.stop();
}

// ------------------------------------------------------ observability

TEST(Histogram, ConcurrentObserversAgree)
{
    // The TSan build runs this test: concurrent observe() against
    // concurrent snapshot() must be race-free, and the final totals
    // exact once the writers join.
    Histogram h;
    constexpr unsigned kThreads = 8;
    constexpr uint64_t kPerThread = 50000;
    std::atomic<bool> stop{false};
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed))
            (void)h.snapshot("concurrent");
    });
    std::vector<std::thread> writers;
    for (unsigned t = 0; t < kThreads; ++t)
        writers.emplace_back([&h, t] {
            for (uint64_t i = 0; i < kPerThread; ++i)
                h.observe(t * 1000 + (i % 7));
        });
    for (auto &w : writers)
        w.join();
    stop.store(true, std::memory_order_relaxed);
    reader.join();

    EXPECT_EQ(h.count(), kThreads * kPerThread);
    uint64_t expectedSum = 0, bucketTotal = 0;
    for (unsigned t = 0; t < kThreads; ++t)
        for (uint64_t i = 0; i < kPerThread; ++i)
            expectedSum += t * 1000 + (i % 7);
    EXPECT_EQ(h.sum(), expectedSum);
    for (size_t i = 0; i < Histogram::kBuckets; ++i)
        bucketTotal += h.bucketCount(i);
    EXPECT_EQ(bucketTotal, h.count());
}

TEST(DebugServerTcp, DurabilityCountersTravelTheWire)
{
    // sv.dropped / sv.quarantined / sv.faults, driven for real and
    // read back through the typed wire — not just struct-to-struct.
    Program demo = buildHeisenbugDemo();
    Addr watchAddr = demo.symbol("directory");
    std::string dir = storeScratch("counters");
    persist::FaultInjector faults;

    DebugServerOptions opts;
    opts.maxSessions = 2;
    opts.session = smallSessions();
    opts.storeDir = dir;
    opts.faults = &faults;
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    WireClient wire;
    ASSERT_TRUE(wire.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(wire.roundTripOk("session-create seq=1 name=demo",
                                 resp));
    uint64_t id = resp.value;
    Request setw;
    setw.kind = RequestKind::SetWatch;
    setw.seq = 2;
    setw.watch = WatchSpec::scalar("w", watchAddr, 8);
    ASSERT_TRUE(wire.roundTripOk(encodeRequest(setw), resp));
    ASSERT_TRUE(wire.roundTripOk("cont seq=3", resp));

    // A sink that never drains: the first push drops it (sv.dropped).
    class WedgedSink : public EventSink
    {
        bool deliver(const SessionEvent &) override { return false; }
        void farewell(const SessionEvent &) override {}
    };
    {
        ManagedSessionPtr ms = srv.sessions().find(id);
        ASSERT_TRUE(ms);
        ms->addSink(std::make_shared<WedgedSink>());
        ms->pushEvents(); // events queued by the cont above
        EXPECT_EQ(ms->subscriberCount(), 0u);
    }

    // One injected fsync fault: the persist fails cleanly (sv.faults).
    faults.armNth(persist::FaultInjector::Site::Fsync, 1);
    ASSERT_TRUE(wire.roundTrip("session-persist seq=4", resp));
    EXPECT_EQ(resp.status, ResponseStatus::Error);
    faults.disarm();
    EXPECT_GE(faults.injected(), 1u);

    // Hibernate for real, then corrupt every image on disk so the
    // resurrection quarantines it (sv.quarantined).
    ASSERT_TRUE(wire.roundTripOk("session-persist seq=5", resp));
    ASSERT_TRUE(wire.roundTripOk("session-hibernate seq=6", resp));
    persist::RealVfs vfs;
    std::vector<std::string> names;
    ASSERT_TRUE(vfs.list(dir, names));
    unsigned corrupted = 0;
    for (const std::string &n : names) {
        if (n.size() < 4 || n.compare(n.size() - 4, 4, ".img") != 0)
            continue;
        std::vector<uint8_t> bytes;
        ASSERT_TRUE(vfs.readFile(dir + "/" + n, bytes, nullptr));
        ASSERT_FALSE(bytes.empty());
        bytes[bytes.size() / 2] ^= 0xff;
        ASSERT_TRUE(vfs.writeFile(dir + "/" + n, bytes.data(),
                                  bytes.size(), nullptr));
        ++corrupted;
    }
    ASSERT_GE(corrupted, 1u);
    char sel[64];
    std::snprintf(sel, sizeof sel, "session-select seq=7 session=%llu",
                  static_cast<unsigned long long>(id));
    ASSERT_TRUE(wire.roundTrip(sel, resp));
    EXPECT_EQ(resp.status, ResponseStatus::Error);
    EXPECT_NE(resp.error.find("bad-checksum"), std::string::npos)
        << resp.error;

    // dropped and faults arrive wire-decoded, alongside the latency
    // histograms this connection's own verbs populated.
    ASSERT_TRUE(wire.roundTripOk("server-stats seq=8", resp));
    EXPECT_EQ(resp.server.dropped, 1u);
    EXPECT_GE(resp.server.faultsInjected, 1u);
    EXPECT_GE(resp.server.hists.size(), 5u);
    bool sawVerbLatency = false;
    for (const HistogramSnapshot &h : resp.server.hists)
        if (h.name == "dise_verb_latency_us") {
            sawVerbLatency = true;
            EXPECT_GT(h.count, 0u);
            uint64_t total = 0;
            for (uint64_t b : h.buckets)
                total += b;
            EXPECT_EQ(total, h.count);
        }
    EXPECT_TRUE(sawVerbLatency);
    srv.stop();

    // The open-time scan is what quarantines the corrupt image (the
    // mid-run load failure above reported but did not classify): a
    // second server on the same store counts it in sv.quarantined.
    DebugServer srv2(opts);
    ASSERT_TRUE(srv2.start());
    WireClient wire2;
    ASSERT_TRUE(wire2.connectTo(srv2.port()));
    ASSERT_TRUE(wire2.roundTripOk("server-stats seq=1", resp));
    EXPECT_GE(resp.server.quarantined, 1u);
    EXPECT_EQ(resp.server.hibernated, 0u); // the corrupt image is out
    srv2.stop();
}

TEST(DebugServerTcp, TraceVerbsAndMetricsExposition)
{
    DebugServerOptions opts;
    opts.maxSessions = 2;
    opts.session = smallSessions();
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    WireClient wire;
    ASSERT_TRUE(wire.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(wire.roundTripOk("trace-start seq=1 count=64", resp));
    // Dumping mid-flight is refused: the rings are being written.
    ASSERT_TRUE(wire.roundTrip("trace-dump seq=2", resp));
    EXPECT_EQ(resp.status, ResponseStatus::Error);
    EXPECT_NE(resp.error.find("armed"), std::string::npos)
        << resp.error;

    ASSERT_TRUE(wire.roundTripOk("session-create seq=3 name=demo",
                                 resp));
    ASSERT_TRUE(wire.roundTripOk("stepi seq=4 count=2000", resp));
    // A session-dispatched verb (exec verbs go straight to the
    // scheduler) so the dump carries session-layer spans too.
    ASSERT_TRUE(wire.roundTripOk("stats seq=90", resp));
    ASSERT_TRUE(wire.roundTripOk("trace-stop seq=5", resp));
    EXPECT_GT(resp.value, 0u); // records captured

    // Tiny chunks force several round trips; the reassembly must be
    // byte-exact against the advertised total.
    std::string dump;
    uint64_t total = 0;
    unsigned chunks = 0;
    do {
        char line[96];
        std::snprintf(line, sizeof line,
                      "trace-dump seq=%u count=2048 value=%llu",
                      6 + chunks,
                      static_cast<unsigned long long>(dump.size()));
        ASSERT_TRUE(wire.roundTripOk(line, resp));
        total = resp.value;
        if (resp.text.empty())
            break;
        dump += resp.text;
        ++chunks;
    } while (dump.size() < total);
    EXPECT_EQ(dump.size(), total);
    EXPECT_GE(chunks, 2u);
    EXPECT_NE(dump.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(dump.find("\"cat\":\"sched\""), std::string::npos);
    EXPECT_NE(dump.find("\"cat\":\"session\""), std::string::npos);
    EXPECT_NE(dump.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(dump.find("\"ph\":\"E\""), std::string::npos);

    // The Prometheus surface, over the same connection.
    ASSERT_TRUE(wire.roundTripOk("metrics seq=100", resp));
    EXPECT_NE(resp.text.find("# TYPE dise_verb_latency_us histogram"),
              std::string::npos);
    EXPECT_NE(resp.text.find("dise_verb_latency_us_bucket{le=\"+Inf\"}"),
              std::string::npos);
    EXPECT_NE(resp.text.find("# TYPE dise_sched_queue_wait_us histogram"),
              std::string::npos);
    EXPECT_NE(resp.text.find("dise_slice_duration_us_count"),
              std::string::npos);
    srv.stop();
}

} // namespace
} // namespace dise
