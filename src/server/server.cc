#include "server/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "common/socket.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "rsp/server.hh"

namespace dise::server {

/** Per-connection outbound line channel. Responses (connection
 *  thread) and pushed events (scheduler workers) both go through
 *  sendLine(), so lines never interleave mid-write. A send that fails
 *  — hangup, or the SO_SNDTIMEO bound on a subscriber that stopped
 *  reading — reports false and the caller drops the path. */
struct DebugServer::WireOut
{
    int fd = -1;

    bool
    sendLine(const std::string &line)
    {
        std::lock_guard<std::mutex> lk(mu);
        return sendAll(fd, line + "\n");
    }

    /** Best-effort single-attempt send for farewell lines: the peer is
     *  known wedged, so this must neither block on its full socket
     *  buffer nor wait for a writer already stuck in sendLine(). */
    void
    sendLineNoWait(const std::string &line)
    {
        std::unique_lock<std::mutex> lk(mu, std::try_to_lock);
        if (!lk.owns_lock())
            return;
        std::string data = line + "\n";
        (void)::send(fd, data.data(), data.size(),
                     MSG_DONTWAIT | MSG_NOSIGNAL);
    }

  private:
    std::mutex mu;
};

class DebugServer::WireSink : public EventSink
{
  public:
    explicit WireSink(std::shared_ptr<WireOut> out)
        : out_(std::move(out))
    {
    }

    bool
    deliver(const SessionEvent &ev) override
    {
        return out_->sendLine(encodeEvent(ev));
    }

    void
    farewell(const SessionEvent &ev) override
    {
        // One non-blocking attempt: if the peer ever drains its socket
        // again it learns why the stream ended instead of seeing a
        // silent stop.
        out_->sendLineNoWait(encodeEvent(ev));
    }

  private:
    std::shared_ptr<WireOut> out_;
};

struct DebugServer::WireConn
{
    ManagedSessionPtr sel;
    std::shared_ptr<WireOut> out;
    /** Live subscriptions, unregistered when the connection dies. */
    std::vector<std::pair<ManagedSessionPtr, std::shared_ptr<EventSink>>>
        subs;
};

DebugServer::DebugServer(DebugServerOptions opts,
                         SessionManager::ProgramFactory factory)
    : opts_(opts),
      manager_({opts.maxSessions, opts.session, opts.idStart,
                opts.idStride},
               std::move(factory)),
      sched_({opts.slots, opts.sliceInsts, opts.faults})
{
}

DebugServer::~DebugServer()
{
    stop();
}

// ------------------------------------------------------------ lifecycle

bool
DebugServer::start()
{
    // Crash recovery precedes the listener: by the time a client can
    // connect, every valid image from the previous run is re-admitted
    // (as a hibernated session, resurrected on first use) and every
    // corrupt artifact is quarantined with a typed record.
    if (!opts_.storeDir.empty() && !store_) {
        persist::Vfs *vfs = &realVfs_;
        if (opts_.faults) {
            faultyVfs_ = std::make_unique<persist::FaultyVfs>(
                realVfs_, *opts_.faults);
            vfs = faultyVfs_.get();
        }
        store_ =
            std::make_unique<persist::SessionStore>(opts_.storeDir, *vfs);
        persist::StoreResult res = store_->open();
        if (!res.ok) {
            std::fprintf(stderr, "server: store %s unusable: %s: %s\n",
                         opts_.storeDir.c_str(),
                         persist::storeErrName(res.err),
                         res.detail.c_str());
            store_.reset();
            return false;
        }
        if (opts_.verbose) {
            for (const persist::QuarantineRecord &q :
                 store_->quarantined())
                std::fprintf(stderr,
                             "server: quarantined %s: %s: %s\n",
                             q.file.c_str(),
                             persist::storeErrName(q.err),
                             q.detail.c_str());
            std::fprintf(
                stderr, "server: store %s: %zu session(s) recovered\n",
                opts_.storeDir.c_str(), store_->entries().size());
        }
        manager_.adoptStore(store_.get());
    }

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return false;
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(opts_.port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) < 0 ||
        ::listen(listenFd_, 16) < 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    socklen_t len = sizeof addr;
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) == 0)
        port_ = ntohs(addr.sin_port);

    // The loop gets its own copy of the fd: stop() clears listenFd_
    // from the owner thread, and sharing the member would race.
    acceptThread_ =
        std::thread([this, fd = listenFd_] { acceptLoop(fd); });
    return true;
}

void
DebugServer::wait()
{
    if (acceptThread_.joinable())
        acceptThread_.join();
}

void
DebugServer::stop()
{
    if (stopping_.exchange(true))
        return;
    if (listenFd_ >= 0) {
        ::shutdown(listenFd_, SHUT_RDWR);
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
    {
        std::lock_guard<std::mutex> lk(connMu_);
        for (Conn &c : conns_)
            if (c.fd >= 0)
                ::shutdown(c.fd, SHUT_RDWR);
    }
    // Fail any queued/in-flight jobs so connection threads blocked in
    // a synchronous drive() wake up and observe their dead sockets.
    sched_.stop();
    // No new entries can appear (the accept loop is gone); joining
    // outside the lock lets each connection finish its epilogue.
    for (Conn &c : conns_)
        if (c.th.joinable())
            c.th.join();
    conns_.clear();
}

void
DebugServer::acceptLoop(int listenFd)
{
    for (;;) {
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load())
                return;
            // Persistent failures (EMFILE under fd pressure) must not
            // busy-spin a core; back off briefly and retry.
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            continue;
        }
        if (stopping_.load()) {
            ::close(fd);
            return;
        }
        connectionsServed_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lk(connMu_);
        // Reap finished connections so a long-lived daemon does not
        // accumulate one dead (joinable) thread per client. A done
        // entry's thread has already left its epilogue's critical
        // section, so joining under connMu_ cannot deadlock.
        for (auto it = conns_.begin(); it != conns_.end();) {
            if (it->done.load(std::memory_order_acquire)) {
                it->th.join();
                it = conns_.erase(it);
            } else {
                ++it;
            }
        }
        conns_.emplace_back();
        auto self = std::prev(conns_.end());
        self->fd = fd;
        self->th = std::thread([this, fd, self] {
            serveConnection(fd);
            {
                // Retire the fd entry and close in one critical
                // section: closing first would let the OS recycle
                // the number while stop() still sees it and
                // shutdown()s an unrelated descriptor.
                std::lock_guard<std::mutex> done(connMu_);
                self->fd = -1;
                ::close(fd);
            }
            self->done.store(true, std::memory_order_release);
        });
    }
}

// ---------------------------------------------------------- connections

void
DebugServer::serveConnection(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    // Protocol sniff: RSP clients open with an ack, a packet, or an
    // interrupt; the typed wire protocol opens with a verb letter.
    char first = 0;
    ssize_t n = ::recv(fd, &first, 1, MSG_PEEK);
    if (n <= 0)
        return;
    if (first == '+' || first == '-' || first == '$' || first == '\x03')
        serveRsp(fd);
    else
        serveWire(fd);
}

void
DebugServer::serveRsp(int fd)
{
    // gdb's one-target model: this connection gets its own session,
    // admission-capped like any other.
    std::string err;
    ManagedSessionPtr ms =
        manager_.create(opts_.defaultWorkload, opts_.defaultBackend,
                        /*exclusive=*/true, &err);
    if (!ms) {
        if (opts_.verbose)
            std::fprintf(stderr, "server: RSP client rejected: %s\n",
                         err.c_str());
        return; // hang up: gdb reports the dropped connection
    }
    if (opts_.verbose)
        std::fprintf(stderr, "server: RSP client -> session %llu\n",
                     static_cast<unsigned long long>(ms->id));

    // Exclusive sessions are single-client by construction, so only
    // the resume verbs need scheduling. The synchronous hook serves
    // all-stop gdb; the async hook powers non-stop mode (`vCont` OK'd
    // immediately, `%Stop` notification when the job lands) and lets
    // a Ctrl-C interrupt the job between slices.
    auto exec = [this, ms](RequestKind kind, uint64_t count,
                           StopInfo &out, std::string *e) {
        return sched_.drive(*ms, kind, count, out, e);
    };
    auto asyncExec = [this, ms](RequestKind kind, uint64_t count,
                                rsp::RspConnection::AsyncDoneFn done)
        -> std::function<void()> {
        std::string err;
        JobScheduler::TicketPtr t = sched_.driveAsync(
            ms, kind, count,
            [done = std::move(done)](bool ok, bool interrupted,
                                     const StopInfo &stop,
                                     const std::string &e) {
                done(ok, interrupted, stop, e);
            },
            &err);
        if (!t)
            return {};
        return [this, t] { sched_.cancel(t); };
    };
    rsp::RspConnection conn(ms->session, exec, opts_.verbose);
    conn.setAsyncExec(asyncExec);
    conn.setPeekLock([ms] {
        return std::unique_lock<std::mutex>(ms->sliceMu);
    });
    conn.serve(fd);
    manager_.destroy(ms->id);
}

/**
 * A post-attach watch/break change can trigger a rebuild-replay —
 * O(timeline) work — so it runs as a preemptible job: the first slice
 * plans and commits the new machinery, subsequent slices advance the
 * replay by bounded quanta, round-robining with every other session's
 * jobs.
 */
Response
DebugServer::driveSpecJob(ManagedSession &s, const Request &req)
{
    Response resp;
    resp.seq = req.seq;
    resp.inReplyTo = req.kind;
    bool isWatch = req.kind == RequestKind::SetWatch;
    auto idx = std::make_shared<int>(-1);
    auto begun = std::make_shared<bool>(false);
    std::string err;
    bool ok = sched_.run(
        [&s, isWatch, watch = req.watch, brk = req.brk, idx,
         begun](uint64_t slice) {
            if (s.closing.load(std::memory_order_acquire))
                throw std::runtime_error("session destroyed");
            if (!*begun) {
                *begun = true;
                bool done = false;
                *idx = isWatch ? s.session.setWatchBegin(watch, done)
                               : s.session.setBreakBegin(brk, done);
                return *idx < 0 || done;
            }
            return s.session.rebuildStep(slice);
        },
        &err);
    if (!ok) {
        resp.status = ResponseStatus::Error;
        resp.error = err;
        return resp;
    }
    s.jobs.fetch_add(1, std::memory_order_relaxed);
    s.publishProgress();
    s.pushEvents();
    if (*idx < 0) {
        resp.status = ResponseStatus::Unsupported;
        // The session records exactly why it refused (which journal
        // entry blocks the rebuild, or which capability is missing).
        resp.error = !s.session.lastRefusal().empty()
                         ? s.session.lastRefusal()
                         : "the backend cannot implement the enlarged "
                           "set, or the target advanced through a "
                           "non-replayable batch run";
        return resp;
    }
    resp.index = *idx;
    return resp;
}

/**
 * Interval-parallel replay as sibling jobs: one preemptible job per
 * scheduler worker (at most one per range), each driving its lane of
 * the shared fixed-cut pool — claim, prepare, step, complete — until
 * no range is left, then stitched deterministically by digest. A lane
 * holds one replica at a time, so at most that many cloned images are
 * alive at once.
 */
Response
DebugServer::driveReplayVerify(ManagedSession &s, const Request &req)
{
    Response resp;
    resp.seq = req.seq;
    resp.inReplyTo = req.kind;
    auto errorOut = [&](const std::string &msg) {
        resp.status = ResponseStatus::Error;
        resp.error = msg;
        return resp;
    };

    std::unique_ptr<IntervalReplay> ir;
    try {
        ir = s.session.beginIntervalReplay();
    } catch (const std::exception &e) {
        return errorOut(e.what());
    }
    if (!ir)
        return errorOut("no replayable timeline (attach and run "
                        "first, and batch runs cannot be "
                        "reconstructed)");

    std::shared_ptr<IntervalReplay::Pool> pool = ir->makePool();
    size_t n = std::max<size_t>(
        1, std::min<size_t>(sched_.workers(), ir->intervalCount()));
    using Lane = std::unique_ptr<IntervalReplay::Worker>;
    std::vector<JobScheduler::TicketPtr> tickets;
    for (size_t i = 0; i < n; ++i) {
        auto lane = std::make_shared<Lane>();
        tickets.push_back(sched_.submit([lane, pool, &s](uint64_t slice) {
            if (s.closing.load(std::memory_order_acquire))
                throw std::runtime_error("session destroyed");
            // The scheduler's grain is app-instructions; replay
            // slices meter µops (≈4 per instrumented instruction).
            return pool->drive(*lane, slice * 4);
        }));
    }
    bool ok = true;
    std::string err;
    for (const JobScheduler::TicketPtr &t : tickets) {
        std::string e;
        if (!sched_.wait(t, &e)) {
            ok = false;
            if (err.empty())
                err = e;
        }
    }
    s.jobs.fetch_add(tickets.size(), std::memory_order_relaxed);
    if (!ok)
        return errorOut(err);
    IntervalReplay::Report rep = ir->finish(*pool);
    if (!rep.ok)
        return errorOut(rep.error.empty()
                            ? "replay verification failed"
                            : rep.error);
    resp.value = rep.finalDigest;
    for (const IntervalReplay::Interval &iv : rep.intervals)
        resp.regs.push_back(iv.endDigest);
    return resp;
}

Response
DebugServer::handleWire(const Request &req, WireConn &conn)
{
    ManagedSessionPtr &sel = conn.sel;
    Response resp;
    resp.seq = req.seq;
    resp.inReplyTo = req.kind;
    auto errorOut = [&](const std::string &msg) {
        resp.status = ResponseStatus::Error;
        resp.error = msg;
        return resp;
    };

    switch (req.kind) {
      case RequestKind::SessionCreate: {
        std::string err;
        ManagedSessionPtr ms = manager_.create(
            req.name, req.backend, /*exclusive=*/false, &err);
        if (!ms)
            return errorOut(err);
        sel = ms; // creating selects
        manager_.touch(*ms);
        resp.value = ms->id;
        return resp;
      }
      case RequestKind::SessionSelect: {
        // session=0 deselects: the connection drops its reference so
        // the session counts idle again (hibernate needs this, and the
        // shard supervisor sends it when a client's selection moves to
        // another shard, without hanging up either connection).
        if (!req.session) {
            sel.reset();
            return resp;
        }
        // find() transparently resurrects a hibernated id; a typed
        // resurrection/quarantine error surfaces to the client.
        std::string err;
        ManagedSessionPtr ms =
            manager_.find(req.session, /*forSelect=*/true, &err);
        if (!ms)
            return errorOut("session " + std::to_string(req.session) +
                            ": " + err);
        sel = ms;
        manager_.touch(*ms);
        resp.value = ms->id;
        return resp;
      }
      case RequestKind::SessionDestroy:
        if (sel && sel->id == req.session)
            sel.reset();
        if (!manager_.destroy(req.session))
            return errorOut("no such session " +
                            std::to_string(req.session));
        return resp;
      case RequestKind::SessionList:
        resp.regs = manager_.ids();
        return resp;
      case RequestKind::ServerStats:
        resp.server = stats();
        return resp;
      case RequestKind::Subscribe: {
        if (!sel)
            return errorOut("no session selected");
        for (const auto &sub : conn.subs)
            if (sub.first == sel)
                return resp; // idempotent
        auto sink = std::make_shared<WireSink>(conn.out);
        sel->addSink(sink);
        conn.subs.emplace_back(sel, sink);
        // Flush the backlog so the subscriber starts from a known
        // point; everything later arrives at slice/verb boundaries.
        {
            std::lock_guard<std::mutex> lk(sel->mu);
            sel->pushEvents();
        }
        return resp;
      }
      case RequestKind::Unsubscribe: {
        if (!sel)
            return errorOut("no session selected");
        for (auto it = conn.subs.begin(); it != conn.subs.end();) {
            if (it->first == sel) {
                it->first->removeSink(it->second);
                it = conn.subs.erase(it);
            } else {
                ++it;
            }
        }
        return resp;
      }
      case RequestKind::SessionHibernate: {
        uint64_t id = req.session ? req.session : (sel ? sel->id : 0);
        if (!id)
            return errorOut("no session selected");
        // Our own selection reference would count the session busy;
        // hibernating it implies deselecting it.
        bool wasSelected = sel && sel->id == id;
        if (wasSelected)
            sel.reset();
        std::string err;
        if (!manager_.hibernate(id, &err)) {
            if (wasSelected)
                sel = manager_.find(id); // restore the selection
            return errorOut(err);
        }
        resp.value = id;
        return resp;
      }
      case RequestKind::SessionPersist: {
        uint64_t id = req.session ? req.session : (sel ? sel->id : 0);
        if (!id)
            return errorOut("no session selected");
        std::string err;
        uint64_t digest = 0;
        if (!manager_.persist(id, &err, &digest))
            return errorOut(err);
        resp.value = digest;
        return resp;
      }
      case RequestKind::ShardStats:
        return errorOut(
            "this server is not sharded (shard verbs are handled by "
            "the shard supervisor)");
      case RequestKind::StoreStats: {
        if (!store_)
            return errorOut(
                "the server has no session store (--store-dir)");
        persist::StoreCounters c = store_->counters();
        resp.store.images = c.images;
        resp.store.bytes = c.bytes;
        resp.store.puts = c.puts;
        resp.store.loads = c.loads;
        resp.store.erases = c.erases;
        resp.store.quarantined = c.quarantined;
        resp.store.orphansRemoved = c.orphansRemoved;
        return resp;
      }
      case RequestKind::TraceStart: {
        // count = ring KiB per recording thread (0/1 = default).
        uint64_t kb = req.count > 1 ? req.count : 0;
        obs::Tracer::instance().arm(static_cast<size_t>(kb) * 1024);
        return resp;
      }
      case RequestKind::TraceStop:
        obs::Tracer::instance().disarm();
        resp.value = obs::Tracer::instance().recordCount();
        return resp;
      case RequestKind::TraceDump: {
        obs::Tracer &tr = obs::Tracer::instance();
        if (tr.armed())
            return errorOut("tracer is armed (trace-stop first)");
        std::lock_guard<std::mutex> lk(traceMu_);
        if (traceJsonGen_ != tr.generation()) {
            traceJson_ = tr.dumpJson();
            traceJsonGen_ = tr.generation();
        }
        // Chunked: value= is the byte offset, count= the max chunk
        // (clamped to keep any one wire line bounded); the response
        // carries the chunk in text and the total size in value.
        constexpr uint64_t kMaxChunk = 256 * 1024;
        uint64_t chunk = req.count ? std::min(req.count, kMaxChunk)
                                   : 48 * 1024;
        resp.value = traceJson_.size();
        if (req.value < traceJson_.size())
            resp.text = traceJson_.substr(
                static_cast<size_t>(req.value),
                static_cast<size_t>(chunk));
        return resp;
      }
      case RequestKind::Metrics:
        resp.text = obs::renderPrometheus(obs::metrics().snapshotAll());
        return resp;
      default:
        break;
    }

    // Tool verbs may address a session explicitly (session=); the id
    // resolves through the same path as session-select, so a
    // tool-enable aimed at a hibernated session transparently
    // resurrects it.
    if (req.session &&
        (req.kind == RequestKind::ToolEnable ||
         req.kind == RequestKind::ToolDisable ||
         req.kind == RequestKind::ToolList ||
         req.kind == RequestKind::ToolReport)) {
        std::string err;
        ManagedSessionPtr ms =
            manager_.find(req.session, /*forSelect=*/true, &err);
        if (!ms)
            return errorOut("session " + std::to_string(req.session) +
                            ": " + err);
        sel = ms;
    }

    if (!sel)
        return errorOut(
            "no session selected (session-create or session-select "
            "first)");
    if (sel->closing.load(std::memory_order_acquire)) {
        sel.reset();
        return errorOut("session destroyed");
    }
    manager_.touch(*sel); // LRU stamp: this session is in active use

    Response out;
    bool dropSelection = false;
    {
        std::lock_guard<std::mutex> lk(sel->mu);
        if (JobScheduler::isExecVerb(req.kind)) {
            // Mirror DebugSession::dispatch's capability gate so
            // remote clients still see "unsupported" for
            // no-experiment cells.
            if (!sel->session.attached() && !sel->session.attach()) {
                resp.status = ResponseStatus::Unsupported;
                resp.error = std::string("the ") +
                             backendName(sel->session.backendKind()) +
                             " backend cannot implement the requested "
                             "watchpoints";
                return resp;
            }
            StopInfo stop;
            std::string err;
            if (!sched_.drive(*sel, req.kind, req.count, stop, &err))
                return errorOut(err);
            resp.hasStop = true;
            resp.stop = stop;
            return resp;
        }
        if ((req.kind == RequestKind::SetWatch ||
             req.kind == RequestKind::SetBreak) &&
            sel->session.attached())
            return driveSpecJob(*sel, req);
        if (req.kind == RequestKind::ReplayVerify)
            return driveReplayVerify(*sel, req);
        out = sel->session.handle(req);
        if (req.kind == RequestKind::Detach) {
            // Wire detach ends the hosted session entirely. Do NOT
            // publish after handle(): the detached session reports
            // zero stats, and destroy() folds the *published*
            // counters into the retired totals ("all sessions ever").
            manager_.destroy(sel->id);
            dropSelection = true;
        } else {
            sel->publishProgress();
            sel->pushEvents();
        }
    }
    // The selection may hold the last reference; it must not die
    // while the lock_guard above still references sel->mu.
    if (dropSelection)
        sel.reset();
    return out;
}

void
DebugServer::serveWire(int fd)
{
    // A subscriber that stops reading must not wedge the pushing job
    // forever: TCP flow control is the backpressure (the job stalls at
    // a slice boundary while the socket buffer is full), and the send
    // timeout is the escape hatch that drops the dead subscription.
    timeval tv{};
    tv.tv_sec = 30;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);

    WireConn conn;
    conn.out = std::make_shared<WireOut>();
    conn.out->fd = fd;

    std::string buf;
    char chunk[4096];
    for (;;) {
        ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n <= 0)
            break;
        buf.append(chunk, static_cast<size_t>(n));
        // A hostile peer must not grow the buffer without bound. No
        // request verb carries bulk data; the cap only bounds how much
        // one unterminated line can buffer.
        if (buf.size() > (8u << 20))
            break;
        size_t nl;
        bool dead = false;
        while ((nl = buf.find('\n')) != std::string::npos) {
            std::string line = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.empty())
                continue;
            if (opts_.verbose)
                std::fprintf(stderr, "wire <- %s\n", line.c_str());

            uint64_t t0 = obs::nowNs();
            Request req;
            std::string err;
            Response resp;
            if (!decodeRequest(line, req, &err)) {
                resp.status = ResponseStatus::Error;
                resp.error = "decode: " + err;
                size_t pos = line.find("seq=");
                if (pos != std::string::npos)
                    resp.seq = std::strtoull(line.c_str() + pos + 4,
                                             nullptr, 0);
            } else {
                TRACE_SPAN("server", "server.verb");
                resp = handleWire(req, conn);
            }
            std::string out = encodeResponse(resp);
            if (opts_.verbose)
                std::fprintf(stderr, "wire -> %s\n", out.c_str());
            bool sent = conn.out->sendLine(out);
            obs::metrics().verbLatencyUs.observe(obs::usSince(t0));
            if (!sent) {
                dead = true;
                break;
            }
        }
        if (dead)
            break;
    }
    // Unregister the connection's sinks before the channel dies; a
    // worker mid-deliver holds its own shared_ptr to the channel, so
    // the write path stays valid (and merely fails) during teardown.
    for (const auto &sub : conn.subs)
        sub.first->removeSink(sub.second);
}

ServerStats
DebugServer::stats() const
{
    ServerStats s = manager_.stats();
    s.slices = sched_.slicesRun();
    s.workers = sched_.workers();
    if (opts_.faults)
        s.faultsInjected = opts_.faults->injected();
    s.hists = obs::metrics().snapshotAll();
    return s;
}

} // namespace dise::server
