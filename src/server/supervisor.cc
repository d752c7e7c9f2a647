#include "server/supervisor.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>

#include "common/socket.hh"
#include "obs/metrics.hh"
#include "persist/vfs.hh"

namespace dise::server {

namespace {

int
connectLoopback(uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Mean of the scheduler queue-wait family in a stats snapshot. */
uint64_t
queueWaitMeanUs(const ServerStats &s)
{
    for (const HistogramSnapshot &h : s.hists)
        if (h.name == "dise_sched_queue_wait_us")
            return static_cast<uint64_t>(obs::histogramMean(h));
    return 0;
}

/** Line channel shared by the proxy thread and leg event handlers. */
struct ProxyOut
{
    int fd = -1;
    std::mutex mu;

    bool
    sendLine(const std::string &line)
    {
        std::lock_guard<std::mutex> lk(mu);
        return sendAll(fd, line + "\n");
    }
};

} // namespace

ShardSupervisor::ShardSupervisor(ShardSupervisorOptions opts)
    : opts_(std::move(opts))
{
    if (!opts_.shards)
        opts_.shards = 1;
}

ShardSupervisor::~ShardSupervisor()
{
    stop();
}

bool
ShardSupervisor::start(std::string *err)
{
    auto fail = [&](const std::string &why) {
        if (err)
            *err = why;
        else
            std::fprintf(stderr, "supervisor: %s\n", why.c_str());
        stop();
        return false;
    };

    // A fleet of N opens slices shard-0 .. shard-(N-1) only. A slice
    // past that holding session images was written by a wider fleet;
    // its sessions would be stranded without a word, so refuse it.
    if (!opts_.worker.storeDir.empty()) {
        persist::RealVfs vfs;
        std::vector<std::string> slices;
        vfs.list(opts_.worker.storeDir, slices);
        for (const std::string &name : slices) {
            unsigned k = 0;
            const char *end = name.data() + name.size();
            if (!name.starts_with("shard-") ||
                std::from_chars(name.data() + 6, end, k).ptr != end ||
                k < opts_.shards)
                continue;
            std::vector<std::string> files;
            vfs.list(opts_.worker.storeDir + "/" + name, files);
            for (const std::string &f : files)
                if (f.ends_with(".img"))
                    return fail("store " + opts_.worker.storeDir +
                                " was written by a fleet of another "
                                "size: slice " + name +
                                " holds sessions, which a " +
                                std::to_string(opts_.shards) +
                                "-shard fleet cannot reach");
        }
    }

    // Fork the fleet before the listener: by the time a client can
    // connect, every shard answers (and has recovered its store).
    specs_.resize(opts_.shards);
    for (unsigned k = 0; k < opts_.shards; ++k) {
        ShardProcessSpec &spec = specs_[k];
        spec.index = k;
        spec.total = opts_.shards;
        spec.server = opts_.worker;
        spec.factory = opts_.factory;
        if (!spec.server.storeDir.empty())
            spec.server.storeDir =
                opts_.worker.storeDir + "/shard-" + std::to_string(k);
        shards_.push_back(std::make_unique<Shard>());
        std::string serr;
        if (!spawnShardProcess(spec, shards_.back()->proc, &serr))
            return fail(serr);
        shards_.back()->alive.store(true);
        if (opts_.verbose)
            std::fprintf(stderr,
                         "supervisor: shard %u pid %d port %u\n", k,
                         static_cast<int>(shards_.back()->proc.pid),
                         shards_.back()->proc.port);
    }

    // Routing is by residue, so every recovered id must sit on the
    // shard its residue names. A store written by a fleet of another
    // size breaks that; refuse it rather than strand its sessions.
    if (!opts_.worker.storeDir.empty()) {
        Request list;
        list.kind = RequestKind::SessionList;
        for (unsigned k = 0; k < shards_.size(); ++k) {
            Response resp;
            std::string lerr;
            if (!ctlCall(k, list, resp, &lerr) || !resp.ok())
                return fail(lerr.empty() ? resp.error : lerr);
            for (uint64_t id : resp.regs)
                if (shardOf(id) != k)
                    return fail(
                        "store " + opts_.worker.storeDir +
                        " was written by a fleet of another size: "
                        "shard " + std::to_string(k) +
                        " recovered session " + std::to_string(id) +
                        ", which routes to shard " +
                        std::to_string(shardOf(id)) + " of " +
                        std::to_string(shards_.size()));
        }
    }

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return fail(std::string("socket: ") + std::strerror(errno));
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(opts_.port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) < 0 ||
        ::listen(listenFd_, 16) < 0)
        return fail("cannot listen on 127.0.0.1:" +
                    std::to_string(opts_.port) + ": " +
                    std::strerror(errno));
    socklen_t len = sizeof addr;
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) == 0)
        port_ = ntohs(addr.sin_port);

    acceptThread_ =
        std::thread([this, fd = listenFd_] { acceptLoop(fd); });
    monitorThread_ = std::thread([this] { monitorLoop(); });
    return true;
}

void
ShardSupervisor::stop()
{
    if (stopping_.exchange(true)) {
        // Idempotent, but a second caller must still not return while
        // the first is mid-teardown; the joins below are the barrier.
        return;
    }
    if (listenFd_ >= 0) {
        ::shutdown(listenFd_, SHUT_RDWR);
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
    // Monitor goes before reaping: it also waitpids.
    if (monitorThread_.joinable())
        monitorThread_.join();
    {
        std::lock_guard<std::mutex> lk(connMu_);
        for (Conn &c : conns_)
            if (c.fd >= 0)
                ::shutdown(c.fd, SHUT_RDWR);
    }
    for (Conn &c : conns_)
        if (c.th.joinable())
            c.th.join();
    conns_.clear();
    for (auto &sh : shards_) {
        {
            std::lock_guard<std::mutex> lk(sh->ctlMu);
            sh->ctl.reset();
        }
        shutdownShardProcess(sh->proc);
        sh->alive.store(false);
    }
    shards_.clear();
}

pid_t
ShardSupervisor::shardPid(unsigned k) const
{
    return k < shards_.size() ? shards_[k]->proc.pid : -1;
}

uint16_t
ShardSupervisor::shardPort(unsigned k) const
{
    return k < shards_.size() ? shards_[k]->proc.port : 0;
}

uint64_t
ShardSupervisor::shardRestarts(unsigned k) const
{
    return k < shards_.size()
               ? shards_[k]->restarts.load(std::memory_order_relaxed)
               : 0;
}

bool
ShardSupervisor::killShard(unsigned k)
{
    if (k >= shards_.size() || shards_[k]->proc.pid < 0)
        return false;
    return ::kill(shards_[k]->proc.pid, SIGKILL) == 0;
}

bool
ShardSupervisor::waitForRespawn(unsigned k, unsigned timeoutMs)
{
    if (k >= shards_.size())
        return false;
    for (unsigned waited = 0; waited < timeoutMs; waited += 50) {
        if (shards_[k]->alive.load()) {
            // Probe with a server-level verb: `ping` is session
            // dispatch and errors until a session is selected.
            Request probe;
            probe.kind = RequestKind::ServerStats;
            Response resp;
            if (ctlCall(k, probe, resp) && resp.ok())
                return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
}

// ------------------------------------------------------------- control

bool
ShardSupervisor::ctlCall(unsigned k, const Request &req, Response &resp,
                         std::string *err)
{
    if (k >= shards_.size()) {
        if (err)
            *err = "no such shard";
        return false;
    }
    Shard &sh = *shards_[k];
    std::lock_guard<std::mutex> lk(sh.ctlMu);
    for (int attempt = 0; attempt < 2; ++attempt) {
        if (!sh.ctl || !sh.ctl->connected()) {
            auto c = std::make_unique<WireClient>();
            std::string cerr;
            if (!c->connectTo(sh.proc.port, &cerr)) {
                if (err)
                    *err = "shard " + std::to_string(k) +
                           " unreachable: " + cerr;
                continue; // the monitor may have respawned it
            }
            sh.ctl = std::move(c);
        }
        std::string cerr;
        if (sh.ctl->call(req, resp, &cerr))
            return true;
        sh.ctl.reset();
        if (err)
            *err = "shard " + std::to_string(k) + ": " + cerr;
    }
    return false;
}

unsigned
ShardSupervisor::leastLoadedShard()
{
    unsigned best = 0;
    uint64_t bestLoad = ~0ull;
    bool any = false;
    Request req;
    req.kind = RequestKind::ServerStats;
    for (unsigned k = 0; k < shards_.size(); ++k) {
        if (!shards_[k]->alive.load())
            continue;
        Response resp;
        if (!ctlCall(k, req, resp) || !resp.ok())
            continue;
        uint64_t load =
            resp.server.activeSessions + resp.server.hibernated;
        if (!any || load < bestLoad) {
            any = true;
            best = k;
            bestLoad = load;
        }
    }
    if (!any)
        // Last resort: round-robin over the fleet.
        best = static_cast<unsigned>(
                   connectionsServed_.load(std::memory_order_relaxed)) %
               static_cast<unsigned>(std::max<size_t>(1, shards_.size()));
    return best;
}

// --------------------------------------------------------------- stats

std::vector<ShardStatsRow>
ShardSupervisor::shardStats()
{
    std::vector<ShardStatsRow> rows;
    Request req;
    req.kind = RequestKind::ServerStats;
    for (unsigned k = 0; k < shards_.size(); ++k) {
        ShardStatsRow row;
        row.index = k;
        row.pid = shards_[k]->proc.pid > 0
                      ? static_cast<uint64_t>(shards_[k]->proc.pid)
                      : 0;
        row.restarts = shards_[k]->restarts.load();
        Response resp;
        if (ctlCall(k, req, resp) && resp.ok()) {
            row.sessions = resp.server.activeSessions;
            row.hibernated = resp.server.hibernated;
            row.jobs = resp.server.jobs;
            row.totalUops = resp.server.totalUops;
            row.appInsts = resp.server.totalAppInsts;
            row.queueWaitMeanUs = queueWaitMeanUs(resp.server);
        }
        rows.push_back(row);
    }
    return rows;
}

ServerStats
ShardSupervisor::fleetStats()
{
    ServerStats fleet;
    Request req;
    req.kind = RequestKind::ServerStats;
    for (unsigned k = 0; k < shards_.size(); ++k) {
        Response resp;
        if (!ctlCall(k, req, resp) || !resp.ok())
            continue;
        const ServerStats &s = resp.server;
        fleet.activeSessions += s.activeSessions;
        fleet.peakSessions += s.peakSessions;
        fleet.created += s.created;
        fleet.destroyed += s.destroyed;
        fleet.rejected += s.rejected;
        fleet.maxSessions += s.maxSessions;
        fleet.workers += s.workers;
        fleet.slices += s.slices;
        fleet.jobs += s.jobs;
        fleet.totalUops += s.totalUops;
        fleet.totalAppInsts += s.totalAppInsts;
        fleet.totalEvents += s.totalEvents;
        fleet.jitUops += s.jitUops;
        fleet.jitSideExits += s.jitSideExits;
        fleet.eventsPushed += s.eventsPushed;
        fleet.eventsDropped += s.eventsDropped;
        fleet.subscribers += s.subscribers;
        fleet.dropped += s.dropped;
        fleet.hibernated += s.hibernated;
        fleet.evictions += s.evictions;
        fleet.resurrections += s.resurrections;
        fleet.quarantined += s.quarantined;
        fleet.faultsInjected += s.faultsInjected;
        obs::mergeHistogramSnapshots(fleet.hists, s.hists);
        for (const tools::ToolStatsRow &row : s.tools) {
            tools::ToolStatsRow *agg = nullptr;
            for (tools::ToolStatsRow &t : fleet.tools)
                if (t.name == row.name)
                    agg = &t;
            if (!agg) {
                fleet.tools.push_back(row);
            } else {
                agg->uopsSeen += row.uopsSeen;
                agg->checks += row.checks;
                agg->suppressed += row.suppressed;
                agg->findings += row.findings;
            }
        }
    }
    return fleet;
}

// ------------------------------------------------------------- routing

void
ShardSupervisor::acceptLoop(int listenFd)
{
    for (;;) {
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load())
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            continue;
        }
        if (stopping_.load()) {
            ::close(fd);
            return;
        }
        connectionsServed_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lk(connMu_);
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
                std::lock_guard<std::mutex> done(connMu_);
                self->fd = -1;
                ::close(fd);
            }
            self->done.store(true, std::memory_order_release);
        });
    }
}

void
ShardSupervisor::serveConnection(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    char first = 0;
    ssize_t n = ::recv(fd, &first, 1, MSG_PEEK);
    if (n <= 0)
        return;
    if (first == '+' || first == '-' || first == '$' || first == '\x03')
        serveRspProxy(fd, first);
    else
        serveWireProxy(fd);
}

void
ShardSupervisor::serveRspProxy(int fd, char)
{
    // gdb's one-target model: place the connection once, then pump
    // bytes blindly. The shard does all the RSP work.
    unsigned k = leastLoadedShard();
    int up = connectLoopback(shardPort(k));
    if (up < 0)
        return;
    char buf[4096];
    pollfd fds[2];
    fds[0] = {fd, POLLIN, 0};
    fds[1] = {up, POLLIN, 0};
    for (;;) {
        fds[0].revents = fds[1].revents = 0;
        if (::poll(fds, 2, 500) < 0)
            break;
        if (stopping_.load())
            break;
        bool dead = false;
        for (int i = 0; i < 2; ++i) {
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            ssize_t got = ::read(fds[i].fd, buf, sizeof buf);
            if (got <= 0) {
                dead = true;
                break;
            }
            if (!sendAll(i == 0 ? up : fd, buf,
                         static_cast<size_t>(got))) {
                dead = true;
                break;
            }
        }
        if (dead)
            break;
    }
    ::close(up);
}

void
ShardSupervisor::serveWireProxy(int fd)
{
    auto out = std::make_shared<ProxyOut>();
    out->fd = fd;

    // One downstream leg per shard this client touches; pushed events
    // from any leg forward straight to the client.
    std::map<unsigned, std::unique_ptr<WireClient>> legs;
    int cur = -1; // shard holding this connection's selection

    auto leg = [&](unsigned k) -> WireClient * {
        auto it = legs.find(k);
        if (it != legs.end() && it->second->connected())
            return it->second.get();
        legs.erase(k);
        auto c = std::make_unique<WireClient>();
        c->setEventHandler(
            [out](const std::string &line) { out->sendLine(line); });
        if (!c->connectTo(shardPort(k)))
            return nullptr;
        WireClient *raw = c.get();
        legs[k] = std::move(c);
        return raw;
    };
    // A verb just selected a session on shard k. When the selection
    // moved off another shard, deselect there so the session the old
    // leg held counts idle again. A failed select changes nothing,
    // exactly as on one server.
    auto selected = [&](unsigned k) {
        if (cur >= 0 && cur != static_cast<int>(k)) {
            auto it = legs.find(static_cast<unsigned>(cur));
            if (it != legs.end() && it->second->connected()) {
                Request d;
                d.kind = RequestKind::SessionSelect;
                d.session = 0;
                Response resp;
                it->second->call(d, resp);
            }
        }
        cur = static_cast<int>(k);
    };
    auto sendResp = [&](const Response &resp) {
        return out->sendLine(encodeResponse(resp));
    };
    auto sendErr = [&](const Request &req, const std::string &msg) {
        Response resp;
        resp.seq = req.seq;
        resp.inReplyTo = req.kind;
        resp.status = ResponseStatus::Error;
        resp.error = msg;
        return sendResp(resp);
    };
    // Forward the client's raw line to shard k; relay the raw reply.
    // Returns the decoded reply through *decoded when asked.
    auto forward = [&](const Request &req, unsigned k,
                       const std::string &line,
                       Response *decoded = nullptr) -> bool {
        WireClient *c = leg(k);
        std::string reply, ferr;
        if (!c || !c->roundTripRaw(line, reply, &ferr)) {
            legs.erase(k);
            return sendErr(req, "shard " + std::to_string(k) +
                                    " unavailable" +
                                    (ferr.empty() ? "" : ": " + ferr));
        }
        if (decoded)
            decodeResponse(reply, *decoded);
        return out->sendLine(reply);
    };

    std::string buf;
    char chunk[4096];
    bool dead = false;
    while (!dead) {
        ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n <= 0)
            break;
        buf.append(chunk, static_cast<size_t>(n));
        if (buf.size() > (8u << 20))
            break;
        size_t nl;
        while (!dead && (nl = buf.find('\n')) != std::string::npos) {
            std::string line = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.empty())
                continue;
            if (opts_.verbose)
                std::fprintf(stderr, "supervisor <- %s\n",
                             line.c_str());

            Request req;
            std::string derr;
            if (!decodeRequest(line, req, &derr)) {
                // Let a shard produce the canonical decode error.
                unsigned k =
                    cur >= 0 ? static_cast<unsigned>(cur) : 0u;
                dead = !forward(req, k, line);
                continue;
            }

            switch (req.kind) {
              case RequestKind::SessionCreate: {
                unsigned k =
                    (req.shard >= 0 &&
                     static_cast<size_t>(req.shard) < shards_.size())
                        ? static_cast<unsigned>(req.shard)
                        : leastLoadedShard();
                Response resp;
                dead = !forward(req, k, line, &resp);
                if (resp.ok())
                    selected(k);
                break;
              }
              case RequestKind::SessionSelect: {
                if (!req.session) {
                    if (cur >= 0)
                        dead = !forward(
                            req, static_cast<unsigned>(cur), line);
                    else {
                        Response resp;
                        resp.seq = req.seq;
                        resp.inReplyTo = req.kind;
                        dead = !sendResp(resp);
                    }
                    break;
                }
                unsigned k = shardOf(req.session);
                Response resp;
                dead = !forward(req, k, line, &resp);
                if (resp.ok())
                    selected(k);
                break;
              }
              case RequestKind::SessionDestroy:
              case RequestKind::SessionHibernate:
              case RequestKind::SessionPersist:
              case RequestKind::ToolEnable:
              case RequestKind::ToolDisable:
              case RequestKind::ToolList:
              case RequestKind::ToolReport: {
                // Session-addressed (or selection-relative when
                // session=0 — then the current leg already holds it).
                if (!req.session) {
                    if (cur < 0) {
                        dead = !sendErr(req, "no session selected");
                        break;
                    }
                    dead =
                        !forward(req, static_cast<unsigned>(cur), line);
                    break;
                }
                unsigned k = shardOf(req.session);
                bool selects = req.kind == RequestKind::ToolEnable ||
                               req.kind == RequestKind::ToolDisable ||
                               req.kind == RequestKind::ToolList ||
                               req.kind == RequestKind::ToolReport;
                Response resp;
                dead = !forward(req, k, line, &resp);
                if (resp.ok() && selects)
                    selected(k);
                break;
              }
              case RequestKind::SessionList: {
                Request list;
                list.kind = RequestKind::SessionList;
                Response merged;
                merged.seq = req.seq;
                merged.inReplyTo = req.kind;
                for (unsigned k = 0; k < shards_.size(); ++k) {
                    Response resp;
                    if (!ctlCall(k, list, resp) || !resp.ok())
                        continue;
                    merged.regs.insert(merged.regs.end(),
                                       resp.regs.begin(), resp.regs.end());
                }
                std::sort(merged.regs.begin(), merged.regs.end());
                dead = !sendResp(merged);
                break;
              }
              case RequestKind::ServerStats: {
                Response resp;
                resp.seq = req.seq;
                resp.inReplyTo = req.kind;
                resp.server = fleetStats();
                dead = !sendResp(resp);
                break;
              }
              case RequestKind::ShardStats: {
                Response resp;
                resp.seq = req.seq;
                resp.inReplyTo = req.kind;
                resp.shards = shardStats();
                dead = !sendResp(resp);
                break;
              }
              default: {
                // Selection-relative traffic (exec verbs, peeks,
                // subscribe, trace, metrics, ...) rides the current
                // leg; with no selection yet, shard 0 answers — and
                // produces the canonical "no session selected".
                unsigned k =
                    cur >= 0 ? static_cast<unsigned>(cur) : 0u;
                dead = !forward(req, k, line);
                break;
              }
            }
        }
    }
    // Leg destructors hang up on the shards, which drops their
    // selections and subscriptions exactly like a direct disconnect.
}

// -------------------------------------------------------------- respawn

void
ShardSupervisor::monitorLoop()
{
    while (!stopping_.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        for (unsigned k = 0; k < shards_.size(); ++k) {
            Shard &sh = *shards_[k];
            if (sh.proc.pid < 0)
                continue;
            int status = 0;
            pid_t r = ::waitpid(sh.proc.pid, &status, WNOHANG);
            if (r != sh.proc.pid)
                continue;
            // The worker died. Its lifeline fd is now useless.
            sh.alive.store(false);
            if (sh.proc.lifeline >= 0) {
                ::close(sh.proc.lifeline);
                sh.proc.lifeline = -1;
            }
            sh.proc.pid = -1;
            {
                std::lock_guard<std::mutex> lk(sh.ctlMu);
                sh.ctl.reset();
            }
            if (stopping_.load() || !opts_.respawn)
                continue;
            if (opts_.verbose)
                std::fprintf(stderr,
                             "supervisor: shard %u died (status "
                             "0x%x); respawning\n",
                             k, status);
            std::string err;
            ShardProcess fresh;
            if (!spawnShardProcess(specs_[k], fresh, &err)) {
                std::fprintf(stderr,
                             "supervisor: shard %u respawn failed: "
                             "%s\n",
                             k, err.c_str());
                continue;
            }
            sh.proc = fresh;
            sh.restarts.fetch_add(1, std::memory_order_relaxed);
            sh.alive.store(true);
            // The replacement recovered the same store slice, so the
            // shard's ids resolve to hibernated sessions ready to
            // resurrect.
        }
    }
}

} // namespace dise::server
