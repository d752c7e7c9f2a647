#include "server/shard.hh"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace dise::server {

namespace {

/** Child side: run a DebugServer until the lifeline pipe hits EOF.
 *  Never returns — exits via _exit so no parent-process atexit
 *  handlers (test frameworks, coverage dumpers) run twice. */
[[noreturn]] void
runShardChild(const ShardProcessSpec &spec, int handshakeWr,
              int lifelineRd)
{
    ::signal(SIGPIPE, SIG_IGN);

    // Keep stdio and our two pipe ends; drop every other descriptor the
    // fork copied. Among them are the write ends of sibling shards'
    // lifelines, and a sibling holding one open would hide the EOF
    // that tells that shard to stop.
    int keep[2] = {std::min(handshakeWr, lifelineRd),
                   std::max(handshakeWr, lifelineRd)};
    unsigned from = 3;
    for (int fd : keep) {
        if (static_cast<unsigned>(fd) > from)
            ::close_range(from, static_cast<unsigned>(fd) - 1, 0);
        from = static_cast<unsigned>(fd) + 1;
    }
    ::close_range(from, ~0u, 0);

    DebugServerOptions opts = spec.server;
    opts.port = 0; // always ephemeral; the supervisor owns the public port
    opts.idStart = spec.index + 1;
    opts.idStride = spec.total ? spec.total : 1;

    DebugServer server(opts, spec.factory);
    char line[16];
    if (!server.start()) {
        int n = std::snprintf(line, sizeof line, "0\n");
        (void)!::write(handshakeWr, line, static_cast<size_t>(n));
        ::_exit(1);
    }
    int n = std::snprintf(line, sizeof line, "%u\n",
                          static_cast<unsigned>(server.port()));
    if (::write(handshakeWr, line, static_cast<size_t>(n)) != n)
        ::_exit(1);
    ::close(handshakeWr);

    // Park until the supervisor hangs up (or dies — same EOF).
    char c;
    while (::read(lifelineRd, &c, 1) > 0) {
    }
    server.stop();
    ::_exit(0);
}

} // namespace

bool
spawnShardProcess(const ShardProcessSpec &spec, ShardProcess &out,
                  std::string *err)
{
    int handshake[2] = {-1, -1};
    int lifeline[2] = {-1, -1};
    if (::pipe(handshake) != 0) {
        if (err)
            *err = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    if (::pipe(lifeline) != 0) {
        if (err)
            *err = std::string("pipe: ") + std::strerror(errno);
        ::close(handshake[0]);
        ::close(handshake[1]);
        return false;
    }

    pid_t pid = ::fork();
    if (pid < 0) {
        if (err)
            *err = std::string("fork: ") + std::strerror(errno);
        ::close(handshake[0]);
        ::close(handshake[1]);
        ::close(lifeline[0]);
        ::close(lifeline[1]);
        return false;
    }
    if (pid == 0) {
        ::close(handshake[0]);
        ::close(lifeline[1]);
        runShardChild(spec, handshake[1], lifeline[0]);
    }

    ::close(handshake[1]);
    ::close(lifeline[0]);

    // Read the port handshake (one line). The child writes it right
    // after bind, so a blocking read is fine; EOF means it died.
    std::string text;
    char c;
    while (text.size() < 15 && ::read(handshake[0], &c, 1) == 1) {
        if (c == '\n')
            break;
        text.push_back(c);
    }
    ::close(handshake[0]);
    unsigned long port = text.empty() ? 0 : std::strtoul(text.c_str(),
                                                         nullptr, 10);
    if (!port || port > 65535) {
        ::close(lifeline[1]);
        int status = 0;
        ::waitpid(pid, &status, 0);
        if (err)
            *err = "shard " + std::to_string(spec.index) +
                   " failed to start";
        return false;
    }

    out.pid = pid;
    out.port = static_cast<uint16_t>(port);
    out.lifeline = lifeline[1];
    return true;
}

void
shutdownShardProcess(ShardProcess &p, unsigned graceMs)
{
    if (p.pid < 0)
        return;
    if (p.lifeline >= 0) {
        ::close(p.lifeline);
        p.lifeline = -1;
    }
    int status = 0;
    for (unsigned waited = 0; waited < graceMs; waited += 20) {
        pid_t r = ::waitpid(p.pid, &status, WNOHANG);
        if (r == p.pid || (r < 0 && errno == ECHILD)) {
            p.pid = -1;
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ::kill(p.pid, SIGKILL);
    ::waitpid(p.pid, &status, 0);
    p.pid = -1;
}

} // namespace dise::server
