#include "rsp/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "common/logging.hh"
#include "common/socket.hh"

namespace dise::rsp {

namespace {

/** Largest m/M transfer accepted; qSupported's PacketSize=4000 (hex,
 *  16384 bytes) promises at least this much. */
constexpr uint64_t MaxTransfer = 16384;

/** Natural (big-endian) hex rendering of an address, no leading
 *  zeros — the form gdb uses inside stop replies. */
std::string
hexAddr(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
splitOnce(const std::string &s, char sep, std::string &a, std::string &b)
{
    size_t pos = s.find(sep);
    if (pos == std::string::npos)
        return false;
    a = s.substr(0, pos);
    b = s.substr(pos + 1);
    return true;
}

} // namespace

RspConnection::RspConnection(DebugSession &session, ExecFn exec,
                             bool verbose)
    : session_(session), execFn_(std::move(exec)), verbose_(verbose),
      async_(std::make_shared<AsyncState>())
{
}

bool
RspConnection::AsyncState::notify(const std::string &payload)
{
    // Caller holds mu.
    if (!open)
        return false;
    return sendAll(fd, notifyFrame(payload));
}

// ------------------------------------------------------------ protocol

bool
RspConnection::exec(RequestKind kind, uint64_t count, StopInfo &out,
                    std::string *err)
{
    if (execFn_)
        return execFn_(kind, count, out, err);
    switch (kind) {
      case RequestKind::Cont:
        out = session_.cont();
        return true;
      case RequestKind::Stepi:
        out = session_.stepi(count);
        return true;
      case RequestKind::ReverseContinue:
        out = session_.reverseContinue();
        return true;
      case RequestKind::ReverseStep:
        out = session_.reverseStep(count);
        return true;
      default:
        if (err)
            *err = "not an execution verb";
        return false;
    }
}

std::string
RspConnection::buildStopReply(DebugSession &session,
                              const StopInfo &stop, bool interrupted)
{
    std::string pcInfo =
        "20:" + hexLe(stop.pc, 8) + ";"; // register 0x20 is the PC
    if (interrupted)
        return "T02" + pcInfo; // SIGINT: the job was cancelled

    switch (stop.reason) {
      case StopReason::Event:
        switch (stop.mark.kind) {
          case EventKind::Watch: {
            // Report the trapped data address, as gdb expects.
            Addr dataAddr = stop.mark.pc;
            const auto &ws = session.debugger().backend().watchEvents();
            if (stop.mark.index >= 0 &&
                static_cast<size_t>(stop.mark.index) < ws.size())
                dataAddr = ws[stop.mark.index].addr;
            return "T05" + pcInfo + "watch:" + hexAddr(dataAddr) + ";";
          }
          case EventKind::Break:
            return "T05" + pcInfo + "hwbreak:;";
          case EventKind::Protection:
            return "T0b" + pcInfo;
        }
        return "T05" + pcInfo;
      case StopReason::Start:
        return "T05" + pcInfo + "replaylog:begin;";
      case StopReason::Step:
      case StopReason::InstLimit:
        return "T05" + pcInfo;
      case StopReason::Halted:
        return "W00";
      case StopReason::Fault:
        return "X0b";
    }
    return "S05";
}

std::string
RspConnection::stopReply(const StopInfo &stop)
{
    haveStop_ = true;
    lastStop_ = stop;
    return buildStopReply(session_, stop, false);
}

const std::string &
RspConnection::targetXml()
{
    // A self-consistent description of the session register file: 32
    // 64-bit integer registers plus the PC at regnum 32 — exactly the
    // layout `g`/`G`/`p`/`P` serve — so gdb stops falling back to
    // guessed register layouts.
    static const std::string xml = [] {
        std::string s = "<?xml version=\"1.0\"?>\n"
                        "<!DOCTYPE target SYSTEM \"gdb-target.dtd\">\n"
                        "<target version=\"1.0\">\n"
                        "  <feature name=\"org.dise.sim.core\">\n";
        for (unsigned i = 0; i < NumIntRegs; ++i) {
            s += "    <reg name=\"r" + std::to_string(i) +
                 "\" bitsize=\"64\" type=\"int64\" regnum=\"" +
                 std::to_string(i) + "\"/>\n";
        }
        s += "    <reg name=\"pc\" bitsize=\"64\" type=\"code_ptr\" "
             "regnum=\"" +
             std::to_string(DebugSession::PcRegIndex) + "\"/>\n";
        s += "  </feature>\n</target>\n";
        return s;
    }();
    return xml;
}

std::string
RspConnection::handleQuery(const std::string &p)
{
    if (p.rfind("qSupported", 0) == 0)
        return std::string("PacketSize=4000;ReverseContinue+;"
                           "ReverseStep+;hwbreak+;swbreak+;"
                           "qXfer:features:read+;vContSupported+;"
                           "QNonStop") +
               (asyncExecFn_ ? "+" : "-");
    if (p.rfind("qXfer:features:read:", 0) == 0) {
        // qXfer:features:read:<annex>:<offset>,<length>
        std::string rest = p.substr(std::string("qXfer:features:read:")
                                        .size());
        std::string annex, range, offStr, lenStr;
        if (!splitOnce(rest, ':', annex, range) ||
            !splitOnce(range, ',', offStr, lenStr))
            return "E01";
        uint64_t off = 0, len = 0;
        if (annex != "target.xml" || !parseHexNum(offStr, off) ||
            !parseHexNum(lenStr, len) || len == 0 ||
            len > MaxTransfer)
            return "E01";
        const std::string &doc = targetXml();
        if (off >= doc.size())
            return "l";
        std::string chunk = doc.substr(off, len);
        bool last = off + chunk.size() >= doc.size();
        return (last ? "l" : "m") + chunk;
    }
    if (p == "qC")
        return "QC0";
    if (p == "qAttached")
        return "1";
    if (p == "qfThreadInfo")
        return "m0";
    if (p == "qsThreadInfo")
        return "l";
    if (p.rfind("qSymbol", 0) == 0)
        return "OK";
    if (p == "qTStatus")
        return "";
    if (p.rfind("qRcmd,", 0) == 0) {
        // `monitor <cmd>` passthrough, the on-ramp to the debug tools
        // from a stock gdb: the hex payload is a typed-wire command
        // line, the hex reply its encoded response. Only the tool
        // verbs pass — execution stays under gdb's own packets.
        std::vector<uint8_t> bytes;
        if (!fromHex(p.substr(6), bytes))
            return "E01";
        std::string cmd(bytes.begin(), bytes.end());
        std::string out;
        if (cmd.rfind("tool-", 0) == 0)
            out = session_.handleEncoded(cmd) + "\n";
        else
            out = "unsupported monitor command (try tool-list, "
                  "tool-enable name=<t>, tool-report name=<t>)\n";
        return toHex(std::vector<uint8_t>(out.begin(), out.end()));
    }
    return ""; // unsupported query
}

/**
 * Start a non-stop execution verb: the packet gets its "OK"
 * immediately, the work runs as a preemptible scheduler job, and the
 * final stop arrives as a `%Stop` notification built and sent by the
 * completion callback — which deliberately captures only the shared
 * AsyncState (and the session, whose lifetime the server guarantees
 * across the callback), never the connection object.
 */
std::string
RspConnection::execAsync(RequestKind kind, uint64_t count)
{
    std::shared_ptr<AsyncState> st = async_;
    DebugSession &session = session_;
    std::unique_lock<std::mutex> lk(st->mu);
    if (st->running)
        return "E05"; // one in-flight verb per connection
    st->running = true;
    st->havePending = false;
    // The hook is called with the mutex dropped: a stopping scheduler
    // may run the completion callback synchronously on this very
    // thread, and the callback takes st->mu.
    lk.unlock();
    std::function<void()> cancel = asyncExecFn_(
        kind, count,
        [st, &session](bool ok, bool interrupted, const StopInfo &stop,
                       const std::string &err) {
            // Even a failed job must produce a notification — gdb is
            // waiting for one. X0b (terminated) is the honest story
            // for a wedged/destroyed target; if the connection is
            // already gone, notify() is a no-op anyway.
            std::string payload =
                ok ? buildStopReply(session, stop, interrupted)
                   : std::string("X0b");
            std::lock_guard<std::mutex> cb(st->mu);
            st->running = false;
            st->cancel = nullptr;
            st->pendingReply = payload;
            st->havePending = true;
            st->notify("Stop:" + payload);
        });
    lk.lock();
    if (!cancel) {
        st->running = false;
        return "E04";
    }
    // A fast job may have completed (and cleared running) already; a
    // canceller stored then would target a finished ticket, where
    // cancel() is a harmless no-op — but don't resurrect the slot.
    if (st->running)
        st->cancel = std::move(cancel);
    return "OK";
}

std::string
RspConnection::handleVPacket(const std::string &p)
{
    if (p.rfind("vMustReplyEmpty", 0) == 0)
        return "";
    if (p == "vCont?")
        return "vCont;c;C;s;S";
    if (p == "vStopped") {
        std::lock_guard<std::mutex> lk(async_->mu);
        // Single-target stub: one stop per notification sequence.
        async_->havePending = false;
        return "OK";
    }
    if (p.rfind("vCont", 0) == 0) {
        // vCont;action[:thread][;...] — single-threaded target: the
        // first (leftmost) action wins.
        if (p.size() < 7 || p[5] != ';')
            return "E01";
        char action = p[6];
        RequestKind kind;
        uint64_t count = 0;
        if (action == 'c' || action == 'C') {
            kind = RequestKind::Cont;
        } else if (action == 's' || action == 'S') {
            kind = RequestKind::Stepi;
            count = 1;
        } else {
            return "E01"; // t/r: not supported by this stub
        }
        if (nonStop_ && asyncExecFn_)
            return execAsync(kind, count);
        StopInfo stop;
        std::string err;
        if (!exec(kind, count, stop, &err)) {
            wantClose_ = true;
            return "E04";
        }
        return stopReply(stop);
    }
    return ""; // unknown v-packets get the empty reply
}

std::string
RspConnection::handleInsert(const std::string &p, bool insert)
{
    // Ztype,addr,kind — type 0/1: breakpoints, 2/4: write/access
    // watchpoints, 3: read watchpoints (not implementable here).
    std::string head, rest, addrStr, kindStr;
    if (!splitOnce(p.substr(1), ',', head, rest))
        return "E01";
    if (!splitOnce(rest, ',', addrStr, kindStr)) {
        addrStr = rest; // kind omitted: default to a quadword
        kindStr = "8";
    }
    // Strip a conditional suffix (";...") some clients append.
    size_t semi = kindStr.find(';');
    if (semi != std::string::npos)
        kindStr = kindStr.substr(0, semi);

    uint64_t type = 0, addr = 0, kind = 0;
    if (!parseHexNum(head, type) || !parseHexNum(addrStr, addr) ||
        !parseHexNum(kindStr, kind))
        return "E01";
    if (type == 3)
        return ""; // read watchpoints unsupported: gdb falls back

    std::string key = std::to_string(type > 1) + ":" + addrStr + ":" +
                      kindStr;
    if (type == 2 || type == 4) {
        if (insert) {
            WatchSpec w = WatchSpec::scalar(
                "rsp@" + addrStr, addr,
                static_cast<unsigned>(kind ? kind : 8));
            int idx = session_.setWatch(w);
            if (idx < 0)
                return "E02";
            zWatches_[key] = idx;
            return "OK";
        }
        auto it = zWatches_.find(key);
        if (it == zWatches_.end())
            return "E03";
        return session_.removeWatch(it->second) ? "OK" : "E03";
    }
    if (type == 0 || type == 1) {
        if (insert) {
            BreakSpec b;
            b.pc = addr;
            b.name = "rsp@" + addrStr;
            int idx = session_.setBreak(b);
            if (idx < 0)
                return "E02";
            zBreaks_[key] = idx;
            return "OK";
        }
        auto it = zBreaks_.find(key);
        if (it == zBreaks_.end())
            return "E03";
        return session_.removeBreak(it->second) ? "OK" : "E03";
    }
    return "";
}

std::string
RspConnection::handleReadMem(const std::string &p)
{
    std::string addrStr, lenStr;
    if (!splitOnce(p.substr(1), ',', addrStr, lenStr))
        return "E01";
    uint64_t addr = 0, len = 0;
    if (!parseHexNum(addrStr, addr) || !parseHexNum(lenStr, len) ||
        len > MaxTransfer)
        return "E01";
    return toHex(session_.readMemory(addr, len));
}

std::string
RspConnection::handleWriteMem(const std::string &p)
{
    std::string head, hex, addrStr, lenStr;
    if (!splitOnce(p.substr(1), ':', head, hex) ||
        !splitOnce(head, ',', addrStr, lenStr))
        return "E01";
    uint64_t addr = 0, len = 0;
    std::vector<uint8_t> bytes;
    if (!parseHexNum(addrStr, addr) || !parseHexNum(lenStr, len) ||
        !fromHex(hex, bytes) || bytes.size() != len || len > MaxTransfer)
        return "E01";
    // The session pokes in ≤8-byte units (each a loggable intervention).
    size_t off = 0;
    while (off < bytes.size()) {
        unsigned n = static_cast<unsigned>(
            std::min<size_t>(8, bytes.size() - off));
        uint64_t v = 0;
        for (unsigned i = 0; i < n; ++i)
            v |= static_cast<uint64_t>(bytes[off + i]) << (8 * i);
        if (!session_.writeMemory(addr + off, n, v))
            return "E02";
        off += n;
    }
    return "OK";
}

std::string
RspConnection::handleReadRegs()
{
    std::string out;
    for (uint64_t v : session_.readRegisters())
        out += hexLe(v, 8);
    return out;
}

std::string
RspConnection::handleWriteRegs(const std::string &p)
{
    std::string hex = p.substr(1);
    if (hex.size() != DebugSession::NumSessionRegs * 16)
        return "E01";
    // gdb writes back the whole file it just read, so only changed
    // values become pokes — the common unmodified writeback neither
    // floods the intervention log nor trips the unpokable cases (the
    // zero register, the PC mid-travel). A changed value the session
    // rejects is a real failure and must not be reported as OK.
    std::vector<uint64_t> current = session_.readRegisters();
    for (unsigned i = 0; i < DebugSession::NumSessionRegs; ++i) {
        uint64_t v = 0;
        if (!parseHexLe(hex.substr(i * 16, 16), v))
            return "E01";
        if (v == current[i])
            continue;
        if (!session_.writeRegister(i, v))
            return "E02";
    }
    return "OK";
}

std::string
RspConnection::handlePacket(const std::string &p)
{
    ++packetsHandled_;
    if (p.empty())
        return "";

    auto execReply = [&](RequestKind kind, uint64_t count) {
        if (nonStop_ && asyncExecFn_)
            return execAsync(kind, count);
        StopInfo stop;
        std::string err;
        if (!exec(kind, count, stop, &err)) {
            if (verbose_)
                std::fprintf(stderr, "rsp: exec failed: %s\n",
                             err.c_str());
            wantClose_ = true;
            return std::string("E04"); // session gone: hang up
        }
        return stopReply(stop);
    };

    // While a non-stop job is in flight the session belongs to the
    // scheduler worker driving it: resume packets are refused until
    // the %Stop lands (queries, stop polls, and detach stay available
    // — that is what keeps the connection responsive). Slice-atomic
    // packets DO pass: read peeks (`g`/`p`/`m`), monitor tool verbs,
    // and write-class packets (`G`/`M`/`P` pokes, `Z`/`z` break- and
    // watchpoint edits) all take the peek lock, which parks them at
    // the job's next slice boundary — so gdb can watch registers live
    // AND plant a breakpoint or patch memory while the target runs,
    // exactly like stock gdbserver's non-stop mode. They take it when
    // no job runs too: it is then uncontended, except by the server's
    // stats roll-up, which must not read a session mid-edit.
    bool busy = false;
    if (nonStop_) {
        std::lock_guard<std::mutex> lk(async_->mu);
        busy = async_->running;
    }
    bool needsPeekLock = false;
    switch (p[0]) {
      case 'g':
      case 'p':
      case 'm':
      case 'G':
      case 'M':
      case 'P':
      case 'X':
      case 'Z':
      case 'z':
        needsPeekLock = true;
        break;
      case 'q':
        needsPeekLock = p.rfind("qRcmd,", 0) == 0;
        break;
      case 'Q':
      case 'v':
      case '?':
      case 'H':
      case 'D':
      case 'k':
        break;
      default:
        if (busy)
            return "E05";
    }
    std::unique_lock<std::mutex> peek; // held across the dispatch below
    if (needsPeekLock && peekLockFn_)
        peek = peekLockFn_();

    try {
        switch (p[0]) {
          case 'q':
            return handleQuery(p);
          case 'Q':
            if (p == "QNonStop:1") {
                if (!asyncExecFn_)
                    return "E01";
                nonStop_ = true;
                return "OK";
            }
            if (p == "QNonStop:0") {
                nonStop_ = false;
                return "OK";
            }
            return "";
          case 'v':
            return handleVPacket(p);
          case 'H':
            return "OK";
          case '?':
            if (nonStop_) {
                std::lock_guard<std::mutex> lk(async_->mu);
                if (async_->havePending)
                    return async_->pendingReply;
                return "OK"; // nothing stopped (or still running)
            }
            return haveStop_ ? stopReply(lastStop_) : "S05";
          case 'g':
            return handleReadRegs();
          case 'G':
            return handleWriteRegs(p);
          case 'p': {
            uint64_t reg = 0;
            if (!parseHexNum(p.substr(1), reg) ||
                reg >= DebugSession::NumSessionRegs)
                return "E01";
            return hexLe(
                session_.readRegister(static_cast<unsigned>(reg)), 8);
          }
          case 'P': {
            std::string regStr, valStr;
            if (!splitOnce(p.substr(1), '=', regStr, valStr))
                return "E01";
            uint64_t reg = 0, val = 0;
            if (!parseHexNum(regStr, reg) || !parseHexLe(valStr, val))
                return "E01";
            return session_.writeRegister(static_cast<unsigned>(reg),
                                          val)
                       ? "OK"
                       : "E02";
          }
          case 'm':
            return handleReadMem(p);
          case 'M':
            return handleWriteMem(p);
          case 'Z':
            return handleInsert(p, true);
          case 'z':
            return handleInsert(p, false);
          case 'c':
            return execReply(RequestKind::Cont, 0);
          case 's':
            return execReply(RequestKind::Stepi, 1);
          case 'b':
            if (p == "bc")
                return execReply(RequestKind::ReverseContinue, 0);
            if (p == "bs")
                return execReply(RequestKind::ReverseStep, 1);
            return "";
          case 'D':
            wantClose_ = true;
            return "OK";
          case 'k':
            wantClose_ = true;
            return "";
          default:
            return ""; // unknown packets get the empty reply
        }
    } catch (const std::exception &e) {
        // Wire input must never take the server down.
        if (verbose_)
            std::fprintf(stderr, "rsp: '%s' failed: %s\n", p.c_str(),
                         e.what());
        return "E00";
    }
}

// ----------------------------------------------------------- transport

void
RspConnection::serve(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    {
        std::lock_guard<std::mutex> lk(async_->mu);
        async_->fd = fd;
        async_->open = true;
    }

    PacketDecoder dec;
    std::string lastFrame;
    wantClose_ = false;
    char buf[4096];
    while (!wantClose_) {
        ssize_t n = ::read(fd, buf, sizeof buf);
        if (n <= 0)
            break;
        dec.feed(buf, static_cast<size_t>(n));

        ItemKind kind;
        std::string payload;
        while (dec.next(kind, payload)) {
            if (kind == ItemKind::Ack)
                continue;
            if (kind == ItemKind::Nak) {
                // Same mutex as replies/notifications: a retransmit
                // must not interleave mid-frame with a %Stop.
                std::lock_guard<std::mutex> lk(async_->mu);
                if (!lastFrame.empty())
                    sendAll(fd, lastFrame);
                continue;
            }
            if (kind == ItemKind::Break) {
                // All-stop execution is synchronous (nothing to
                // stop); a non-stop job is interrupted at its next
                // slice boundary and lands as %Stop:T02.
                std::function<void()> cancel;
                {
                    std::lock_guard<std::mutex> lk(async_->mu);
                    cancel = async_->cancel;
                }
                if (cancel)
                    cancel();
                continue;
            }
            if (verbose_)
                std::fprintf(stderr, "rsp <- %s\n", payload.c_str());
            std::string reply = handlePacket(payload);
            if (verbose_)
                std::fprintf(stderr, "rsp -> %s\n", reply.c_str());
            bool wasKill = !payload.empty() && payload[0] == 'k';
            lastFrame = frame(reply);
            bool sent;
            {
                // Replies and %Stop notifications must not interleave
                // mid-frame: both go out under the async-state mutex.
                std::lock_guard<std::mutex> lk(async_->mu);
                sent = sendAll(fd, "+") &&
                       (wasKill || sendAll(fd, lastFrame));
            }
            if (!sent)
                wantClose_ = true;
            if (wantClose_)
                break;
        }
    }

    // Close the notification channel before the fd dies; a completion
    // callback landing later finds open == false and drops its send.
    // Taking the mutex also drains any notify() already in flight.
    {
        std::lock_guard<std::mutex> lk(async_->mu);
        async_->open = false;
        async_->fd = -1;
    }
}

RspServer::RspServer(DebugSession &session, RspServerOptions opts)
    : conn_(session, {}, opts.verbose), opts_(opts)
{
}

RspServer::~RspServer()
{
    stop();
}

bool
RspServer::start()
{
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
        ::listen(listenFd_, 1) < 0) {
        stop();
        return false;
    }
    socklen_t len = sizeof addr;
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) == 0)
        port_ = ntohs(addr.sin_port);
    return true;
}

void
RspServer::stop()
{
    if (listenFd_ >= 0) {
        ::shutdown(listenFd_, SHUT_RDWR);
        ::close(listenFd_);
        listenFd_ = -1;
    }
}

void
RspServer::serveOne()
{
    DISE_ASSERT(listenFd_ >= 0, "start() the server before serving");
    int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0)
        return; // stop() closed the listener
    conn_.serve(fd);
    ::close(fd);
}

} // namespace dise::rsp
