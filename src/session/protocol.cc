#include "session/protocol.hh"

#include <cstdlib>
#include <map>
#include <ostream>
#include <sstream>

#include "common/hex.hh"

namespace dise {

namespace {

// ------------------------------------------------------------- tokens

struct KindToken
{
    RequestKind kind;
    const char *name;
};

constexpr KindToken kRequestTokens[] = {
    {RequestKind::Ping, "ping"},
    {RequestKind::SelectBackend, "select-backend"},
    {RequestKind::SetWatch, "set-watch"},
    {RequestKind::SetBreak, "set-break"},
    {RequestKind::RemoveWatch, "remove-watch"},
    {RequestKind::RemoveBreak, "remove-break"},
    {RequestKind::Attach, "attach"},
    {RequestKind::Cont, "cont"},
    {RequestKind::Stepi, "stepi"},
    {RequestKind::RunToEnd, "run-to-end"},
    {RequestKind::ReverseContinue, "reverse-continue"},
    {RequestKind::ReverseStep, "reverse-step"},
    {RequestKind::RunToEvent, "run-to-event"},
    {RequestKind::ReadRegisters, "read-registers"},
    {RequestKind::WriteRegister, "write-register"},
    {RequestKind::ReadMemory, "read-memory"},
    {RequestKind::WriteMemory, "write-memory"},
    {RequestKind::Stats, "stats"},
    {RequestKind::Detach, "detach"},
    {RequestKind::ReplayVerify, "replay-verify"},
    {RequestKind::SessionCreate, "session-create"},
    {RequestKind::SessionSelect, "session-select"},
    {RequestKind::SessionDestroy, "session-destroy"},
    {RequestKind::SessionList, "session-list"},
    {RequestKind::ServerStats, "server-stats"},
    {RequestKind::Subscribe, "subscribe"},
    {RequestKind::Unsubscribe, "unsubscribe"},
    {RequestKind::SessionHibernate, "session-hibernate"},
    {RequestKind::SessionPersist, "session-persist"},
    {RequestKind::StoreStats, "store-stats"},
    {RequestKind::TraceStart, "trace-start"},
    {RequestKind::TraceStop, "trace-stop"},
    {RequestKind::TraceDump, "trace-dump"},
    {RequestKind::Metrics, "metrics"},
    {RequestKind::ToolEnable, "tool-enable"},
    {RequestKind::ToolDisable, "tool-disable"},
    {RequestKind::ToolList, "tool-list"},
    {RequestKind::ToolReport, "tool-report"},
    {RequestKind::ShardStats, "shard-stats"},
};

struct BackendToken
{
    BackendKind kind;
    const char *name;
};

constexpr BackendToken kBackendTokens[] = {
    {BackendKind::Dise, "dise"},
    {BackendKind::SingleStep, "single-step"},
    {BackendKind::VirtualMemory, "vm"},
    {BackendKind::HardwareReg, "hwreg"},
    {BackendKind::Rewrite, "rewrite"},
};

const char *
watchKindToken(WatchKind kind)
{
    switch (kind) {
      case WatchKind::Scalar: return "scalar";
      case WatchKind::Indirect: return "indirect";
      case WatchKind::Range: return "range";
    }
    return "?";
}

bool
parseWatchKind(const std::string &tok, WatchKind &kind)
{
    for (WatchKind k : {WatchKind::Scalar, WatchKind::Indirect,
                        WatchKind::Range}) {
        if (tok == watchKindToken(k)) {
            kind = k;
            return true;
        }
    }
    return false;
}

const char *
stopReasonToken(StopReason reason)
{
    switch (reason) {
      case StopReason::Start: return "start";
      case StopReason::Event: return "event";
      case StopReason::Step: return "step";
      case StopReason::Halted: return "halted";
      case StopReason::Fault: return "fault";
      case StopReason::InstLimit: return "inst-limit";
    }
    return "?";
}

bool
parseStopReason(const std::string &tok, StopReason &reason)
{
    for (StopReason r :
         {StopReason::Start, StopReason::Event, StopReason::Step,
          StopReason::Halted, StopReason::Fault, StopReason::InstLimit}) {
        if (tok == stopReasonToken(r)) {
            reason = r;
            return true;
        }
    }
    return false;
}

const char *
eventKindToken(EventKind kind)
{
    switch (kind) {
      case EventKind::Watch: return "watch";
      case EventKind::Break: return "break";
      case EventKind::Protection: return "protection";
    }
    return "?";
}

bool
parseEventKind(const std::string &tok, EventKind &kind)
{
    for (EventKind k :
         {EventKind::Watch, EventKind::Break, EventKind::Protection}) {
        if (tok == eventKindToken(k)) {
            kind = k;
            return true;
        }
    }
    return false;
}

// ---------------------------------------------------- string escaping

bool
needsEscape(char c)
{
    // Everything the tokenizer treats as whitespace must be escaped,
    // or encode/decode would not round-trip.
    return c == ' ' || c == '%' || c == '=' || c == '\n' ||
           c == '\r' || c == '\t' || c == '\v' || c == '\f';
}

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (needsEscape(c)) {
            char buf[4];
            std::snprintf(buf, sizeof buf, "%%%02x",
                          static_cast<unsigned char>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

bool
unescape(const std::string &s, std::string &out)
{
    out.clear();
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '%') {
            out += s[i];
            continue;
        }
        if (i + 2 >= s.size())
            return false;
        int hi = hexNibble(s[i + 1]), lo = hexNibble(s[i + 2]);
        if (hi < 0 || lo < 0)
            return false;
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
    }
    return true;
}

// -------------------------------------------------- line (de)tokenizer

/** Emits "key=value" tokens onto a line. */
class LineWriter
{
  public:
    explicit LineWriter(std::string verb) : line_(std::move(verb)) {}

    void
    num(const char *key, uint64_t v)
    {
        line_ += ' ';
        line_ += key;
        line_ += '=';
        line_ += std::to_string(v);
    }

    void
    hex(const char *key, uint64_t v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%llx",
                      static_cast<unsigned long long>(v));
        line_ += ' ';
        line_ += key;
        line_ += '=';
        line_ += buf;
    }

    void
    snum(const char *key, int64_t v)
    {
        line_ += ' ';
        line_ += key;
        line_ += '=';
        line_ += std::to_string(v);
    }

    void
    str(const char *key, const std::string &v)
    {
        line_ += ' ';
        line_ += key;
        line_ += '=';
        line_ += escape(v);
    }

    const std::string &str() const { return line_; }

  private:
    std::string line_;
};

/** Parsed "verb key=value ..." line; unknown keys are ignored by the
 *  typed getters, preserving forward compatibility. */
class LineReader
{
  public:
    bool
    parse(const std::string &line, std::string *err)
    {
        std::istringstream in(line);
        if (!(in >> verb_)) {
            if (err)
                *err = "empty line";
            return false;
        }
        std::string tok;
        while (in >> tok) {
            size_t eq = tok.find('=');
            if (eq == std::string::npos || eq == 0) {
                if (err)
                    *err = "malformed token '" + tok + "'";
                return false;
            }
            kv_[tok.substr(0, eq)] = tok.substr(eq + 1);
        }
        return true;
    }

    const std::string &verb() const { return verb_; }

    bool has(const char *key) const { return kv_.count(key) > 0; }

    bool
    num(const char *key, uint64_t &out) const
    {
        auto it = kv_.find(key);
        if (it == kv_.end())
            return false;
        const char *s = it->second.c_str();
        char *end = nullptr;
        unsigned long long v = std::strtoull(s, &end, 0);
        if (end == s || *end != '\0')
            return false;
        out = v;
        return true;
    }

    bool
    snum(const char *key, int64_t &out) const
    {
        auto it = kv_.find(key);
        if (it == kv_.end())
            return false;
        const char *s = it->second.c_str();
        char *end = nullptr;
        long long v = std::strtoll(s, &end, 0);
        if (end == s || *end != '\0')
            return false;
        out = v;
        return true;
    }

    bool
    str(const char *key, std::string &out) const
    {
        auto it = kv_.find(key);
        if (it == kv_.end())
            return false;
        return unescape(it->second, out);
    }

    std::string
    raw(const char *key) const
    {
        auto it = kv_.find(key);
        return it == kv_.end() ? std::string() : it->second;
    }

    /** Visit every key=value whose key starts with @p prefix, in key
     *  order (raw values; the caller unescapes if needed). */
    template <typename Fn>
    void
    forEachWithPrefix(const std::string &prefix, Fn fn) const
    {
        for (auto it = kv_.lower_bound(prefix); it != kv_.end(); ++it) {
            if (it->first.compare(0, prefix.size(), prefix) != 0)
                break;
            fn(it->first, it->second);
        }
    }

  private:
    std::string verb_;
    std::map<std::string, std::string> kv_;
};

bool
fail(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg;
    return false;
}

} // namespace

const char *
requestKindName(RequestKind kind)
{
    for (const auto &t : kRequestTokens)
        if (t.kind == kind)
            return t.name;
    return "?";
}

const char *
backendToken(BackendKind kind)
{
    for (const auto &t : kBackendTokens)
        if (t.kind == kind)
            return t.name;
    return "?";
}

bool
parseBackendToken(const std::string &token, BackendKind &kind)
{
    for (const auto &t : kBackendTokens) {
        if (token == t.name) {
            kind = t.kind;
            return true;
        }
    }
    return false;
}

const char *
sessionEventKindName(SessionEventKind kind)
{
    switch (kind) {
      case SessionEventKind::Watch: return "watch";
      case SessionEventKind::Break: return "break";
      case SessionEventKind::Protection: return "protection";
      case SessionEventKind::Checkpoint: return "checkpoint";
      case SessionEventKind::Restore: return "restore";
      case SessionEventKind::Attached: return "attached";
      case SessionEventKind::Halted: return "halted";
      case SessionEventKind::SubscriberDropped:
        return "subscriber-dropped";
      case SessionEventKind::ToolFinding: return "tool-finding";
    }
    return "?";
}

// ------------------------------------------------------------ request

std::string
encodeRequest(const Request &req)
{
    LineWriter w(requestKindName(req.kind));
    w.num("seq", req.seq);
    switch (req.kind) {
      case RequestKind::SelectBackend:
        w.str("backend", backendToken(req.backend));
        break;
      case RequestKind::SetWatch:
        w.str("wkind", watchKindToken(req.watch.kind));
        w.str("name", req.watch.name);
        w.hex("addr", req.watch.addr);
        w.num("size", req.watch.size);
        w.num("length", req.watch.length);
        w.num("cond", req.watch.conditional ? 1 : 0);
        w.hex("pred", req.watch.predConst);
        break;
      case RequestKind::SetBreak:
        w.hex("pc", req.brk.pc);
        w.str("name", req.brk.name);
        w.num("cond", req.brk.conditional ? 1 : 0);
        w.hex("caddr", req.brk.condAddr);
        w.num("csize", req.brk.condSize);
        w.hex("cconst", req.brk.condConst);
        break;
      case RequestKind::RemoveWatch:
      case RequestKind::RemoveBreak:
        w.snum("index", req.index);
        break;
      case RequestKind::Stepi:
      case RequestKind::ReverseStep:
      case RequestKind::RunToEvent:
      case RequestKind::ReplayVerify:
        w.num("count", req.count);
        break;
      case RequestKind::ReadMemory:
        w.hex("addr", req.addr);
        w.num("size", req.size);
        break;
      case RequestKind::WriteMemory:
        w.hex("addr", req.addr);
        w.num("size", req.size);
        w.hex("value", req.value);
        break;
      case RequestKind::WriteRegister:
        w.num("reg", req.reg);
        w.hex("value", req.value);
        break;
      case RequestKind::SessionCreate:
        w.str("name", req.name);
        w.str("backend", backendToken(req.backend));
        if (req.shard >= 0)
            w.snum("shard", req.shard);
        break;
      case RequestKind::SessionSelect:
      case RequestKind::SessionDestroy:
        w.num("session", req.session);
        break;
      case RequestKind::SessionHibernate:
      case RequestKind::SessionPersist:
        if (req.session)
            w.num("session", req.session);
        break;
      case RequestKind::TraceStart:
        if (req.count != 1)
            w.num("count", req.count); // ring KiB per thread (0=default)
        break;
      case RequestKind::TraceDump:
        w.num("count", req.count); // max chunk bytes (0 = server pick)
        w.num("value", req.value); // byte offset into the rendered JSON
        break;
      case RequestKind::ToolEnable:
        w.str("name", req.name);
        for (const auto &kv : req.toolConfig)
            w.str(("cfg." + kv.first).c_str(), kv.second);
        if (req.session)
            w.num("session", req.session);
        break;
      case RequestKind::ToolDisable:
      case RequestKind::ToolReport:
        w.str("name", req.name);
        if (req.session)
            w.num("session", req.session);
        break;
      case RequestKind::ToolList:
        if (req.session)
            w.num("session", req.session);
        break;
      default:
        break;
    }
    return w.str();
}

bool
decodeRequest(const std::string &line, Request &req, std::string *err)
{
    LineReader r;
    if (!r.parse(line, err))
        return false;

    req = Request{};
    bool known = false;
    for (const auto &t : kRequestTokens) {
        if (r.verb() == t.name) {
            req.kind = t.kind;
            known = true;
            break;
        }
    }
    if (!known)
        return fail(err, "unknown request '" + r.verb() + "'");
    r.num("seq", req.seq);

    switch (req.kind) {
      case RequestKind::SelectBackend: {
        std::string tok = r.raw("backend");
        if (!parseBackendToken(tok, req.backend))
            return fail(err, "unknown backend '" + tok + "'");
        break;
      }
      case RequestKind::SetWatch: {
        if (!parseWatchKind(r.raw("wkind"), req.watch.kind))
            return fail(err, "bad watch kind '" + r.raw("wkind") + "'");
        r.str("name", req.watch.name);
        uint64_t v = 0;
        if (!r.num("addr", req.watch.addr))
            return fail(err, "set-watch needs addr=");
        if (r.num("size", v))
            req.watch.size = static_cast<unsigned>(v);
        r.num("length", req.watch.length);
        if (r.num("cond", v))
            req.watch.conditional = v != 0;
        r.num("pred", req.watch.predConst);
        break;
      }
      case RequestKind::SetBreak: {
        uint64_t v = 0;
        if (!r.num("pc", req.brk.pc))
            return fail(err, "set-break needs pc=");
        r.str("name", req.brk.name);
        if (r.num("cond", v))
            req.brk.conditional = v != 0;
        r.num("caddr", req.brk.condAddr);
        if (r.num("csize", v))
            req.brk.condSize = static_cast<unsigned>(v);
        r.num("cconst", req.brk.condConst);
        break;
      }
      case RequestKind::RemoveWatch:
      case RequestKind::RemoveBreak: {
        int64_t idx = -1;
        if (!r.snum("index", idx))
            return fail(err, "remove needs index=");
        req.index = static_cast<int>(idx);
        break;
      }
      case RequestKind::Stepi:
      case RequestKind::ReverseStep:
      case RequestKind::RunToEvent:
      case RequestKind::ReplayVerify:
        r.num("count", req.count);
        break;
      case RequestKind::ReadMemory:
      case RequestKind::WriteMemory: {
        uint64_t v = 0;
        if (!r.num("addr", req.addr))
            return fail(err, "memory access needs addr=");
        if (r.num("size", v))
            req.size = static_cast<unsigned>(v);
        r.num("value", req.value);
        break;
      }
      case RequestKind::WriteRegister: {
        uint64_t v = 0;
        if (!r.num("reg", v))
            return fail(err, "write-register needs reg=");
        req.reg = static_cast<unsigned>(v);
        if (!r.num("value", req.value))
            return fail(err, "write-register needs value=");
        break;
      }
      case RequestKind::SessionCreate: {
        r.str("name", req.name);
        std::string tok = r.raw("backend");
        if (!tok.empty() && !parseBackendToken(tok, req.backend))
            return fail(err, "unknown backend '" + tok + "'");
        r.snum("shard", req.shard); // optional: least loaded picks
        break;
      }
      case RequestKind::SessionSelect:
      case RequestKind::SessionDestroy:
        if (!r.num("session", req.session))
            return fail(err, "session verb needs session=");
        break;
      case RequestKind::SessionHibernate:
      case RequestKind::SessionPersist:
        r.num("session", req.session); // optional: default selected
        break;
      case RequestKind::TraceStart:
        req.count = 0;
        r.num("count", req.count);
        break;
      case RequestKind::TraceDump:
        req.count = 0;
        r.num("count", req.count);
        r.num("value", req.value);
        break;
      case RequestKind::ToolEnable:
      case RequestKind::ToolDisable:
      case RequestKind::ToolReport: {
        if (!r.str("name", req.name) || req.name.empty())
            return fail(err, "tool verb needs name=");
        r.num("session", req.session); // optional: default selected
        if (req.kind == RequestKind::ToolEnable) {
            bool cfgOk = true;
            r.forEachWithPrefix(
                "cfg.",
                [&](const std::string &key, const std::string &raw) {
                    std::string k = key.substr(4), v;
                    if (k.empty() || !unescape(raw, v)) {
                        cfgOk = false;
                        return;
                    }
                    req.toolConfig.emplace_back(std::move(k),
                                                std::move(v));
                });
            if (!cfgOk)
                return fail(err, "bad tool configuration key");
        }
        break;
      }
      case RequestKind::ToolList:
        r.num("session", req.session); // optional: default selected
        break;
      default:
        break;
    }
    return true;
}

std::string
Request::describe() const
{
    return encodeRequest(*this);
}

// ----------------------------------------------------------- response

namespace {

void
encodeStop(LineWriter &w, const StopInfo &stop)
{
    w.num("stop", 1);
    w.str("sreason", stopReasonToken(stop.reason));
    w.snum("sevent", stop.eventIndex);
    w.num("stime", stop.time);
    w.num("sinsts", stop.appInsts);
    w.hex("spc", stop.pc);
    if (stop.eventIndex >= 0) {
        w.str("skind", eventKindToken(stop.mark.kind));
        w.snum("sindex", stop.mark.index);
        w.hex("smarkpc", stop.mark.pc);
    }
}

bool
decodeStop(const LineReader &r, StopInfo &stop, std::string *err)
{
    if (!parseStopReason(r.raw("sreason"), stop.reason))
        return fail(err, "bad stop reason");
    int64_t sv = -1;
    r.snum("sevent", sv);
    stop.eventIndex = static_cast<int>(sv);
    r.num("stime", stop.time);
    r.num("sinsts", stop.appInsts);
    r.num("spc", stop.pc);
    if (stop.eventIndex >= 0) {
        parseEventKind(r.raw("skind"), stop.mark.kind);
        int64_t mi = 0;
        r.snum("sindex", mi);
        stop.mark.index = static_cast<int>(mi);
        r.num("smarkpc", stop.mark.pc);
        stop.mark.time = stop.time;
        stop.mark.appInsts = stop.appInsts;
    }
    return true;
}

} // namespace

std::string
encodeResponse(const Response &resp)
{
    const char *verb = resp.status == ResponseStatus::Ok ? "ok"
                       : resp.status == ResponseStatus::Error
                           ? "error"
                           : "unsupported";
    LineWriter w(verb);
    w.num("seq", resp.seq);
    w.str("re", requestKindName(resp.inReplyTo));
    if (!resp.error.empty())
        w.str("msg", resp.error);
    if (resp.index >= 0)
        w.snum("index", resp.index);
    if (resp.hasStop)
        encodeStop(w, resp.stop);
    if (!resp.regs.empty()) {
        std::string list;
        for (size_t i = 0; i < resp.regs.size(); ++i) {
            char buf[24];
            std::snprintf(buf, sizeof buf, "%s%llx", i ? "," : "",
                          static_cast<unsigned long long>(resp.regs[i]));
            list += buf;
        }
        w.str("regs", list);
    }
    if (!resp.bytes.empty())
        w.str("bytes", bytesToHex(resp.bytes));
    if (resp.value)
        w.hex("value", resp.value);
    if (!resp.text.empty())
        w.str("text", resp.text);
    if (resp.inReplyTo == RequestKind::Stats) {
        w.num("st.time", resp.stats.time);
        w.num("st.insts", resp.stats.appInsts);
        w.num("st.events", resp.stats.events);
        w.num("st.cps", resp.stats.checkpoints);
        w.num("st.pages", resp.stats.pagesCopied);
        w.num("st.undo_bytes", resp.stats.undoBytes);
        w.num("st.restores", resp.stats.restores);
        w.num("st.undo_restored", resp.stats.undoBytesRestored);
        w.num("st.replayed", resp.stats.replayedUops);
        w.num("st.jit_uops", resp.stats.jitUops);
        w.num("st.jit_side_exits", resp.stats.jitSideExits);
    }
    if (resp.inReplyTo == RequestKind::ServerStats) {
        w.num("sv.active", resp.server.activeSessions);
        w.num("sv.peak", resp.server.peakSessions);
        w.num("sv.created", resp.server.created);
        w.num("sv.destroyed", resp.server.destroyed);
        w.num("sv.rejected", resp.server.rejected);
        w.num("sv.max", resp.server.maxSessions);
        w.num("sv.workers", resp.server.workers);
        w.num("sv.slices", resp.server.slices);
        w.num("sv.jobs", resp.server.jobs);
        w.num("sv.uops", resp.server.totalUops);
        w.num("sv.insts", resp.server.totalAppInsts);
        w.num("sv.events", resp.server.totalEvents);
        w.num("sv.jit_uops", resp.server.jitUops);
        w.num("sv.jit_side_exits", resp.server.jitSideExits);
        w.num("sv.pushed", resp.server.eventsPushed);
        w.num("sv.events_dropped", resp.server.eventsDropped);
        w.num("sv.subs", resp.server.subscribers);
        w.num("sv.dropped", resp.server.dropped);
        w.num("sv.hibernated", resp.server.hibernated);
        w.num("sv.evictions", resp.server.evictions);
        w.num("sv.resurrections", resp.server.resurrections);
        w.num("sv.quarantined", resp.server.quarantined);
        w.num("sv.faults", resp.server.faultsInjected);
        // One key per latency family: hist.<name>=count:sum:b0,b1,...
        // (digits, ':' and ',' pass the escaper untouched; unknown
        // keys are ignored by older decoders).
        for (const HistogramSnapshot &h : resp.server.hists) {
            std::string key = "hist." + h.name;
            std::string val = std::to_string(h.count) + ':' +
                              std::to_string(h.sum) + ':';
            for (size_t i = 0; i < h.buckets.size(); ++i) {
                if (i)
                    val += ',';
                val += std::to_string(h.buckets[i]);
            }
            w.str(key.c_str(), val);
        }
        // One key per tool, same dotted-family scheme:
        // tool.<name>=<uops>:<checks>:<suppressed>:<findings>.
        for (const tools::ToolStatsRow &t : resp.server.tools) {
            std::string key = "tool." + t.name;
            std::string val = std::to_string(t.uopsSeen) + ':' +
                              std::to_string(t.checks) + ':' +
                              std::to_string(t.suppressed) + ':' +
                              std::to_string(t.findings);
            w.str(key.c_str(), val);
        }
    }
    if (resp.inReplyTo == RequestKind::StoreStats) {
        w.num("ps.images", resp.store.images);
        w.num("ps.bytes", resp.store.bytes);
        w.num("ps.puts", resp.store.puts);
        w.num("ps.loads", resp.store.loads);
        w.num("ps.erases", resp.store.erases);
        w.num("ps.quarantined", resp.store.quarantined);
        w.num("ps.orphans", resp.store.orphansRemoved);
    }
    // One key per shard, same dotted-family scheme as hist./tool.:
    // shard.<index>=<pid>:<sessions>:<hibernated>:<jobs>:<uops>:
    // <appInsts>:<queueWaitMeanUs>:<restarts>.
    for (const ShardStatsRow &sh : resp.shards) {
        std::string key = "shard." + std::to_string(sh.index);
        std::string val =
            std::to_string(sh.pid) + ':' +
            std::to_string(sh.sessions) + ':' +
            std::to_string(sh.hibernated) + ':' +
            std::to_string(sh.jobs) + ':' +
            std::to_string(sh.totalUops) + ':' +
            std::to_string(sh.appInsts) + ':' +
            std::to_string(sh.queueWaitMeanUs) + ':' +
            std::to_string(sh.restarts);
        w.str(key.c_str(), val);
    }
    return w.str();
}

bool
decodeResponse(const std::string &line, Response &resp, std::string *err)
{
    LineReader r;
    if (!r.parse(line, err))
        return false;

    resp = Response{};
    if (r.verb() == "ok")
        resp.status = ResponseStatus::Ok;
    else if (r.verb() == "error")
        resp.status = ResponseStatus::Error;
    else if (r.verb() == "unsupported")
        resp.status = ResponseStatus::Unsupported;
    else
        return fail(err, "unknown response verb '" + r.verb() + "'");

    r.num("seq", resp.seq);
    std::string re = r.raw("re");
    for (const auto &t : kRequestTokens)
        if (re == t.name)
            resp.inReplyTo = t.kind;
    r.str("msg", resp.error);
    int64_t idx = -1;
    if (r.snum("index", idx))
        resp.index = static_cast<int>(idx);
    uint64_t stop = 0;
    if (r.num("stop", stop) && stop) {
        resp.hasStop = true;
        if (!decodeStop(r, resp.stop, err))
            return false;
    }
    std::string list;
    if (r.str("regs", list) && !list.empty()) {
        std::istringstream in(list);
        std::string item;
        while (std::getline(in, item, ',')) {
            char *end = nullptr;
            resp.regs.push_back(std::strtoull(item.c_str(), &end, 16));
            if (end == item.c_str() || *end != '\0')
                return fail(err, "bad register list");
        }
    }
    std::string hex;
    if (r.str("bytes", hex) && !hexToBytes(hex, resp.bytes))
        return fail(err, "bad byte string");
    r.num("value", resp.value);
    r.str("text", resp.text);
    if (resp.inReplyTo == RequestKind::Stats) {
        r.num("st.time", resp.stats.time);
        r.num("st.insts", resp.stats.appInsts);
        uint64_t v = 0;
        if (r.num("st.events", v))
            resp.stats.events = v;
        if (r.num("st.cps", v))
            resp.stats.checkpoints = v;
        r.num("st.pages", resp.stats.pagesCopied);
        r.num("st.undo_bytes", resp.stats.undoBytes);
        r.num("st.restores", resp.stats.restores);
        r.num("st.undo_restored", resp.stats.undoBytesRestored);
        r.num("st.replayed", resp.stats.replayedUops);
        r.num("st.jit_uops", resp.stats.jitUops);
        r.num("st.jit_side_exits", resp.stats.jitSideExits);
    }
    if (resp.inReplyTo == RequestKind::ServerStats) {
        r.num("sv.active", resp.server.activeSessions);
        r.num("sv.peak", resp.server.peakSessions);
        r.num("sv.created", resp.server.created);
        r.num("sv.destroyed", resp.server.destroyed);
        r.num("sv.rejected", resp.server.rejected);
        r.num("sv.max", resp.server.maxSessions);
        r.num("sv.workers", resp.server.workers);
        r.num("sv.slices", resp.server.slices);
        r.num("sv.jobs", resp.server.jobs);
        r.num("sv.uops", resp.server.totalUops);
        r.num("sv.insts", resp.server.totalAppInsts);
        r.num("sv.events", resp.server.totalEvents);
        r.num("sv.jit_uops", resp.server.jitUops);
        r.num("sv.jit_side_exits", resp.server.jitSideExits);
        r.num("sv.pushed", resp.server.eventsPushed);
        r.num("sv.events_dropped", resp.server.eventsDropped);
        r.num("sv.subs", resp.server.subscribers);
        r.num("sv.dropped", resp.server.dropped);
        r.num("sv.hibernated", resp.server.hibernated);
        r.num("sv.evictions", resp.server.evictions);
        r.num("sv.resurrections", resp.server.resurrections);
        r.num("sv.quarantined", resp.server.quarantined);
        r.num("sv.faults", resp.server.faultsInjected);
        bool histsOk = true;
        r.forEachWithPrefix(
            "hist.", [&](const std::string &key, const std::string &raw) {
                HistogramSnapshot h;
                h.name = key.substr(5);
                size_t c1 = raw.find(':');
                size_t c2 = c1 == std::string::npos
                                ? std::string::npos
                                : raw.find(':', c1 + 1);
                if (c2 == std::string::npos) {
                    histsOk = false;
                    return;
                }
                char *end = nullptr;
                h.count = std::strtoull(raw.c_str(), &end, 10);
                h.sum = std::strtoull(raw.c_str() + c1 + 1, &end, 10);
                std::istringstream in(raw.substr(c2 + 1));
                std::string item;
                while (std::getline(in, item, ',')) {
                    end = nullptr;
                    uint64_t b = std::strtoull(item.c_str(), &end, 10);
                    if (end == item.c_str() || *end != '\0') {
                        histsOk = false;
                        return;
                    }
                    h.buckets.push_back(b);
                }
                resp.server.hists.push_back(std::move(h));
            });
        if (!histsOk)
            return fail(err, "bad histogram encoding");
        bool toolsOk = true;
        r.forEachWithPrefix(
            "tool.", [&](const std::string &key, const std::string &raw) {
                tools::ToolStatsRow t;
                t.name = key.substr(5);
                uint64_t *fields[] = {&t.uopsSeen, &t.checks,
                                      &t.suppressed, &t.findings};
                size_t pos = 0;
                for (size_t i = 0; i < 4; ++i) {
                    char *end = nullptr;
                    *fields[i] =
                        std::strtoull(raw.c_str() + pos, &end, 10);
                    if (end == raw.c_str() + pos ||
                        (i < 3 && *end != ':') ||
                        (i == 3 && *end != '\0')) {
                        toolsOk = false;
                        return;
                    }
                    pos = end - raw.c_str() + 1;
                }
                resp.server.tools.push_back(std::move(t));
            });
        if (!toolsOk)
            return fail(err, "bad tool-stats encoding");
    }
    if (resp.inReplyTo == RequestKind::StoreStats) {
        r.num("ps.images", resp.store.images);
        r.num("ps.bytes", resp.store.bytes);
        r.num("ps.puts", resp.store.puts);
        r.num("ps.loads", resp.store.loads);
        r.num("ps.erases", resp.store.erases);
        r.num("ps.quarantined", resp.store.quarantined);
        r.num("ps.orphans", resp.store.orphansRemoved);
    }
    bool shardsOk = true;
    r.forEachWithPrefix(
        "shard.", [&](const std::string &key, const std::string &raw) {
            ShardStatsRow sh;
            char *end = nullptr;
            const char *idx = key.c_str() + 6;
            sh.index = std::strtoull(idx, &end, 10);
            if (end == idx || *end != '\0') {
                shardsOk = false;
                return;
            }
            uint64_t *fields[] = {&sh.pid, &sh.sessions,
                                  &sh.hibernated, &sh.jobs,
                                  &sh.totalUops, &sh.appInsts,
                                  &sh.queueWaitMeanUs, &sh.restarts};
            constexpr size_t n = sizeof fields / sizeof fields[0];
            size_t pos = 0;
            for (size_t i = 0; i < n; ++i) {
                end = nullptr;
                *fields[i] = std::strtoull(raw.c_str() + pos, &end, 10);
                if (end == raw.c_str() + pos ||
                    (i + 1 < n && *end != ':') ||
                    (i + 1 == n && *end != '\0')) {
                    shardsOk = false;
                    return;
                }
                pos = end - raw.c_str() + 1;
            }
            resp.shards.push_back(sh);
        });
    if (!shardsOk)
        return fail(err, "bad shard-stats encoding");
    return true;
}

std::string
Response::describe() const
{
    std::ostringstream os;
    os << (status == ResponseStatus::Ok ? "ok"
           : status == ResponseStatus::Error ? "error" : "unsupported")
       << " [" << requestKindName(inReplyTo) << "]";
    if (!error.empty())
        os << ": " << error;
    if (index >= 0)
        os << " index=" << index;
    if (hasStop)
        os << " — " << stop.describe();
    if (!regs.empty())
        os << " (" << regs.size() << " registers)";
    if (!bytes.empty())
        os << " (" << bytes.size() << " bytes)";
    if (inReplyTo == RequestKind::Stats)
        os << " t=" << stats.time << " insts=" << stats.appInsts
           << " events=" << stats.events << " checkpoints="
           << stats.checkpoints << " pagesCopied=" << stats.pagesCopied
           << " undoBytes=" << stats.undoBytes
           << " restores=" << stats.restores
           << " jitUops=" << stats.jitUops
           << " jitSideExits=" << stats.jitSideExits;
    if (inReplyTo == RequestKind::ServerStats)
        os << " sessions=" << server.activeSessions << " (peak "
           << server.peakSessions << ", cap " << server.maxSessions
           << ") created=" << server.created << " rejected="
           << server.rejected << " slices=" << server.slices
           << " uops=" << server.totalUops
           << " jitUops=" << server.jitUops;
    return os.str();
}

std::ostream &
operator<<(std::ostream &os, const Response &resp)
{
    return os << resp.describe();
}

// -------------------------------------------------------------- event

std::string
encodeEvent(const SessionEvent &ev)
{
    LineWriter w("event");
    w.str("kind", sessionEventKindName(ev.kind));
    w.num("seq", ev.seq);
    w.num("time", ev.time);
    w.num("insts", ev.appInsts);
    w.hex("pc", ev.pc);
    w.snum("index", ev.index);
    w.hex("addr", ev.addr);
    w.hex("old", ev.oldValue);
    w.hex("new", ev.newValue);
    w.num("value", ev.value);
    if (!ev.tool.empty())
        w.str("tool", ev.tool);
    if (!ev.detail.empty())
        w.str("detail", ev.detail);
    return w.str();
}

bool
decodeEvent(const std::string &line, SessionEvent &ev, std::string *err)
{
    LineReader r;
    if (!r.parse(line, err))
        return false;
    if (r.verb() != "event")
        return fail(err, "not an event line");

    ev = SessionEvent{};
    std::string tok = r.raw("kind");
    bool found = false;
    for (SessionEventKind k :
         {SessionEventKind::Watch, SessionEventKind::Break,
          SessionEventKind::Protection, SessionEventKind::Checkpoint,
          SessionEventKind::Restore, SessionEventKind::Attached,
          SessionEventKind::Halted,
          SessionEventKind::SubscriberDropped,
          SessionEventKind::ToolFinding}) {
        if (tok == sessionEventKindName(k)) {
            ev.kind = k;
            found = true;
        }
    }
    if (!found)
        return fail(err, "unknown event kind '" + tok + "'");
    r.num("seq", ev.seq);
    r.num("time", ev.time);
    r.num("insts", ev.appInsts);
    r.num("pc", ev.pc);
    int64_t idx = -1;
    if (r.snum("index", idx))
        ev.index = static_cast<int>(idx);
    r.num("addr", ev.addr);
    r.num("old", ev.oldValue);
    r.num("new", ev.newValue);
    r.num("value", ev.value);
    r.str("tool", ev.tool);
    r.str("detail", ev.detail);
    return true;
}

std::string
SessionEvent::describe() const
{
    std::ostringstream os;
    os << "[" << seq << "] ";
    switch (kind) {
      case SessionEventKind::Watch:
        os << "watchpoint " << index << " hit: *0x" << std::hex << addr
           << " = 0x" << oldValue << " -> 0x" << newValue
           << " (store pc 0x" << pc << std::dec << ")";
        break;
      case SessionEventKind::Break:
        os << "breakpoint " << index << " hit at pc=0x" << std::hex << pc
           << std::dec;
        break;
      case SessionEventKind::Protection:
        os << "protection fault: pc=0x" << std::hex << pc << " addr=0x"
           << addr << std::dec;
        break;
      case SessionEventKind::Checkpoint:
        os << value << " checkpoint(s) taken";
        break;
      case SessionEventKind::Restore:
        os << "timeline restored (" << value << " page(s) rolled back)";
        break;
      case SessionEventKind::Attached:
        os << "attached; target loaded at pc=0x" << std::hex << pc
           << std::dec;
        break;
      case SessionEventKind::Halted:
        os << "target halted";
        break;
      case SessionEventKind::SubscriberDropped:
        os << "subscription dropped: the peer stopped draining events";
        break;
      case SessionEventKind::ToolFinding:
        os << "tool " << tool << ": " << detail << " pc=0x" << std::hex
           << pc << " addr=0x" << addr << " value=0x" << value
           << std::dec;
        break;
    }
    os << " @ t=" << time << ", " << appInsts << " insts";
    return os.str();
}

std::ostream &
operator<<(std::ostream &os, const SessionEvent &ev)
{
    return os << ev.describe();
}

} // namespace dise
