#include "common.hh"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

using namespace dise;

uint64_t
nowNs()
{
    using namespace std::chrono;
    return duration_cast<nanoseconds>(
               steady_clock::now().time_since_epoch())
        .count();
}

double
secondsSince(uint64_t startNs)
{
    return (nowNs() - startNs) / 1e9;
}

double
usSince(uint64_t startNs)
{
    return (nowNs() - startNs) / 1e3;
}

uint64_t
threadCpuNs()
{
    struct timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + ts.tv_nsec;
}

double
peakRssMb()
{
    struct rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0; // ru_maxrss is KiB on Linux
}

uint64_t
fnv(const void *data, size_t len, uint64_t h)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
fnvU64(uint64_t v, uint64_t h)
{
    return fnv(&v, sizeof v, h);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ------------------------------------------------------------------ Json

void
Json::sep()
{
    if (!first_)
        out_ += ',';
    first_ = false;
}

Json &
Json::beginObject()
{
    sep();
    out_ += '{';
    first_ = true;
    return *this;
}

Json &
Json::endObject()
{
    out_ += '}';
    first_ = false;
    return *this;
}

Json &
Json::beginArray()
{
    sep();
    out_ += '[';
    first_ = true;
    return *this;
}

Json &
Json::endArray()
{
    out_ += ']';
    first_ = false;
    return *this;
}

Json &
Json::key(const std::string &k)
{
    value(k);
    out_ += ':';
    first_ = true;
    return *this;
}

Json &
Json::value(double v)
{
    sep();
    if (!std::isfinite(v)) {
        out_ += "null";
        return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    return *this;
}

Json &
Json::value(uint64_t v)
{
    sep();
    out_ += std::to_string(v);
    return *this;
}

Json &
Json::value(int64_t v)
{
    sep();
    out_ += std::to_string(v);
    return *this;
}

Json &
Json::value(bool v)
{
    sep();
    out_ += v ? "true" : "false";
    return *this;
}

Json &
Json::value(const std::string &v)
{
    sep();
    out_ += '"';
    for (char c : v) {
        if (c == '"' || c == '\\') {
            out_ += '\\';
            out_ += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out_ += buf;
        } else {
            out_ += c;
        }
    }
    out_ += '"';
    return *this;
}

Json &
Json::numbers(const std::vector<double> &v)
{
    beginArray();
    for (double x : v)
        value(x);
    return endArray();
}

// ----------------------------------------------------------------- spans

namespace {

thread_local std::vector<int64_t> openSpans;

uint32_t
threadTag()
{
    static std::atomic<uint32_t> next{1};
    thread_local uint32_t tag = next.fetch_add(1);
    return tag;
}

} // namespace

Spans &
Spans::instance()
{
    static Spans s;
    return s;
}

int64_t
Spans::open(const std::string &name, uint64_t request)
{
    Span s;
    s.name = name;
    s.parent = openSpans.empty() ? -1 : openSpans.back();
    s.thread = threadTag();
    std::lock_guard<std::mutex> lk(mu_);
    if (request == 0)
        request = s.parent >= 0 ? spans_[s.parent].request
                                : nextRequest_.fetch_add(1);
    s.request = request;
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    return static_cast<int64_t>(spans_.size() - 1);
}

void
Spans::close(int64_t index)
{
    uint64_t t = nowNs();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[index].endNs = t;
}

size_t
Spans::count(const std::string &name)
{
    std::lock_guard<std::mutex> lk(mu_);
    size_t n = 0;
    for (const Span &s : spans_)
        n += s.name == name && s.endNs;
    return n;
}

size_t
Spans::size()
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
}

bool
Spans::writeJson(const std::string &path)
{
    std::lock_guard<std::mutex> lk(mu_);
    Json j;
    j.beginArray();
    for (const Span &s : spans_) {
        j.beginObject();
        j.key("name").value(s.name);
        j.key("start_ns").value(s.startNs);
        j.key("end_ns").value(s.endNs);
        j.key("parent").value(s.parent);
        j.key("request").value(s.request);
        j.key("thread").value(static_cast<uint64_t>(s.thread));
        j.endObject();
    }
    j.endArray();
    std::ofstream f(path);
    f << j.str() << '\n';
    return static_cast<bool>(f);
}

SpanScope::SpanScope(const std::string &name, uint64_t request)
{
    Spans &s = Spans::instance();
    if (!s.enabled())
        return;
    index_ = s.open(name, request);
    openSpans.push_back(index_);
}

SpanScope::~SpanScope()
{
    if (index_ < 0)
        return;
    openSpans.pop_back();
    Spans::instance().close(index_);
}

// ------------------------------------------------------------------- Ops

void
Ops::fail(const std::string &why)
{
    failed_.fetch_add(1);
    std::lock_guard<std::mutex> lk(mu_);
    if (failures_.size() < 20)
        failures_.push_back(why);
}

bool
Ops::check(bool ok, const std::string &why)
{
    attempt();
    if (!ok)
        fail(why);
    return ok;
}

std::vector<std::string>
Ops::failures()
{
    std::lock_guard<std::mutex> lk(mu_);
    return failures_;
}

// ------------------------------------------------------------------- Ctx

void
Ctx::sample(const std::string &name, double v)
{
    std::lock_guard<std::mutex> lk(mu_);
    series_[name].push_back(v);
}

void
Ctx::samples(const std::string &name, const std::vector<double> &v)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto &s = series_[name];
    s.insert(s.end(), v.begin(), v.end());
}

std::map<std::string, std::vector<double>>
Ctx::series()
{
    std::lock_guard<std::mutex> lk(mu_);
    return series_;
}

void
Ctx::set(const std::string &name, double v)
{
    std::lock_guard<std::mutex> lk(mu_);
    values_[name] = v;
}

std::map<std::string, double>
Ctx::values()
{
    std::lock_guard<std::mutex> lk(mu_);
    return values_;
}

bool
Ctx::expectEq(uint64_t expected, uint64_t actual, const std::string &what)
{
    if (corruptPending.exchange(false))
        expected ^= 1;
    // The compared operation was already counted when it ran.
    if (expected != actual)
        ops.fail("oracle mismatch: " + what);
    return expected == actual;
}

// ------------------------------------------------------------------ wire

bool
wireCall(Ctx &ctx, server::WireClient &c, const Request &req, Response &resp,
         const char *span)
{
    SpanScope sp(span);
    std::string err;
    bool ok = c.call(req, resp, &err);
    return ctx.ops.check(ok && resp.ok(), std::string(span) + " failed: " +
                                              (ok ? resp.error : err));
}

// ---------------------------------------------------------- server-stats

const HistogramSnapshot *
findHist(const ServerStats &s, const std::string &name)
{
    for (const HistogramSnapshot &h : s.hists)
        if (h.name == name)
            return &h;
    return nullptr;
}

/** Percentile estimate of a log2-bucket histogram delta (bucket upper
 *  bound, µs). */
double
histPercentile(const HistogramSnapshot &after, const HistogramSnapshot *before,
               double q)
{
    std::vector<uint64_t> b = after.buckets;
    if (before)
        for (size_t i = 0; i < b.size() && i < before->buckets.size(); ++i)
            b[i] -= before->buckets[i];
    uint64_t total = 0;
    for (uint64_t x : b)
        total += x;
    if (!total)
        return 0;
    // Bucket 0 holds 0; bucket i >= 1 holds [2^(i-1), 2^i - 1].
    // Interpolate by rank inside the bucket the percentile falls in.
    double want = q * total;
    uint64_t acc = 0;
    for (size_t i = 0; i < b.size(); ++i) {
        if (acc + b[i] > want && b[i]) {
            if (i == 0)
                return 0;
            double lo = static_cast<double>(1ull << (i - 1));
            double hi = static_cast<double>((1ull << i) - 1);
            return lo + (hi - lo) * (want - acc + 0.5) / b[i];
        }
        acc += b[i];
    }
    return static_cast<double>((1ull << (b.size() - 1)) - 1);
}

// ------------------------------------------------------------- sessions

SessionOptions
sessionOptions(bool jit)
{
    SessionOptions o;
    if (!jit)
        o.prepare = [](DebugTarget &t) { t.jit()->config().enabled = false; };
    return o;
}

Workload
buildProgram(const std::string &name, unsigned scale, uint64_t seed)
{
    WorkloadParams p;
    p.scale = scale;
    p.seed = seed;
    return buildWorkload(name, p);
}

uint64_t
responseDigest(const Response &resp)
{
    uint64_t h = fnvU64(static_cast<uint64_t>(resp.status), 0xcbf29ce484222325ull);
    h = fnvU64(static_cast<uint64_t>(resp.inReplyTo), h);
    if (resp.hasStop) {
        const StopInfo &s = resp.stop;
        h = fnvU64(static_cast<uint64_t>(s.reason), h);
        h = fnvU64(static_cast<uint64_t>(s.eventIndex), h);
        h = fnvU64(s.time, h);
        h = fnvU64(s.appInsts, h);
        h = fnvU64(s.pc, h);
    }
    // replay-verify carries per-interval digests in regs whose cut
    // depends on the worker count; its final digest (value) is the
    // deterministic part.
    if (resp.inReplyTo != RequestKind::ReplayVerify)
        for (uint64_t r : resp.regs)
            h = fnvU64(r, h);
    if (!resp.bytes.empty())
        h = fnv(resp.bytes.data(), resp.bytes.size(), h);
    if (!resp.text.empty())
        h = fnv(resp.text.data(), resp.text.size(), h);
    h = fnvU64(resp.value, h);
    if (resp.inReplyTo == RequestKind::SetWatch)
        h = fnvU64(static_cast<uint64_t>(resp.index), h);
    return h;
}

void
writeProvenance(Json &j, const Ctx &ctx)
{
    std::string cpu = "unknown";
    std::ifstream f("/proc/cpuinfo");
    for (std::string line; std::getline(f, line);) {
        if (line.rfind("model name", 0) == 0) {
            size_t c = line.find(':');
            if (c != std::string::npos)
                cpu = line.substr(c + 2);
            break;
        }
    }
    j.beginObject();
    j.key("seed").value(ctx.seed);
    j.key("nproc").value(
        static_cast<uint64_t>(std::thread::hardware_concurrency()));
    j.key("cpu_model").value(cpu);
    j.key("compiler").value(std::string(__VERSION__));
#ifdef PERFBENCH_BUILD_TYPE
    j.key("build_type").value(std::string(PERFBENCH_BUILD_TYPE));
#else
    j.key("build_type").value(std::string("unknown"));
#endif
    j.endObject();
}

} // namespace perfbench
