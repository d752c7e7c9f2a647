/**
 * @file
 * Shared plumbing of the benchmark driver: the run context (seed,
 * duration, operation accounting, raw samples, scalar results),
 * bench-side spans for the traced run, a minimal JSON writer, and
 * host provenance.
 *
 * The driver measures from outside: every number comes from timing
 * calls into the simulator's public entry points (wire and RSP
 * clients, DebugSession, JobScheduler, ExperimentRunner) or from the
 * counters those surfaces already expose. Nothing here reaches into
 * src/ internals.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "server/wire_client.hh"
#include "session/debug_session.hh"
#include "workloads/workload.hh"

namespace perfbench {

/** Monotonic clock. */
uint64_t nowNs();
double secondsSince(uint64_t startNs);
double usSince(uint64_t startNs);

/** CPU time consumed by the calling thread; unlike the monotonic
 *  clock it does not advance while the thread waits for a core. */
uint64_t threadCpuNs();

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** FNV-1a over a byte range, chained from @p h. */
uint64_t fnv(const void *data, size_t len,
             uint64_t h = 0xcbf29ce484222325ull);
uint64_t fnvU64(uint64_t v, uint64_t h);

/** Median of @p v (0 when empty); @p v is copied. */
double median(std::vector<double> v);

/** Minimal streaming JSON writer (objects, arrays, scalars). */
class Json
{
  public:
    Json &beginObject();
    Json &endObject();
    Json &beginArray();
    Json &endArray();
    Json &key(const std::string &k);
    Json &value(double v);
    Json &value(uint64_t v);
    Json &value(int64_t v);
    Json &value(bool v);
    Json &value(const std::string &v);
    Json &value(const char *v) { return value(std::string(v)); }
    Json &numbers(const std::vector<double> &v);
    const std::string &str() const { return out_; }

  private:
    void sep();
    std::string out_;
    bool first_ = true;
};

/** One bench-side span (traced runs only). */
struct Span
{
    std::string name;
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    int64_t parent = -1; ///< index into the span list, -1 = root
    uint64_t request = 0; ///< spans of one request share this id
    uint32_t thread = 0;
};

/** Process-wide span store: kept in memory, written once at exit. */
class Spans
{
  public:
    static Spans &instance();
    void setEnabled(bool on) { enabled_.store(on); }
    bool enabled() const { return enabled_.load(); }
    /** Open a span; request 0 inherits the parent's id (or takes a
     *  fresh one at the root). Returns its index. */
    int64_t open(const std::string &name, uint64_t request);
    void close(int64_t index);
    /** Closed spans named @p name. */
    size_t count(const std::string &name);
    size_t size();
    bool writeJson(const std::string &path);

  private:
    std::atomic<bool> enabled_{false};
    std::atomic<uint64_t> nextRequest_{1};
    std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span; parent is the innermost open span of this thread. */
class SpanScope
{
  public:
    SpanScope(const std::string &name, uint64_t request = 0);
    ~SpanScope();
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    int64_t index_ = -1;
};

/** Operations attempted/failed, with the first few failure reasons. */
class Ops
{
  public:
    void attempt() { attempted_.fetch_add(1); }
    void fail(const std::string &why);
    /** attempt(); fail(why) unless @p ok. Returns ok. */
    bool check(bool ok, const std::string &why);
    uint64_t attempted() const { return attempted_.load(); }
    uint64_t failed() const { return failed_.load(); }
    std::vector<std::string> failures();

  private:
    std::atomic<uint64_t> attempted_{0};
    std::atomic<uint64_t> failed_{0};
    std::mutex mu_;
    std::vector<std::string> failures_;
};

/** Everything one benchmark invocation shares. */
struct Ctx
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Self-test hook: flip a bit of the next expected oracle digest,
     *  which must surface as a failed operation. */
    std::atomic<bool> corruptPending{false};
    /** Output directory inside the build tree (spans, persist store). */
    std::string outDir = ".";

    Ops ops;

    /** Raw samples by series name (unit in the name). */
    void sample(const std::string &series, double v);
    void samples(const std::string &series, const std::vector<double> &v);
    std::map<std::string, std::vector<double>> series();

    /** Scalar results (end-to-end inputs and per-layer metrics). */
    void set(const std::string &name, double v);
    std::map<std::string, double> values();

    /**
     * Oracle comparison of an operation already counted as attempted:
     * a mismatch marks it failed. Applies the corrupt-digest hook.
     */
    bool expectEq(uint64_t expected, uint64_t actual,
                  const std::string &what);

  private:
    std::mutex mu_;
    std::map<std::string, std::vector<double>> series_;
    std::map<std::string, double> values_;
};

/** Default session options; @p jit false turns the trace JIT off (the
 *  plain-interpreter reference of every oracle). */
dise::SessionOptions sessionOptions(bool jit);

/** Workload builder honouring the run seed. */
dise::Workload buildProgram(const std::string &name, unsigned scale,
                            uint64_t seed);

/** One wire request inside a span named @p span, counted as an
 *  operation: a transport failure or an error response fails it. */
bool wireCall(Ctx &ctx, dise::server::WireClient &c, const dise::Request &req,
              dise::Response &resp, const char *span);

/** Digest of a response's deterministic content (status, stop,
 *  registers, bytes, scalar value) — the oracle's comparison key. */
uint64_t responseDigest(const dise::Response &resp);

/** A latency family from a server-stats reply, or null. */
const dise::HistogramSnapshot *findHist(const dise::ServerStats &s,
                                        const std::string &name);
/** Percentile (bucket upper bound, µs) of the observations a log2
 *  histogram gained between @p before (may be null) and @p after. */
double histPercentile(const dise::HistogramSnapshot &after,
                      const dise::HistogramSnapshot *before, double q);

/** Host provenance as a JSON object body. */
void writeProvenance(Json &j, const Ctx &ctx);

/** @name Workloads (each runs set-up, timed phase, oracle check) */
///@{
void runServed(Ctx &ctx, double seconds);
void runTimetravel(Ctx &ctx, double seconds);
void runCycles(Ctx &ctx, double seconds);
///@}

/** The traced layer probes and the layer ladder. */
void runLayers(Ctx &ctx);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
