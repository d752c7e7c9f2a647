/**
 * @file
 * The trace cache: storage, hotness profiling, invalidation, and the
 * build-time redundancy-suppression pass.
 *
 * Invalidation channels, each mapped to the stale assumption it covers:
 *
 *  - Self-modifying / debugger-rewritten code: the cache registers as a
 *    CodeWatcher with MainMemory and marks every page a trace body was
 *    decoded from; a write to such a page drops the traces touching it
 *    and bumps writeEpoch() so an executing trace notices mid-run.
 *  - DISE table mutations: traces validate the engine tableVersion they
 *    were built under at every entry (semantic changes only — restore's
 *    cache-invalidation generation bumps do not wipe the trace cache,
 *    which is precisely where replay needs its speed).
 *  - Backend machinery changes: traces bake in monitor identity,
 *    store-monitoring, and statement-trap sites; bindEnv() fingerprints
 *    the stream environment and clears the cache when it changes
 *    (session rebuilds create fresh backends, possibly at reused
 *    addresses).
 *
 * Trace bodies are shared_ptr-held so an executing trace survives its
 * own invalidation (an SMC store inside the running trace erases the
 * cache entry; the executor still holds a reference and side-exits at
 * the next op boundary).
 */

#ifndef DISE_JIT_TRACE_CACHE_HH
#define DISE_JIT_TRACE_CACHE_HH

#include <unordered_map>
#include <unordered_set>

#include "jit/trace.hh"
#include "mem/mainmem.hh"

namespace dise {

struct StreamEnv;

class TraceCache : public CodeWatcher
{
  public:
    explicit TraceCache(MainMemory &mem);
    ~TraceCache() override;

    TraceCache(const TraceCache &) = delete;
    TraceCache &operator=(const TraceCache &) = delete;

    TraceJitConfig &config() { return cfg_; }
    const TraceJitConfig &config() const { return cfg_; }

    /**
     * Adopt the stream environment traces will run under. A different
     * fingerprint (new monitor, changed statement-trap set, toggled
     * store monitoring) invalidates every cached trace.
     */
    void bindEnv(const StreamEnv &env);

    /**
     * Trace starting at @p pc and valid under @p tableVersion, or null.
     * Stale entries are evicted on sight.
     */
    TraceRef lookup(Addr pc, uint64_t tableVersion);

    /**
     * Count a taken backward transfer to @p target (or a side-exit
     * landing there). Returns true once the target is hot and holds no
     * valid trace — the caller should start recording at @p target.
     */
    bool noteBackEdge(Addr target, uint64_t tableVersion);

    /** Install a finished trace (runs the suppression pass, marks its
     *  code pages for write invalidation). */
    void insert(std::shared_ptr<Trace> t);

    void invalidateAll();

    /**
     * Advances whenever a code write invalidates traces. The executor
     * samples it at trace entry and exits after any store that moved
     * it — the remainder of the trace may be stale.
     */
    uint64_t writeEpoch() const { return writeEpoch_; }

    /** CodeWatcher: a write hit a page holding trace-body code. */
    void onCodeWrite(uint64_t frame) override;

    const TraceCacheStats &stats() const { return stats_; }
    TraceCacheStats &stats() { return stats_; }
    size_t size() const { return traces_.size(); }

  private:
    void evict(Addr startPc);
    void suppressRedundant(Trace &t) const;

    MainMemory &mem_;
    TraceJitConfig cfg_;
    std::unordered_map<Addr, TraceRef> traces_;
    /** Page frame -> start PCs of traces with body code in that frame. */
    std::unordered_map<uint64_t, std::unordered_set<Addr>> byFrame_;
    /** Backward-transfer target -> taken count (profiling). */
    std::unordered_map<Addr, unsigned> hotness_;
    uint64_t writeEpoch_ = 0;
    uint64_t envSig_ = 0;
    bool envBound_ = false;
    /** Whether the bound environment has a DebugMonitor (suppression
     *  may then never elide trap instructions). */
    bool envMonitored_ = false;
    TraceCacheStats stats_;
};

} // namespace dise

#endif // DISE_JIT_TRACE_CACHE_HH
