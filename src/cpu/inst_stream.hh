/**
 * @file
 * The correct-path instruction-stream oracle.
 *
 * InstStream fetches from functional memory, runs the DISE engine at
 * "decode" (expanding triggers into replacement sequences, tracking
 * DISEPC, entering/leaving DISE-called functions), executes every
 * correct-path instruction against architectural state in program
 * order, and invokes the installed DebugMonitor at the points a real
 * debugger would observe: store execution, statement boundaries, and
 * trap instructions.
 *
 * Both the simple functional CPU and the cycle-level timing CPU consume
 * this stream; the timing model replays it with costs (functional-first
 * simulation in the SimpleScalar tradition).
 *
 * Hot-path structure: fetched instructions are decoded once into a
 * per-page predecoded µop cache that also remembers the DISE-match
 * outcome for each PC (validated against the engine's generation
 * counter). Self-modifying and debugger-rewritten code stays correct
 * because the stream registers as a CodeWatcher with MainMemory: any
 * write to a page holding cached decodes drops that page. Replacement
 * sequences are shared, memoized vectors from the engine rather than
 * per-trigger allocations.
 */

#ifndef DISE_CPU_INST_STREAM_HH
#define DISE_CPU_INST_STREAM_HH

#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cpu/arch_state.hh"
#include "cpu/microop.hh"
#include "dise/engine.hh"
#include "mem/mainmem.hh"

namespace dise {

class TraceCache;
struct Trace;

/** Destination for syscall output and test marks. */
class OutputSink
{
  public:
    virtual ~OutputSink() = default;
    virtual void putChar(char c) { text += c; }
    virtual void
    putInt(int64_t v)
    {
        text += std::to_string(v);
    }
    virtual void mark(uint64_t v) { marks.push_back(v); }

    std::string text;
    std::vector<uint64_t> marks;
};

/** Hooks and configuration for the stream (installed by backends). */
struct StreamEnv
{
    DebugMonitor *monitor = nullptr;
    /** Call monitor->onStore for every store (VM / HW-reg backends). */
    bool monitorStores = false;
    /** Statement-boundary PCs that trigger monitor->onStatement. */
    const std::unordered_set<Addr> *stmtTraps = nullptr;
    OutputSink *sink = nullptr;
    /** Armed µop tap for debug tools (asan, memtrace, ...). */
    UopObserver *observer = nullptr;
    /** Trace cache for the hot path (owned by the DebugTarget; null
     *  disables both trace recording and dispatch). */
    TraceCache *jit = nullptr;
    /**
     * The monitor's monotonic event counter
     * (DebugBackend::eventsRecorded). Trace execution samples it after
     * every monitor callback and side-exits the moment an event is
     * recorded, so event parks land at the exact µop the interpreter
     * would park at. Monitored ops are not recorded into traces without
     * it.
     */
    const uint64_t *events = nullptr;
};

/** Syscall codes understood by the simulated OS layer. */
enum : int64_t {
    SysExit = 0,
    SysPutChar = 1,
    SysPutInt = 2,
    SysMark = 3,
    /** Allocator hint: a0 = block base, a1 = size (tools observe it). */
    SysAllocHint = 4,
    /** Allocator hint: a0 = block base being freed. */
    SysFreeHint = 5,
};

class InstStream : public CodeWatcher
{
  public:
    InstStream(ArchState &arch, MainMemory &mem, DiseEngine *engine,
               StreamEnv env = {});
    ~InstStream() override;

    InstStream(const InstStream &) = delete;
    InstStream &operator=(const InstStream &) = delete;

    /**
     * Produce the next correct-path micro-op (functionally executed).
     * Returns false once the program has halted or faulted.
     */
    bool next(MicroOp &op);

    /** µops retired by one runTraced() call, split the way the callers
     *  account them. */
    struct TracedCounts
    {
        uint64_t uops = 0;
        uint64_t appInsts = 0;
        uint64_t appLoads = 0;
        uint64_t appStores = 0;
    };

    /**
     * Execute cached traces from the current position for as long as
     * they keep applying. Budgets are relative and 0 means unlimited;
     * with @p appStopAtBoundary the app-instruction budget only stops
     * execution before a raw op (TimeTravel's stop discipline), without
     * it before any op once met (FuncCpu's). Returns zero counts when
     * no trace applies here (halted, mid-expansion, observer armed, jit
     * disabled, or no valid trace at this PC) — the caller falls back
     * to next(). On return, stream state is exactly what interpreting
     * the retired µops would have produced.
     */
    TracedCounts runTraced(uint64_t maxUops, uint64_t maxAppInsts,
                           bool appStopAtBoundary);

    const StreamEnv &env() const { return env_; }

    bool halted() const { return halted_; }
    HaltReason haltReason() const { return haltReason_; }
    const std::string &faultMessage() const { return faultMsg_; }

    /** True while expanding a replacement sequence (tests). */
    bool inExpansion() const { return expanding_; }
    /** True while executing a DISE-called function (tests). */
    bool inHandler() const { return inHandler_; }

    /** CodeWatcher: a write hit a page with cached decodes. */
    void onCodeWrite(uint64_t frame) override;

    /** Cached µop pages currently held (tests). */
    size_t uopCachedPages() const { return uopPages_.size(); }

  private:
    /** One predecoded fetch slot (per 4-byte-aligned PC). */
    struct UopEntry
    {
        enum : uint8_t { Empty = 0, Legal, Illegal };
        uint8_t decoded = Empty;
        /** Cached matchSlot() outcome; -1 = no production matches. */
        int32_t matchSlot = -1;
        /** Engine generation the match was computed under. */
        uint64_t matchGen = ~uint64_t{0};
        Inst inst{};
    };
    struct UopPage
    {
        std::array<UopEntry, PageBytes / 4> entries;
    };

    void execute(MicroOp &op);
    void fault(MicroOp &op, const std::string &msg);
    void finishExpansionIfDone();
    UopEntry *uopEntryFor(Addr pc);
    void beginExpansion(int slot, const Inst &trigger, Addr pc);

    // Trace recording/execution (jit/trace_exec.cc).
    enum class TraceExit { End, Budget, Guard, Event };
    TraceExit execTrace(const Trace &t, TracedCounts &c, uint64_t maxUops,
                        uint64_t maxAppInsts, bool appStopAtBoundary);
    void jitAfterOp(const MicroOp &op);
    void jitRecordOp(const MicroOp &op);
    void jitStartRecording(Addr startPc);
    void jitFinalize();

    ArchState &arch_;
    MainMemory &mem_;
    DiseEngine *engine_;
    StreamEnv env_;

    // Predecoded µop cache.
    std::unordered_map<uint64_t, std::unique_ptr<UopPage>> uopPages_;
    uint64_t uopFrame_ = ~uint64_t{0}; ///< one-entry page cache
    UopPage *uopPage_ = nullptr;

    // Expansion state. The shared Expansion is self-contained (insts +
    // trigger-copy flags), so nothing here dangles if the pattern table
    // mutates while an expansion is in flight.
    bool expanding_ = false;
    DiseEngine::ExpansionRef seq_;
    size_t seqIdx_ = 0;
    Inst trigger_{};
    Addr trigPc_ = 0;
    Addr seqNextPc_ = 0;

    // DISE-called function state.
    bool inHandler_ = false;
    struct SavedCtx
    {
        DiseEngine::ExpansionRef seq;
        size_t idx = 0;
        Inst trigger{};
        Addr trigPc = 0;
        Addr nextPc = 0;
    } saved_;

    bool halted_ = false;
    HaltReason haltReason_ = HaltReason::None;
    std::string faultMsg_;
    uint64_t seqCounter_ = 0;

    /** Pattern-table slot of the expansion in flight (trace recording
     *  needs it to rebuild the side-exit context). */
    int curSlot_ = -1;
    /** Distinct-expansion counter; disambiguates two expansions of the
     *  same production at the same PC while recording. */
    uint64_t expId_ = 0;

    /** The last trace side-exited on a guard: profile where the next
     *  raw op lands as a candidate trace head. */
    bool jitSideExit_ = false;

    // In-flight trace recording.
    struct JitRec
    {
        bool active = false;
        std::shared_ptr<Trace> trace;
        /** Ops recorded up to the last raw-op boundary (trim point). */
        size_t lastBoundaryOps = 0;
        Addr lastBoundaryPc = 0;
        /** expId_ of the expansion the newest ctx entry belongs to. */
        uint64_t lastExpId = 0;
    } jitRec_;
};

} // namespace dise

#endif // DISE_CPU_INST_STREAM_HH
