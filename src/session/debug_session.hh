/**
 * @file
 * The session-oriented debugger front end.
 *
 * A DebugSession owns one debugged target — the Program, the
 * DebugTarget it is loaded into, the Debugger (backend machinery), and
 * the TimeTravel controller — and exposes every capability through the
 * typed Request/Response protocol (session/protocol.hh), so the same
 * session can be driven by linked-in C++ (examples, harness), by a
 * wire peer via handleEncoded(), or by a stock GDB through the RSP
 * bridge (src/rsp/).
 *
 * Lifecycle: watchpoints, breakpoints, and the backend choice are
 * collected while the session is in its configuring phase; the backend
 * installs its machinery at the first resume request (or an explicit
 * Attach), honoring the install-before-load contract every technique
 * in the paper requires, while still letting a remote client connect,
 * inspect registers/memory, and place watchpoints before anything
 * runs. Post-attach watch/break removal mutes delivery (the machinery
 * stays installed); re-adding an identical spec unmutes it, which is
 * exactly the insert/remove cycle stock GDB performs around every
 * continue.
 *
 * All user-visible occurrences are delivered through the ordered
 * EventQueue (watch hits, break hits, protection faults,
 * checkpoint/restore notices, attach/halt), replacing the pull-style
 * event vectors of the pre-session front end. Re-traveling across a
 * stretch of the timeline re-announces its events: the queue narrates
 * the debugger's traversal.
 */

#ifndef DISE_SESSION_DEBUG_SESSION_HH
#define DISE_SESSION_DEBUG_SESSION_HH

#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "debug/debugger.hh"
#include "debug/target.hh"
#include "persist/image.hh"
#include "replay/interval_replay.hh"
#include "session/event_queue.hh"
#include "session/protocol.hh"

namespace dise {

struct SessionOptions
{
    DebuggerOptions debugger{};
    TimeTravelConfig timeTravel{};
    /**
     * Called on the fresh DebugTarget before the backend installs and
     * the program loads — the hook point for non-debugging DISE use
     * (custom instrumentation productions, engine configuration).
     */
    std::function<void(DebugTarget &)> prepare;
};

class DebugSession
{
  public:
    explicit DebugSession(Program program, SessionOptions opts = {});
    ~DebugSession();

    DebugSession(const DebugSession &) = delete;
    DebugSession &operator=(const DebugSession &) = delete;

    /** @name Wire entry points */
    ///@{
    /** Execute one request; never throws on bad input. */
    Response handle(const Request &req);
    /** Decode, handle, and re-encode (one line in, one line out). */
    std::string handleEncoded(const std::string &line);
    ///@}

    /** @name Configuration (typed) */
    ///@{
    bool selectBackend(BackendKind kind);
    /** Register a new spec or re-arm a muted identical one. Before
     *  attach the spec is simply collected; after attach a *new* spec
     *  rebuilds the machinery from the initial state and replays the
     *  timeline (logged pokes included) back to the current position,
     *  so a gdb `Z` packet after `c` just works. Returns the watch
     *  index, or -1 when the backend cannot implement the enlarged set
     *  (the original session is left untouched) or the target advanced
     *  through a non-replayable batch run. */
    int setWatch(const WatchSpec &spec);
    int setBreak(const BreakSpec &spec);
    /** Mute delivery (stops and queue events). Indices stay stable;
     *  re-adding the identical spec re-arms the same slot. */
    bool removeWatch(int index);
    bool removeBreak(int index);
    bool watchMuted(int index) const;
    ///@}

    /** @name Attachment */
    ///@{
    /** Install the backend and load the target (idempotent). Returns
     *  false when the technique cannot implement the request. */
    bool attach();
    /** Safe to poll from another thread (the server's stats roll-up):
     *  it turns true only once the attached machinery is committed. */
    bool
    attached() const
    {
        return attached_.load(std::memory_order_acquire);
    }
    bool attachFailed() const { return attachFailed_; }
    ///@}

    /** @name Execution (checkpointed functional session) */
    ///@{
    StopInfo cont();
    /** cont() bounded to @p maxInsts application instructions: stops
     *  with reason Step when the quantum expires before any unmuted
     *  event. The job scheduler's forward slicing primitive. */
    StopInfo contSlice(uint64_t maxInsts);
    StopInfo stepi(uint64_t n = 1);
    StopInfo runToEnd();
    StopInfo reverseContinue();
    StopInfo reverseStep(uint64_t n = 1);
    StopInfo runToEvent(uint64_t n);
    ///@}

    /** @name Sliced reverse execution (job-scheduler primitives)
     * A reverse verb as a preemptible job: reverseBegin() performs the
     * cheap restore; reverseSlice() replays bounded quanta until done.
     * Mute filtering matches the one-shot verbs (a muted event restarts
     * the travel transparently). The one-shot verbs above are
     * begin + slice(0) loops. */
    ///@{
    StopInfo reverseBegin(RequestKind kind, uint64_t count, bool &done);
    StopInfo reverseSlice(uint64_t maxInsts, bool &done);
    ///@}

    /** @name Sliced post-attach spec addition (rebuild-replay job)
     * setWatchBegin/setBreakBegin validate, rebuild the machinery with
     * the enlarged set, and prepare the deterministic replay back to
     * the current position; rebuildStep() advances that replay in
     * bounded quanta. Returns the spec index (or -1: refused, session
     * untouched); when @p done comes back false, drive rebuildStep()
     * to completion before issuing other verbs. A replay that cannot
     * reach the old position (the rebuilt timeline diverges from the
     * recorded one) also ends in a refusal: lastRefusal() says why,
     * the edit is rolled back, the index is void, and the session is
     * back on its old machinery at its old position. setWatch()/
     * setBreak() are begin + step(0) loops and return -1 then. */
    ///@{
    int setWatchBegin(const WatchSpec &spec, bool &done);
    int setBreakBegin(const BreakSpec &spec, bool &done);
    bool rebuildStep(uint64_t maxInsts);
    bool rebuildActive() const { return rebuild_.active; }
    ///@}

    /**
     * Interval-parallel reconstruction of the explored timeline on
     * share-nothing replicas (replay/interval_replay.hh): every
     * checkpoint interval is replayed independently and the results
     * are stitched by digest. The returned report's finalDigest must
     * equal digest() bit-for-bit — the determinism proof a client can
     * ask for over the wire (replay-verify).
     */
    IntervalReplay::Report verifyReplay(unsigned workers);
    /** The underlying plan, for callers that schedule the interval
     *  workers themselves (the server drives its pool from scheduler
     *  jobs). Null when there is no replayable timeline. */
    std::unique_ptr<IntervalReplay> beginIntervalReplay();

    /** Position-only stop record for the current state (reports an
     *  interrupted job's landing point). */
    StopInfo currentStop();

    /** @name Durable sessions (hibernation / resurrection)
     * exportImage() captures everything persist::SessionImage records —
     * the spec set and the replay log, not memory pages. A fresh
     * session resurrects from such an image by re-attaching identical
     * machinery, injecting the recorded log, and seek-replaying from
     * time zero to the persisted µop position (checkpoints re-taken,
     * marks re-verified on the way); resurrectBegin/resurrectStep is
     * the sliced form of that replay. Completion verifies the landing
     * position, the state digest, and the checkpoint-chain positions
     * against the image — any mismatch detaches the session and
     * reports a typed error rather than admitting divergent state. */
    ///@{
    /** Fill @p img from the live session (id/workload left to the
     *  caller). Refuses — with a reason in @p err — while a rebuild,
     *  resurrection, or sliced travel is in flight, or after a
     *  non-replayable batch run. */
    bool exportImage(persist::SessionImage &img,
                     std::string *err = nullptr);
    /** Start resurrecting this (freshly constructed) session from
     *  @p img. On true with @p done unset, drive resurrectStep(). */
    bool resurrectBegin(const persist::SessionImage &img, bool &done,
                        std::string *err = nullptr);
    bool resurrectStep(uint64_t maxInsts, bool &done,
                       std::string *err = nullptr);
    bool resurrectActive() const { return resurrect_.active; }
    ///@}

    /** Why the last refused verb (setWatch/setBreak rebuild) was
     *  refused — a typed, actionable message naming the offending
     *  journal entry when a rebuild has no instrumentation-invariant
     *  replay. Empty when nothing was refused. */
    const std::string &lastRefusal() const { return refusal_; }

    /** @name One-shot batch runs (no time-travel session)
     * The harness' cycle-level measurement path. Mutually exclusive
     * with the checkpointed verbs above: once a TimeTravel session
     * exists the target may only advance through it. */
    ///@{
    RunStats runCycles(TimingConfig cfg = {}, RunLimits limits = {});
    FuncResult runFunctional(uint64_t maxAppInsts = 0);
    ///@}

    /** @name Debug tools (src/tools/)
     * Enable/disable are logged interventions: replay re-arms the tool
     * at the same stream position, reverse travel unwinds it, and a
     * resurrected session re-derives identical tool state. */
    ///@{
    bool toolEnable(const std::string &name,
                    const std::vector<std::pair<std::string,
                                                std::string>> &cfg,
                    std::string *err = nullptr);
    bool toolDisable(const std::string &name, std::string *err = nullptr);
    /** Registered tools, comma-joined; enabled ones carry a '*'. */
    std::string toolList() const;
    /** Report text + serialized-state digest of an enabled tool. */
    bool toolReport(const std::string &name, std::string *out,
                    uint64_t *digest, std::string *err = nullptr);
    ///@}

    /** @name State access
     * Reads work before attach (against a loaded preview of the
     * unmodified image); writes before attach are recorded and
     * re-applied when the real target comes up. Register index 32
     * addresses the PC. */
    ///@{
    std::vector<uint64_t> readRegisters();
    uint64_t readRegister(unsigned index);
    bool writeRegister(unsigned index, uint64_t value);
    std::vector<uint8_t> readMemory(Addr addr, size_t len);
    bool writeMemory(Addr addr, unsigned size, uint64_t value);
    ///@}

    /** Number of registers a session exposes (32 integer + pc). */
    static constexpr unsigned NumSessionRegs = NumIntRegs + 1;
    static constexpr unsigned PcRegIndex = NumIntRegs;

    /** @name Introspection */
    ///@{
    SessionStats stats() const;
    EventQueue &events() { return events_; }
    const Program &program() const { return program_; }
    BackendKind backendKind() const { return opts_.debugger.backend; }
    bool detached() const { return detached_; }
    /** Digest of the user-visible state (parity tests). */
    uint64_t digest();
    /** Timeline events discovered so far. */
    size_t eventCount() const;
    const TimeTravel::Stats *travelStats() const;
    ///@}

    /** @name Escape hatches (in-process callers only) */
    ///@{
    DebugTarget &target();
    Debugger &debugger();
    TimeTravel &timeTravel();
    ///@}

    bool detach();

  private:
    struct PendingPoke
    {
        bool isReg = false;
        unsigned reg = 0;
        Addr addr = 0;
        unsigned size = 8;
        uint64_t value = 0;
    };

    /** Machinery for one attach: freshly built (not yet committed), or
     *  the live one a rebuild set aside. */
    struct Machinery
    {
        std::unique_ptr<DebugTarget> target;
        std::unique_ptr<Debugger> debugger;
        std::vector<int> watchInstalled;
        std::vector<int> breakInstalled;
        std::vector<int> installedWatchOwner;
        std::vector<int> installedBreakOwner;
    };

    /** Event-queue cursors into one machinery's timeline; a commit of
     *  new machinery resets them, so everything a rebuild's replay
     *  re-crosses is re-announced (the queue narrates traversal). */
    struct Announced
    {
        /** Circular-scan hint into the replay log's mark list (used to
         *  stamp announced events with their mark positions). */
        size_t markCursor = 0;
        // Backend event-list positions already announced.
        size_t watch = 0;
        size_t brk = 0;
        size_t prot = 0;
        uint64_t checkpoints = 0;
        uint64_t restores = 0;
        uint64_t pagesRestored = 0;
        bool halt = false;
    };

    /** The spec lists as they stood before an edit (a post-attach
     *  addition only appends specs or unmutes them). */
    struct SpecLists
    {
        size_t watches = 0;
        size_t breaks = 0;
        std::set<int> mutedWatches;
        std::set<int> mutedBreaks;
    };

    /** Session indices of the specs one machinery build installs,
     *  ascending (install order). */
    struct SpecSet
    {
        std::vector<int> watches;
        std::vector<int> breaks;
    };

    /** An event park the rebuild-replay must re-find on the rebuilt
     *  timeline: the parked-on mark's instrumentation-invariant
     *  identity (kind, pc, appInsts, owner, address) plus its absolute
     *  occurrence index among identical marks of the old timeline.
     *  `seen`/`reached` are replay-side scan state. */
    struct ParkGoal
    {
        EventMark mark{};
        int sessIdx = -1;
        Addr addr = 0;
        int occurrence = 0;
        int seen = 0;
        bool reached = false;
    };

    /** Resumable state of a post-attach rebuild-replay. */
    struct RebuildPlan
    {
        bool active = false;
        bool hadTravel = false;
        bool parkedAtEvent = false;
        bool parkedAtHalt = false;
        uint64_t targetInsts = 0;
        /** The current (outermost) park, when parkedAtEvent. */
        ParkGoal finalPark{};
        /** Interior event parks holding journal entries, time order. */
        std::vector<ParkGoal> parks;
        std::vector<Intervention> journal;
        /** Journal-parallel: index into parks of the interior park the
         *  entry was recorded at, or -1 (boundary / final park). */
        std::vector<int> journalPark;
        size_t nextJournal = 0;
        /** Mark scan cursor over the rebuilt timeline; every scanned
         *  mark feeds every goal's occurrence count, so goals sharing
         *  an identity stay consistent. */
        size_t scanned = 0;
        /** What the rebuild replaced: the live machinery, its queue
         *  cursors, and the spec lists before the edit. Kept until the
         *  replay is back at the old position; a replay that cannot get
         *  there puts them back (rebuildRefuse). */
        Machinery prev;
        Announced prevAnnounced;
        SpecLists prevSpecs;
    };

    /** Position/digest anchors of an in-flight resurrection replay. */
    struct ResurrectPlan
    {
        bool active = false;
        uint64_t time = 0;
        uint64_t appInsts = 0;
        uint64_t digest = 0;
        std::vector<persist::CheckpointMeta> checkpoints;
        /** Per-tool state digests the replay must reproduce. */
        std::vector<std::pair<std::string, uint64_t>> toolDigests;
    };

    DebugTarget &ensurePeekTarget();
    bool resurrectFinish(std::string *err);
    bool ensureAttached();
    TimeTravel &ensureTravel();
    /** Every unmuted spec: what an attach or a rebuild installs.
     *  Interval-replay replicas and resurrection install the live
     *  machinery's set instead (installedWatchOwner_ and
     *  installedBreakOwner_), removed-and-muted specs included. */
    SpecSet unmutedSpecs() const;
    bool buildMachinery(Machinery &m, const SpecSet &specs);
    bool attachWith(const SpecSet &specs);
    void commitMachinery(Machinery &m);
    SpecLists specLists() const;
    void restoreSpecLists(const SpecLists &before);
    bool rebuildBegin(const SpecLists &before, bool &done);
    void rebuildRefuse(const std::string &why);
    void applyJournalEntry(const Intervention &iv);
    void markDetail(const EventMark &mk, int &sessIdx, Addr &addr) const;
    StopInfo restartMutedReverse(StopInfo stop, bool &done);
    void pumpEvents();
    const EventMark *findMark(EventKind kind, int index);
    bool stopIsMuted(const StopInfo &stop) const;
    Response dispatch(const Request &req);

    Program program_;
    SessionOptions opts_;

    // Configuring-phase state.
    std::vector<WatchSpec> pendingWatches_;
    std::vector<BreakSpec> pendingBreaks_;
    std::vector<PendingPoke> pendingPokes_;

    // Live-phase state.
    std::unique_ptr<DebugTarget> target_;
    std::unique_ptr<Debugger> debugger_;
    /** target_ != nullptr, published with release order. */
    std::atomic<bool> attached_{false};
    /** Loaded-but-undebugged image for pre-attach peeks. */
    std::unique_ptr<DebugTarget> preview_;
    bool attachFailed_ = false;
    bool detached_ = false;
    /** A cycle-level / functional batch run advanced the target
     *  outside the replayable timeline: no post-attach rebuild. */
    bool batchRan_ = false;

    std::set<int> mutedWatches_;
    std::set<int> mutedBreaks_;
    /** Specs muted before attach are never installed; these maps
     *  translate between stable session indices and the backend's
     *  installed indices (-1 = not installed). */
    std::vector<int> watchInstalled_;
    std::vector<int> breakInstalled_;
    std::vector<int> installedWatchOwner_;
    std::vector<int> installedBreakOwner_;

    RebuildPlan rebuild_;
    ResurrectPlan resurrect_;
    /** See lastRefusal(). */
    std::string refusal_;
    /** Verb of the in-flight sliced reverse (mute-restart policy). */
    RequestKind sliceVerb_ = RequestKind::Ping;

    EventQueue events_;
    Announced announced_;
    /** Tool findings already announced (kept across rebuilds). */
    size_t announcedToolFindings_ = 0;
};

} // namespace dise

#endif // DISE_SESSION_DEBUG_SESSION_HH
