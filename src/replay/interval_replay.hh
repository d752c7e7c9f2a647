/**
 * @file
 * Interval-parallel replay: reconstruct the explored timeline as
 * independent checkpoint intervals on share-nothing replicas.
 *
 * A debugged run's history is already cut into checkpoint intervals by
 * the TimeTravel controller. Because the simulator is deterministic and
 * every checkpoint captures the full replay input set (registers,
 * backend host state, and — via the memory undo chain — the exact
 * memory image), each interval can be re-executed *independently*: a
 * worker gets a fresh replica of the session's machinery (same program,
 * same specs, same instrumentation), is positioned at its interval's
 * starting checkpoint, and replays forward to the interval's end,
 * verifying every re-fired event against the recorded marks and
 * re-applying logged interventions at their exact stream times.
 *
 * Fanned out across workers this turns an O(trace) serial
 * reconstruction into O(trace/workers) wall time; the results are
 * stitched deterministically by digest: chunk k's end-state digest
 * must equal the start-state digest of chunk k+1, and the final
 * chunk's end digest must equal the live session's digest
 * bit-for-bit. Any mismatch means determinism was broken — the whole
 * point of running the reconstruction.
 *
 * The cut is fixed: the checkpoint list is split once into eight
 * ranges of near-equal checkpoint count, and a shared Pool hands the
 * next unclaimed range to whichever worker asks, never splitting one.
 * Equal-checkpoint ranges are already balanced, and every extra range
 * pays a full replica build (factory rebuild, image clone, undo-chain
 * walk), so a finer or dynamic cut only adds set-up. Eight ranges
 * give seven interior digest stitches on top of the final one.
 *
 * Workers read the live session (checkpoints, marks, interventions,
 * memory pages) strictly read-only, so any number of them may run
 * concurrently while the session is quiescent. Each worker's replay is
 * itself preemptible (step() takes a µop budget), so a job scheduler
 * can interleave interval jobs with other sessions' work.
 */

#ifndef DISE_REPLAY_INTERVAL_REPLAY_HH
#define DISE_REPLAY_INTERVAL_REPLAY_HH

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "replay/time_travel.hh"

namespace dise {

class Debugger;

class IntervalReplay
{
  public:
    /**
     * Builds a share-nothing replica of the debugged session's
     * machinery: fresh loaded target + attached backend with the
     * identical spec set and initial state. Returns false when the
     * machinery cannot be rebuilt.
     */
    using ReplicaFactory =
        std::function<bool(std::unique_ptr<DebugTarget> &target,
                           std::unique_ptr<Debugger> &debugger)>;

    /** One executed chunk (a run of checkpoint intervals). */
    struct Interval
    {
        size_t cpFrom = 0;      ///< first checkpoint of the range
        size_t cpTo = 0;        ///< one past the last checkpoint
        uint64_t fromTime = 0;  ///< starting checkpoint's µop position
        uint64_t toTime = 0;    ///< end position (next cp, or live now)
        uint64_t fromInsts = 0;
        uint64_t startDigest = 0; ///< digest of the materialized start
        uint64_t endDigest = 0;   ///< digest after replaying to toTime
        uint64_t uopsReplayed = 0;
        size_t marksVerified = 0; ///< recorded events re-fired on cue
    };

    /** Stitched outcome of a full reconstruction. */
    struct Report
    {
        bool ok = false;
        std::string error;
        unsigned workers = 0;
        /** Always 0: ranges are never split in flight. Kept because
         *  the perfbench layer waterfall reads it. */
        uint64_t steals = 0;
        uint64_t liveDigest = 0;  ///< the session's own digest
        uint64_t finalDigest = 0; ///< last chunk's end digest
        uint64_t uopsReplayed = 0;
        size_t marksVerified = 0;
        std::vector<Interval> intervals; ///< sorted by cpFrom
    };

    IntervalReplay(TimeTravel &tt, DebugTarget &live,
                   DebugBackend &liveBackend, const ReplayLog &log,
                   ReplicaFactory factory);

    size_t intervalCount() const { return plan_.size(); }

    class Pool;

    /**
     * A share-nothing worker for one claimed range, driven by its
     * Pool. prepare() builds the replica and materializes the range's
     * start state (throws on a factory failure or a start-state
     * mismatch); step() replays a bounded chunk and returns true once
     * the range is complete (throws on replay divergence). Workers of
     * different ranges are fully independent.
     */
    class Worker
    {
      public:
        ~Worker();

      private:
        friend class Pool;
        Worker(const IntervalReplay &owner, Interval iv);

        void prepare();
        bool step(uint64_t maxUops);
        void applyProduction(const Intervention &iv);
        void pollEvents();

        const IntervalReplay &owner_;
        Interval interval_;

        std::unique_ptr<DebugTarget> target_;
        std::unique_ptr<Debugger> debugger_;
        std::unique_ptr<InstStream> stream_;

        uint64_t time_ = 0;
        uint64_t appInsts_ = 0;
        size_t nextIntervention_ = 0;
        size_t markCursor_ = 0;
        size_t seenWatch_ = 0, seenBreak_ = 0, seenProt_ = 0;
        uint64_t seenRecorded_ = 0;
        /** Live-log intervention index → replica engine production id
         *  (productions are re-created with fresh ids on a replica). */
        std::vector<ProductionId> journalIds_;
        MicroOp scratchOp_{};
    };

    /**
     * The shared queue of the fixed cut one reconstruction drains.
     * Each lane (a thread, or a scheduler job) calls drive() until it
     * returns true; a lane holds at most one replica at a time. Safe
     * to call from any number of lanes at once.
     */
    class Pool
    {
      public:
        /**
         * Advance @p lane by one bounded unit of work: claim the next
         * unclaimed range and prepare its replica, or replay up to
         * @p maxUops µops of the claimed range and record it once
         * complete. A range whose replica fails or diverges is
         * recorded as an error (and leaves a coverage gap). Returns
         * true once no range is left to claim.
         */
        bool drive(std::unique_ptr<Worker> &lane, uint64_t maxUops);

      private:
        friend class IntervalReplay;
        explicit Pool(const IntervalReplay &owner);

        const IntervalReplay &owner_;
        std::mutex mu_;
        size_t next_ = 0; ///< next unclaimed range of the plan
        std::vector<Interval> done_;
        std::string error_;
    };

    /** A fresh pool over the fixed cut. */
    std::unique_ptr<Pool> makePool() const;

    /**
     * Reconstruct the whole timeline on @p workers threads (1 =
     * serial; at most one per range) and stitch. Worker errors land
     * in the report, never throw.
     */
    Report run(unsigned workers) const;

    /** Stitch a drained pool's chunks: digest chain, coverage, and
     *  the final digest against the live session. A range that failed
     *  is reported ahead of the gap it leaves. */
    Report finish(Pool &pool) const;

  private:
    /** Ranges the checkpoint list is cut into. */
    static constexpr unsigned kPieces = 8;
    /** µops per step() in run() (preemption grain). */
    static constexpr uint64_t kSliceUops = 250000;

    Report stitch(std::vector<Interval> results) const;

    TimeTravel &tt_;
    DebugTarget &live_;
    DebugBackend &liveBackend_;
    const ReplayLog &log_;
    ReplicaFactory factory_;
    std::vector<Interval> plan_;
};

} // namespace dise

#endif // DISE_REPLAY_INTERVAL_REPLAY_HH
