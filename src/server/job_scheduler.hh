/**
 * @file
 * The execution scheduler of the multi-session server, generalized
 * from the old RunQueue into a preemptible **Job** model.
 *
 * Every long-running operation — a forward resume, a reverse replay
 * (reverse-continue / reverse-step / run-to-event), a post-attach
 * rebuild-replay, an interval-parallel replay worker — is a Job: a
 * closure the scheduler calls one bounded µop-slice at a time. A pool
 * of W worker threads pops jobs from a FIFO ready queue, runs exactly
 * one slice, and requeues unfinished jobs at the back, so S contending
 * jobs round-robin — each advances one slice per scheduling round and
 * no job occupies a worker end-to-end. A reverse verb that replays a
 * million instructions therefore interleaves with a forward-stepping
 * session even on a single worker, which is the property that keeps
 * the server interactive under heavy replay load.
 *
 * Submission is either synchronous (drive(): submit + wait — the shape
 * every blocking protocol verb uses) or asynchronous (driveAsync():
 * completion callback, powering RSP non-stop `%Stop` notifications and
 * wire event push). Jobs are interruptible between slices: cancel()
 * finalizes the job with the "interrupted" error at its next
 * scheduling point, which the server layers translate into a stop at
 * the session's current (valid, deterministic) intermediate position —
 * a gdb Ctrl-C against a runaway continue.
 *
 * Sessions are share-nothing; a job needs no lock but its caller's
 * exclusive session access, which the submitting connection delegates
 * to the scheduler for the job's lifetime (the old RunQueue pinned the
 * session to its connection thread instead — with a worker pool the
 * session moves between workers at slice boundaries, each handoff
 * ordered by the scheduler mutex). Teardown mid-run stays a
 * slice-boundary affair: session jobs re-check the closing flag before
 * every slice.
 */

#ifndef DISE_SERVER_JOB_SCHEDULER_HH
#define DISE_SERVER_JOB_SCHEDULER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "persist/fault_injector.hh"
#include "server/session_manager.hh"

namespace dise::server {

struct JobSchedulerOptions
{
    /** Worker threads (execution slots); 0 = hardware concurrency. */
    unsigned workers = 0;
    /** Application instructions per slice. */
    uint64_t sliceInsts = 50000;
    /** When set, consulted at every slice boundary (Site::Slice); a
     *  hit fails the job cleanly — the session stays at its last
     *  slice-boundary position, exactly like a cancel. Chaos-testing
     *  hook; not owned. */
    persist::FaultInjector *faults = nullptr;
};

class JobScheduler
{
  public:
    /**
     * One bounded slice of a preemptible job. Returns true when the
     * job completed; throw to fail it (the scheduler catches and
     * reports the message).
     */
    using SliceFn = std::function<bool(uint64_t sliceInsts)>;

    struct JobResult
    {
        bool ok = true;
        /** "interrupted" when cancelled; an exception message on
         *  failure. */
        std::string error;
        bool interrupted() const { return error == "interrupted"; }
    };

    /** Completion callback; runs on a worker thread, outside locks. */
    using DoneFn = std::function<void(const JobResult &)>;

    /** Shared handle to one submitted job. */
    class Ticket
    {
        friend class JobScheduler;
        SliceFn fn;
        DoneFn onDone;
        std::atomic<bool> cancelled{false};
        bool finished = false; ///< guarded by the scheduler mutex
        JobResult result;
        /** obs::nowNs() at submit/requeue; feeds the queue-wait
         *  histogram when a worker dequeues the job. */
        uint64_t enqueuedNs = 0;
    };
    using TicketPtr = std::shared_ptr<Ticket>;

    /** Async exec-verb completion: the final stop, or an error. */
    using ExecDoneFn = std::function<void(
        bool ok, bool interrupted, const StopInfo &stop,
        const std::string &err)>;

    explicit JobScheduler(JobSchedulerOptions opts = {});
    ~JobScheduler();

    JobScheduler(const JobScheduler &) = delete;
    JobScheduler &operator=(const JobScheduler &) = delete;

    /** Is @p kind a resume verb drive() accepts? */
    static bool isExecVerb(RequestKind kind);

    /** @name Generic preemptible jobs */
    ///@{
    TicketPtr submit(SliceFn fn, DoneFn onDone = {});
    /** Block until @p t finishes. False (with @p err) on failure. */
    bool wait(const TicketPtr &t, std::string *err = nullptr);
    /** Finalize @p t with the "interrupted" result at its next
     *  scheduling point (a job mid-slice finishes the slice first). */
    void cancel(const TicketPtr &t);
    /** submit + wait. */
    bool run(SliceFn fn, std::string *err = nullptr);
    ///@}

    /** @name Session resume verbs */
    ///@{
    /**
     * Run @p kind to completion on @p s as a preemptible job,
     * blocking the calling thread. The caller must have exclusive use
     * of the session (hold s.mu for shared sessions) and delegates it
     * to the scheduler until this returns. False with @p err when the
     * session is destroyed mid-run, the backend cannot attach, or the
     * verb is not a resume verb; @p out holds the final stop
     * otherwise.
     */
    bool drive(ManagedSession &s, RequestKind kind, uint64_t count,
               StopInfo &out, std::string *err = nullptr);
    /**
     * The non-blocking form: returns once the job is queued; @p done
     * fires from a worker when it finishes (an interrupted job
     * reports the session's current position as its stop). Returns
     * nullptr (with @p err) when the verb cannot start. The returned
     * ticket can be cancel()ed. @p sp keeps the session alive for the
     * job's duration.
     */
    TicketPtr driveAsync(ManagedSessionPtr sp, RequestKind kind,
                         uint64_t count, ExecDoneFn done,
                         std::string *err = nullptr);
    ///@}

    /** Fail every queued job and join the workers (idempotent). */
    void stop();

    unsigned workers() const { return workers_; }
    uint64_t sliceInsts() const { return slice_; }
    uint64_t slicesRun() const
    {
        return slices_.load(std::memory_order_relaxed);
    }
    uint64_t jobsCompleted() const
    {
        return jobsDone_.load(std::memory_order_relaxed);
    }

  private:
    /** Shared state of one in-flight exec verb. */
    struct ExecState;

    SliceFn makeExecSlice(ManagedSessionPtr sp, RequestKind kind,
                          uint64_t count,
                          std::shared_ptr<ExecState> st);
    bool precheck(ManagedSession &s, RequestKind kind,
                  std::string *err);
    void workerLoop();
    void finalize(std::unique_lock<std::mutex> &lk, const TicketPtr &t,
                  JobResult res);

    std::mutex mu_;
    std::condition_variable cv_;     ///< workers: ready work / stop
    std::condition_variable doneCv_; ///< waiters: job finished
    std::deque<TicketPtr> ready_;
    std::vector<std::thread> pool_;
    bool stopping_ = false;

    unsigned workers_;
    uint64_t slice_;
    persist::FaultInjector *faults_;
    std::atomic<uint64_t> slices_{0};
    std::atomic<uint64_t> jobsDone_{0};
};

} // namespace dise::server

#endif // DISE_SERVER_JOB_SCHEDULER_HH
