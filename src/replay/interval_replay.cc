#include "replay/interval_replay.hh"

#include <algorithm>
#include <thread>

#include "common/logging.hh"
#include "debug/debugger.hh"
#include "debug/target.hh"
#include "obs/trace.hh"
#include "replay/checkpoint.hh"

namespace dise {

IntervalReplay::IntervalReplay(TimeTravel &tt, DebugTarget &live,
                               DebugBackend &liveBackend,
                               const ReplayLog &log,
                               ReplicaFactory factory)
    : tt_(tt), live_(live), liveBackend_(liveBackend), log_(log),
      factory_(std::move(factory))
{
    DISE_ASSERT(factory_, "IntervalReplay needs a replica factory");
    const auto &cps = tt_.checkpoints();
    DISE_ASSERT(!cps.empty(), "no checkpoints to replay from");
    // Cut the checkpoint list into kPieces contiguous ranges of
    // near-equal length; the last range runs to the live position.
    size_t pieces =
        std::max<size_t>(1, std::min<size_t>(kPieces, cps.size()));
    for (size_t p = 0; p < pieces; ++p) {
        size_t lo = p * cps.size() / pieces;
        size_t hi = (p + 1) * cps.size() / pieces;
        Interval iv;
        iv.cpFrom = lo;
        iv.cpTo = hi;
        iv.fromTime = cps[lo].time;
        iv.fromInsts = cps[lo].appInsts;
        iv.toTime = hi < cps.size() ? cps[hi].time : tt_.time();
        plan_.push_back(iv);
    }
}

std::unique_ptr<IntervalReplay::Pool>
IntervalReplay::makePool() const
{
    return std::unique_ptr<Pool>(new Pool(*this));
}

// ----------------------------------------------------------------- pool

IntervalReplay::Pool::Pool(const IntervalReplay &owner) : owner_(owner)
{
}

bool
IntervalReplay::Pool::drive(std::unique_ptr<Worker> &lane,
                            uint64_t maxUops)
{
    bool claimed = false;
    if (!lane) {
        std::lock_guard<std::mutex> lk(mu_);
        if (next_ == owner_.plan_.size())
            return true;
        lane.reset(new Worker(owner_, owner_.plan_[next_++]));
        claimed = true;
    }
    try {
        // Materializing the start state is its own unit of work.
        if (claimed) {
            lane->prepare();
        } else if (lane->step(maxUops)) {
            std::lock_guard<std::mutex> lk(mu_);
            done_.push_back(lane->interval_);
            lane.reset();
        }
    } catch (const std::exception &e) {
        std::lock_guard<std::mutex> lk(mu_);
        if (error_.empty())
            error_ = "range [" + std::to_string(lane->interval_.cpFrom) +
                     "," + std::to_string(lane->interval_.cpTo) +
                     "): " + e.what();
        lane.reset();
    }
    return false;
}

// --------------------------------------------------------------- worker

IntervalReplay::Worker::Worker(const IntervalReplay &owner, Interval iv)
    : owner_(owner), interval_(iv)
{
}

IntervalReplay::Worker::~Worker() = default;

void
IntervalReplay::Worker::applyProduction(const Intervention &iv)
{
    DiseEngine &engine = target_->engine;
    size_t journalIdx = nextIntervention_; // caller positions us
    switch (iv.kind) {
      case InterventionKind::AddProduction:
        journalIds_[journalIdx] = engine.addProduction(iv.production);
        break;
      case InterventionKind::RemoveProduction: {
        // An in-session production is identified through its
        // AddProduction record (ids are replica-local); a pre-session
        // one (prepare-hook installed) by its stable table slot.
        ProductionId id = iv.addIndex >= 0
                              ? journalIds_[iv.addIndex]
                              : engine.idAt(iv.slot);
        DISE_ASSERT(id, "interval replay cannot re-target a logged "
                        "production removal");
        engine.removeProduction(id);
        break;
      }
      case InterventionKind::ToolEnable: {
        // Re-arm at the exact recorded slots so the replica's pattern
        // table matches the live session's slot-for-slot.
        std::string err;
        DebugBackend &backend = debugger_->backend();
        bool ok = backend.tools().enable(
            *target_, iv.toolName, iv.toolConfig,
            backend.usesDiseProductions(), &err, nullptr,
            iv.toolSlots.empty() ? nullptr : &iv.toolSlots);
        DISE_ASSERT(ok, "interval replay could not re-enable tool '",
                    iv.toolName, "': ", err);
        break;
      }
      case InterventionKind::ToolDisable: {
        std::string err;
        bool ok = debugger_->backend().tools().disable(
            *target_, iv.toolName, &err);
        DISE_ASSERT(ok, "interval replay could not disable tool '",
                    iv.toolName, "': ", err);
        break;
      }
      default:
        break;
    }
}

void
IntervalReplay::Worker::prepare()
{
    TRACE_SPAN("replay", "ireplay.prepare");
    DISE_ASSERT(!stream_, "worker already prepared");
    if (!owner_.factory_(target_, debugger_))
        throw std::runtime_error(
            "interval replay: machinery rebuild failed");
    DebugBackend &backend = debugger_->backend();
    const auto &cps = owner_.tt_.checkpoints();
    const Checkpoint &cp = cps[interval_.cpFrom];

    // Materialize the memory image at the starting checkpoint: clone
    // the live image (read-only on the live side) and roll it back
    // through the undo chain, newest interval first.
    target_->mem.copyImageFrom(owner_.live_.mem);
    target_->mem.applyUndo(owner_.live_.mem.pendingUndo());
    for (size_t j = cps.size() - 1; j > interval_.cpFrom; --j)
        target_->mem.applyUndo(cps[j - 1].undo);

    // Interventions before the interval: pokes are baked into the
    // materialized image and register file; engine-table mutations and
    // tool enables are host state the checkpoint does not carry, so
    // re-apply them — before restoreHost, which refills the tool-state
    // blobs the checkpoint captured into the re-enabled tools.
    const auto &ivs = owner_.log_.interventions;
    journalIds_.assign(ivs.size(), 0);
    while (nextIntervention_ < ivs.size() &&
           ivs[nextIntervention_].time < interval_.fromTime) {
        const Intervention &iv = ivs[nextIntervention_];
        if (iv.kind == InterventionKind::AddProduction ||
            iv.kind == InterventionKind::RemoveProduction ||
            iv.kind == InterventionKind::ToolEnable ||
            iv.kind == InterventionKind::ToolDisable)
            applyProduction(iv);
        ++nextIntervention_;
    }

    // Registers, backend host state, and the sink prefix as of the
    // checkpoint; the event-list prefix is adopted from the live
    // session so per-kind indices and digests line up.
    target_->arch = cp.arch;
    backend.restoreHost(cp.host);
    backend.adoptEvents(
        {owner_.liveBackend_.watchEvents().begin(),
         owner_.liveBackend_.watchEvents().begin() + cp.host.watchEvents},
        {owner_.liveBackend_.breakEvents().begin(),
         owner_.liveBackend_.breakEvents().begin() + cp.host.breakEvents},
        {owner_.liveBackend_.protectionEvents().begin(),
         owner_.liveBackend_.protectionEvents().begin() +
             cp.host.protectionEvents});
    target_->sink.text = owner_.live_.sink.text.substr(0, cp.sinkText);
    target_->sink.marks.assign(
        owner_.live_.sink.marks.begin(),
        owner_.live_.sink.marks.begin() + cp.sinkMarks);
    target_->engine.invalidateMatchCaches();
    target_->mem.invalidatePagePointerCaches();

    time_ = cp.time;
    appInsts_ = cp.appInsts;
    seenWatch_ = cp.host.watchEvents;
    seenBreak_ = cp.host.breakEvents;
    seenProt_ = cp.host.protectionEvents;
    markCursor_ = seenWatch_ + seenBreak_ + seenProt_;
    seenRecorded_ = backend.eventsRecorded();

    interval_.startDigest = stateDigest(*target_, backend);
    stream_ = std::make_unique<InstStream>(target_->arch, target_->mem,
                                           &target_->engine,
                                           backend.streamEnv(*target_));
}

void
IntervalReplay::Worker::pollEvents()
{
    DebugBackend &backend = debugger_->backend();
    if (backend.eventsRecorded() == seenRecorded_)
        return;
    seenRecorded_ = backend.eventsRecorded();

    const auto &marks = owner_.log_.marks;
    auto note = [&](EventKind kind, size_t &seen, size_t now,
                    auto pcOf) {
        for (; seen < now; ++seen) {
            DISE_ASSERT(markCursor_ < marks.size(),
                        "interval replay fired an event beyond the "
                        "recorded timeline at t=", time_);
            const EventMark &rec = marks[markCursor_];
            DISE_ASSERT(rec.kind == kind &&
                            rec.index == static_cast<int>(seen) &&
                            rec.time == time_ && rec.pc == pcOf(seen),
                        "interval replay diverged from the recorded "
                        "event timeline at t=", time_);
            ++markCursor_;
            ++interval_.marksVerified;
        }
    };
    note(EventKind::Watch, seenWatch_, backend.watchEvents().size(),
         [&](size_t i) { return backend.watchEvents()[i].pc; });
    note(EventKind::Break, seenBreak_, backend.breakEvents().size(),
         [&](size_t i) { return backend.breakEvents()[i].pc; });
    note(EventKind::Protection, seenProt_,
         backend.protectionEvents().size(),
         [&](size_t i) { return backend.protectionEvents()[i].pc; });
}

bool
IntervalReplay::Worker::step(uint64_t maxUops)
{
    TRACE_SPAN("replay", "ireplay.step");
    DISE_ASSERT(stream_, "step() before prepare()");
    const auto &ivs = owner_.log_.interventions;
    const auto &cps = owner_.tt_.checkpoints();
    uint64_t budget = maxUops ? maxUops : ~uint64_t{0};

    auto applyHere = [&] {
        while (nextIntervention_ < ivs.size() &&
               ivs[nextIntervention_].time == time_) {
            const Intervention &iv = ivs[nextIntervention_];
            switch (iv.kind) {
              case InterventionKind::PokeMemory:
                target_->mem.write(iv.addr, iv.size, iv.value);
                break;
              case InterventionKind::PokeRegister:
                target_->arch.write(iv.reg, iv.value);
                break;
              default:
                applyProduction(iv);
                break;
            }
            ++nextIntervention_;
        }
    };

    while (time_ < interval_.toTime && budget) {
        applyHere();
        // Cached traces run up to the range end, the next logged
        // intervention (strictly ahead once applyHere() ran) or the
        // budget, whichever is nearest; a trace exits right after a
        // µop that fired an event, so pollEvents() still checks each
        // mark at its exact time.
        uint64_t cap = std::min(interval_.toTime - time_, budget);
        if (nextIntervention_ < ivs.size())
            cap = std::min(cap, ivs[nextIntervention_].time - time_);
        InstStream::TracedCounts c = stream_->runTraced(
            cap, 0, /*appStopAtBoundary=*/false);
        if (c.uops) {
            time_ += c.uops;
            appInsts_ += c.appInsts;
            interval_.uopsReplayed += c.uops;
            interval_.tracedUops += c.uops;
            budget -= c.uops;
        } else {
            // No trace applies here: interpret one µop.
            MicroOp &op = scratchOp_;
            DISE_ASSERT(stream_->next(op),
                        "interval replay halted before its interval "
                        "end (t=", time_, ", wanted t=",
                        interval_.toTime, ")");
            ++time_;
            ++interval_.uopsReplayed;
            if (op.isAppInst())
                ++appInsts_;
            --budget;
        }
        pollEvents();
    }
    if (time_ < interval_.toTime)
        return false; // budget expired; call step() again

    // The final chunk ends at the live position, where same-time
    // interventions were applied live (and are part of the live
    // digest). Interior chunks leave them to their successor's
    // first µop, matching the checkpoint-restore convention.
    if (interval_.cpTo == cps.size())
        applyHere();
    interval_.endDigest = stateDigest(*target_, debugger_->backend());
    return true;
}

// ----------------------------------------------------------- execution

IntervalReplay::Report
IntervalReplay::run(unsigned workers) const
{
    Pool pool(*this);
    auto lane = [&] {
        std::unique_ptr<Worker> w;
        while (!pool.drive(w, kSliceUops)) {
        }
    };
    // More threads than ranges could never all find work.
    unsigned n = std::max<size_t>(
        1, std::min<size_t>(workers ? workers : 1, plan_.size()));
    if (n == 1) {
        lane();
    } else {
        std::vector<std::thread> threads;
        for (unsigned i = 0; i < n; ++i)
            threads.emplace_back(lane);
        for (auto &t : threads)
            t.join();
    }
    Report r = finish(pool);
    r.workers = n;
    return r;
}

IntervalReplay::Report
IntervalReplay::finish(Pool &pool) const
{
    std::lock_guard<std::mutex> lk(pool.mu_);
    Report r = stitch(std::move(pool.done_));
    if (!pool.error_.empty()) {
        r.ok = false;
        r.error = pool.error_;
    }
    return r;
}

IntervalReplay::Report
IntervalReplay::stitch(std::vector<Interval> results) const
{
    Report r;
    r.intervals = std::move(results);
    std::sort(r.intervals.begin(), r.intervals.end(),
              [](const Interval &a, const Interval &b) {
                  return a.cpFrom < b.cpFrom;
              });
    r.liveDigest = stateDigest(live_, liveBackend_);
    r.ok = !r.intervals.empty();
    const size_t cpCount = tt_.checkpoints().size();
    for (size_t i = 0; i < r.intervals.size(); ++i) {
        const Interval &iv = r.intervals[i];
        r.uopsReplayed += iv.uopsReplayed;
        r.tracedUops += iv.tracedUops;
        r.marksVerified += iv.marksVerified;
        // Full coverage: the sorted chunks must tile the checkpoint
        // list exactly.
        size_t wantFrom = i == 0 ? 0 : r.intervals[i - 1].cpTo;
        if (iv.cpFrom != wantFrom) {
            r.ok = false;
            if (r.error.empty())
                r.error = "coverage gap before checkpoint " +
                          std::to_string(iv.cpFrom);
        }
        // Deterministic stitch: each chunk must end exactly where
        // the next one starts.
        if (i + 1 < r.intervals.size() &&
            iv.endDigest != r.intervals[i + 1].startDigest) {
            r.ok = false;
            if (r.error.empty())
                r.error = "stitch mismatch between chunks " +
                          std::to_string(i) + " and " +
                          std::to_string(i + 1);
        }
    }
    if (!r.intervals.empty()) {
        if (r.intervals.back().cpTo != cpCount) {
            r.ok = false;
            if (r.error.empty())
                r.error = "coverage ends before the live position";
        }
        r.finalDigest = r.intervals.back().endDigest;
        if (r.finalDigest != r.liveDigest) {
            r.ok = false;
            if (r.error.empty())
                r.error = "final digest differs from the live session";
        }
    }
    return r;
}

} // namespace dise
