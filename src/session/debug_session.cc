#include "session/debug_session.hh"

#include <cstdlib>
#include <sstream>

#include "common/logging.hh"
#include "obs/trace.hh"
#include "replay/checkpoint.hh"

namespace dise {

namespace {

bool
sameWatch(const WatchSpec &a, const WatchSpec &b)
{
    return a.kind == b.kind && a.addr == b.addr && a.size == b.size &&
           a.length == b.length && a.conditional == b.conditional &&
           a.predConst == b.predConst;
}

bool
sameBreak(const BreakSpec &a, const BreakSpec &b)
{
    return a.pc == b.pc && a.conditional == b.conditional &&
           a.condAddr == b.condAddr && a.condSize == b.condSize &&
           a.condConst == b.condConst;
}

} // namespace

DebugSession::DebugSession(Program program, SessionOptions opts)
    : program_(std::move(program)), opts_(std::move(opts))
{
}

DebugSession::~DebugSession() = default;

// ------------------------------------------------------- configuration

bool
DebugSession::selectBackend(BackendKind kind)
{
    if (attached())
        return false;
    opts_.debugger.backend = kind;
    attachFailed_ = false; // a different technique may succeed
    return true;
}

int
DebugSession::setWatchBegin(const WatchSpec &spec, bool &done)
{
    done = true;
    refusal_.clear();
    const SpecLists before = specLists();
    for (size_t i = 0; i < pendingWatches_.size(); ++i) {
        if (sameWatch(pendingWatches_[i], spec)) {
            int idx = static_cast<int>(i);
            mutedWatches_.erase(idx);
            // A spec muted before attach was never installed; arming
            // it now takes a machinery rebuild like any new spec.
            if (attached() && watchInstalled_[i] < 0)
                return rebuildBegin(before, done) ? idx : -1;
            return idx;
        }
    }
    // Post-attach addition: rebuild from the initial state with the
    // enlarged set and replay to the current position. On refusal the
    // original session is untouched.
    pendingWatches_.push_back(spec);
    int idx = static_cast<int>(pendingWatches_.size()) - 1;
    if (attached())
        return rebuildBegin(before, done) ? idx : -1;
    return idx;
}

int
DebugSession::setWatch(const WatchSpec &spec)
{
    bool done = false;
    int idx = setWatchBegin(spec, done);
    while (idx >= 0 && !done)
        done = rebuildStep(0);
    return refusal_.empty() ? idx : -1;
}

int
DebugSession::setBreakBegin(const BreakSpec &spec, bool &done)
{
    done = true;
    refusal_.clear();
    const SpecLists before = specLists();
    for (size_t i = 0; i < pendingBreaks_.size(); ++i) {
        if (sameBreak(pendingBreaks_[i], spec)) {
            int idx = static_cast<int>(i);
            mutedBreaks_.erase(idx);
            if (attached() && breakInstalled_[i] < 0)
                return rebuildBegin(before, done) ? idx : -1;
            return idx;
        }
    }
    pendingBreaks_.push_back(spec);
    int idx = static_cast<int>(pendingBreaks_.size()) - 1;
    if (attached())
        return rebuildBegin(before, done) ? idx : -1;
    return idx;
}

int
DebugSession::setBreak(const BreakSpec &spec)
{
    bool done = false;
    int idx = setBreakBegin(spec, done);
    while (idx >= 0 && !done)
        done = rebuildStep(0);
    return refusal_.empty() ? idx : -1;
}

bool
DebugSession::removeWatch(int index)
{
    if (index < 0 || static_cast<size_t>(index) >= pendingWatches_.size())
        return false;
    // Removal mutes in every phase (never erases): indices previously
    // handed to clients stay stable, and re-adding the identical spec
    // re-arms the same slot.
    mutedWatches_.insert(index);
    return true;
}

bool
DebugSession::removeBreak(int index)
{
    if (index < 0 || static_cast<size_t>(index) >= pendingBreaks_.size())
        return false;
    mutedBreaks_.insert(index);
    return true;
}

bool
DebugSession::watchMuted(int index) const
{
    return mutedWatches_.count(index) > 0;
}

// ---------------------------------------------------------- attachment

DebugTarget &
DebugSession::ensurePeekTarget()
{
    if (attached())
        return *target_;
    if (!preview_) {
        preview_ = std::make_unique<DebugTarget>(program_);
        preview_->load();
        for (const PendingPoke &p : pendingPokes_) {
            if (p.isReg) {
                if (p.reg == PcRegIndex)
                    preview_->arch.pc = p.value;
                else
                    preview_->arch.write(ir(p.reg), p.value);
            } else {
                preview_->mem.write(p.addr, p.size, p.value);
            }
        }
    }
    return *preview_;
}

DebugSession::SpecSet
DebugSession::unmutedSpecs() const
{
    // Specs removed before attach are never installed — a deleted
    // breakpoint must not make a capability-limited backend (hwreg,
    // vm) refuse the whole session.
    SpecSet set;
    for (size_t i = 0; i < pendingWatches_.size(); ++i)
        if (!mutedWatches_.count(static_cast<int>(i)))
            set.watches.push_back(static_cast<int>(i));
    for (size_t i = 0; i < pendingBreaks_.size(); ++i)
        if (!mutedBreaks_.count(static_cast<int>(i)))
            set.breaks.push_back(static_cast<int>(i));
    return set;
}

bool
DebugSession::buildMachinery(Machinery &m, const SpecSet &specs)
{
    m.target = std::make_unique<DebugTarget>(program_);
    if (opts_.prepare)
        opts_.prepare(*m.target);
    m.debugger = std::make_unique<Debugger>(*m.target, opts_.debugger);
    // The maps keep session indices stable against the compacted
    // installed list.
    m.watchInstalled.assign(pendingWatches_.size(), -1);
    m.breakInstalled.assign(pendingBreaks_.size(), -1);
    for (int i : specs.watches) {
        m.watchInstalled[i] = m.debugger->watch(pendingWatches_[i]);
        m.installedWatchOwner.push_back(i);
    }
    for (int i : specs.breaks) {
        m.breakInstalled[i] = m.debugger->breakAt(pendingBreaks_[i]);
        m.installedBreakOwner.push_back(i);
    }
    // Configuration-phase pokes fold into the initial state between
    // load and prime, so watchpoint shadows snapshot the poked image
    // (and they precede the time-travel session's time-zero
    // checkpoint). Kept across rebuilds: every re-attach re-applies
    // the same initial state.
    auto applyPokes = [this](DebugTarget &t) {
        for (const PendingPoke &p : pendingPokes_) {
            if (p.isReg) {
                if (p.reg == PcRegIndex)
                    t.arch.pc = p.value;
                else
                    t.arch.write(ir(p.reg), p.value);
            } else {
                t.mem.write(p.addr, p.size, p.value);
            }
        }
    };
    return m.debugger->attach(applyPokes);
}

void
DebugSession::commitMachinery(Machinery &m)
{
    // Order matters: the outgoing debugger references the outgoing
    // target, so it must die first.
    debugger_ = std::move(m.debugger);
    target_ = std::move(m.target);
    watchInstalled_ = std::move(m.watchInstalled);
    breakInstalled_ = std::move(m.breakInstalled);
    installedWatchOwner_ = std::move(m.installedWatchOwner);
    installedBreakOwner_ = std::move(m.installedBreakOwner);
    attachFailed_ = false;
    preview_.reset();

    // The fresh backend has empty event lists; everything re-crossed
    // during a replay is re-announced (the queue narrates traversal).
    announced_ = Announced{};

    SessionEvent ev;
    ev.kind = SessionEventKind::Attached;
    ev.pc = target_->arch.pc;
    events_.push(ev);
    attached_.store(true, std::memory_order_release);
}

bool
DebugSession::attach()
{
    if (attached())
        return true;
    return attachWith(unmutedSpecs());
}

bool
DebugSession::attachWith(const SpecSet &specs)
{
    DISE_ASSERT(!detached_, "session already detached");
    Machinery m;
    if (!buildMachinery(m, specs)) {
        attachFailed_ = true;
        return false;
    }
    commitMachinery(m);
    return true;
}

/**
 * The stable identity of a mark across a machinery rebuild:
 * session-level spec index (owner-translated — stable across
 * re-installation) plus the event's data address. (kind, pc, appInsts)
 * alone is ambiguous when a newly added spec fires on the very same
 * instruction as the park event.
 */
void
DebugSession::markDetail(const EventMark &mk, int &sessIdx,
                         Addr &addr) const
{
    const DebugBackend &backend =
        const_cast<Debugger &>(*debugger_).backend();
    sessIdx = -1;
    addr = 0;
    if (mk.index < 0)
        return;
    size_t i = static_cast<size_t>(mk.index);
    switch (mk.kind) {
      case EventKind::Watch:
        if (i < backend.watchEvents().size()) {
            const WatchEvent &we = backend.watchEvents()[i];
            sessIdx = we.wpIndex >= 0 &&
                              static_cast<size_t>(we.wpIndex) <
                                  installedWatchOwner_.size()
                          ? installedWatchOwner_[we.wpIndex]
                          : we.wpIndex;
            addr = we.addr;
        }
        break;
      case EventKind::Break:
        if (i < backend.breakEvents().size()) {
            const BreakEvent &be = backend.breakEvents()[i];
            sessIdx = be.bpIndex >= 0 &&
                              static_cast<size_t>(be.bpIndex) <
                                  installedBreakOwner_.size()
                          ? installedBreakOwner_[be.bpIndex]
                          : be.bpIndex;
        }
        break;
      case EventKind::Protection:
        if (i < backend.protectionEvents().size())
            addr = backend.protectionEvents()[i].addr;
        break;
    }
}

/**
 * Re-apply one logged intervention on the rebuilt machinery. Journal
 * entries are re-recorded in order, so the new log's index of an
 * already-replayed entry equals its journal index — which is how a
 * RemoveProduction re-targets the fresh engine id its AddProduction
 * was assigned; a pre-session production is re-found by its stable
 * pattern-table slot (the rebuilt engine ran the same prepare hook).
 */
void
DebugSession::applyJournalEntry(const Intervention &iv)
{
    TimeTravel &tt = debugger_->timeTravel();
    switch (iv.kind) {
      case InterventionKind::PokeMemory:
        tt.pokeMemory(iv.addr, iv.size, iv.value);
        break;
      case InterventionKind::PokeRegister:
        tt.pokeRegister(iv.reg, iv.value);
        break;
      case InterventionKind::AddProduction:
        tt.addProduction(iv.production);
        break;
      case InterventionKind::RemoveProduction: {
        const auto &replayed = debugger_->replayLog().interventions;
        ProductionId id =
            iv.addIndex >= 0 &&
                    static_cast<size_t>(iv.addIndex) < replayed.size()
                ? replayed[iv.addIndex].engineId
                : target_->engine.idAt(iv.slot);
        DISE_ASSERT(id, "rebuild replay cannot re-target a logged "
                        "production removal");
        tt.removeProduction(id);
        break;
      }
      case InterventionKind::ToolEnable: {
        std::string terr;
        bool ok = tt.enableTool(iv.toolName, iv.toolConfig, &terr);
        DISE_ASSERT(ok, "rebuild replay could not re-enable tool '",
                    iv.toolName, "': ", terr);
        break;
      }
      case InterventionKind::ToolDisable: {
        std::string terr;
        bool ok = tt.disableTool(iv.toolName, &terr);
        DISE_ASSERT(ok, "rebuild replay could not disable tool '",
                    iv.toolName, "': ", terr);
        break;
      }
    }
}

DebugSession::SpecLists
DebugSession::specLists() const
{
    return {pendingWatches_.size(), pendingBreaks_.size(), mutedWatches_,
            mutedBreaks_};
}

void
DebugSession::restoreSpecLists(const SpecLists &before)
{
    pendingWatches_.erase(pendingWatches_.begin() + before.watches,
                          pendingWatches_.end());
    pendingBreaks_.erase(pendingBreaks_.begin() + before.breaks,
                         pendingBreaks_.end());
    mutedWatches_ = before.mutedWatches;
    mutedBreaks_ = before.mutedBreaks;
}

/**
 * Plan a post-attach rebuild-replay of the spec edit made since
 * @p before and perform its instantaneous part: capture the current
 * position's instrumentation-invariant identity and the intervention
 * journal, build fresh machinery with the edited spec set, and commit
 * it, setting the live machinery aside. The replay back to the
 * captured position is metered out by rebuildStep(); @p done tells
 * whether there is one. Returns false — the edit undone, the live
 * session untouched — when the target advanced through a
 * non-replayable batch run or the backend cannot implement the set.
 */
bool
DebugSession::rebuildBegin(const SpecLists &before, bool &done)
{
    // A batch cycle-level/functional run advanced the target outside
    // the replayable timeline: there is no position to rebuild to.
    if (batchRan_) {
        refusal_ = "rebuild refused: a batch cycle-level/functional "
                   "run advanced the target outside the replayable "
                   "timeline";
        restoreSpecLists(before);
        return false;
    }

    rebuild_ = RebuildPlan{};
    rebuild_.hadTravel = debugger_->timeTraveling();
    if (rebuild_.hadTravel) {
        TimeTravel &tt = debugger_->timeTravel();
        const ReplayLog &log = debugger_->replayLog();
        rebuild_.targetInsts = tt.appInsts();
        rebuild_.parkedAtHalt = tt.halted();
        // A session stopped on an event sits mid-instruction (inside
        // the detecting expansion), below app-instruction resolution.
        size_t cur = tt.eventsSoFar();
        // Build a park goal from the last mark at or before index
        // markIdx whose time is exactly @p time: the mark's identity
        // plus its absolute occurrence among identical earlier marks.
        auto makeGoal = [&](size_t markIdx) {
            ParkGoal g;
            g.mark = log.marks[markIdx];
            markDetail(g.mark, g.sessIdx, g.addr);
            for (size_t i = 0; i < markIdx; ++i) {
                const EventMark &mk = log.marks[i];
                if (mk.kind != g.mark.kind || mk.pc != g.mark.pc ||
                    mk.appInsts != g.mark.appInsts)
                    continue;
                int si = -1;
                Addr ad = 0;
                markDetail(mk, si, ad);
                if (si == g.sessIdx && ad == g.addr)
                    ++g.occurrence;
            }
            return g;
        };
        if (!rebuild_.parkedAtHalt && cur > 0 &&
            log.marks[cur - 1].time == tt.time()) {
            rebuild_.parkedAtEvent = true;
            rebuild_.finalPark = makeGoal(cur - 1);
        }
        for (size_t n = 0; n < log.interventions.size(); ++n) {
            const Intervention &iv = log.interventions[n];
            if (iv.time > tt.time())
                break; // truncated future
            // A poke recorded at an INTERIOR event park (the client
            // parked mid-expansion, poked, and then ran on) sits below
            // app-instruction resolution, so the replay must navigate
            // to it the way it navigates to the current park: by the
            // parked-on mark's identity and occurrence. Pokes at the
            // CURRENT park re-apply in phase 3, after that park is
            // re-found.
            int parkIdx = -1;
            if (iv.atEventPark &&
                !(rebuild_.parkedAtEvent && iv.time == tt.time())) {
                if (!rebuild_.parks.empty() &&
                    rebuild_.parks.back().mark.time == iv.time) {
                    // Another poke while parked at the same event.
                    parkIdx = static_cast<int>(rebuild_.parks.size()) - 1;
                } else {
                    size_t mi = log.marks.size();
                    for (size_t i = 0; i < log.marks.size(); ++i)
                        if (log.marks[i].time == iv.time)
                            mi = i; // last mark of the park's µop
                    DISE_ASSERT(mi < log.marks.size(),
                                "event-park intervention at t=",
                                iv.time, " has no event mark");
                    rebuild_.parks.push_back(makeGoal(mi));
                    parkIdx = static_cast<int>(rebuild_.parks.size()) - 1;
                }
            }
            rebuild_.journal.push_back(iv);
            rebuild_.journalPark.push_back(parkIdx);
        }
    }

    Machinery m;
    if (!buildMachinery(m, unmutedSpecs())) {
        refusal_ = std::string("rebuild refused: the ") +
                   backendName(backendKind()) +
                   " backend cannot implement the enlarged spec set";
        rebuild_ = RebuildPlan{};
        restoreSpecLists(before);
        return false;
    }
    if (!rebuild_.hadTravel) {
        // Nothing to replay; rebuild_ stays inactive.
        rebuild_ = RebuildPlan{};
        commitMachinery(m);
        done = true;
        return true;
    }

    rebuild_.prev.debugger = std::move(debugger_);
    rebuild_.prev.target = std::move(target_);
    rebuild_.prev.watchInstalled = std::move(watchInstalled_);
    rebuild_.prev.breakInstalled = std::move(breakInstalled_);
    rebuild_.prev.installedWatchOwner = std::move(installedWatchOwner_);
    rebuild_.prev.installedBreakOwner = std::move(installedBreakOwner_);
    rebuild_.prevAnnounced = announced_;
    rebuild_.prevSpecs = before;
    commitMachinery(m);
    debugger_->timeTravel(opts_.timeTravel);
    rebuild_.active = true;
    done = false;
    return true;
}

/**
 * Abandon a rebuild whose replay cannot reach the session's position:
 * put back the machinery, queue cursors and spec lists it set aside,
 * so the edit ends as a typed refusal and the session stands where it
 * stood. The queue narrates it as a re-attach of the old machinery.
 */
void
DebugSession::rebuildRefuse(const std::string &why)
{
    RebuildPlan plan = std::move(rebuild_);
    rebuild_ = RebuildPlan{};
    commitMachinery(plan.prev);
    announced_ = plan.prevAnnounced;
    restoreSpecLists(plan.prevSpecs);
    refusal_ = std::string("rebuild refused: the ") +
               backendName(backendKind()) + " backend's rebuilt timeline " +
               why;
}

/**
 * Advance the rebuild-replay by up to @p maxInsts application
 * instructions (0 = run to completion). A replay that cannot get back
 * (the rebuilt timeline halts early, runs past the position, or never
 * shows the parked-on event) is refused: rebuildRefuse() restores the
 * old session, and the call returns true. Stream positions (µops) shift
 * under different instrumentation, so the replay navigates by
 * instrumentation-invariant coordinates: journal entries are
 * re-applied at their application-instruction stamps (pokes recorded
 * *at* the original event park re-apply after the park is re-found),
 * and an event-position park is re-found as the corresponding event —
 * same (kind, pc, appInsts, owner, address) occurrence — of the
 * rebuilt timeline. The new spec's past hits materialize on the event
 * queue as the replay re-crosses them. Returns true when the session
 * is back at its position.
 */
bool
DebugSession::rebuildStep(uint64_t maxInsts)
{
    if (!rebuild_.active)
        return true;
    TimeTravel &tt = debugger_->timeTravel();
    uint64_t used = 0;
    auto budgetLeft = [&]() -> uint64_t {
        if (!maxInsts)
            return ~uint64_t{0};
        return maxInsts > used ? maxInsts - used : 0;
    };
    // Every helper below returns false when the budget expired first
    // or the replay was refused; rebuild_.active tells which.
    auto refuse = [&](const std::string &why) {
        rebuildRefuse(why);
        return false;
    };
    // Run exactly @p need instructions (bounded by the budget).
    auto boundedStepi = [&](uint64_t need) {
        while (need) {
            uint64_t n = std::min(need, budgetLeft());
            if (n == 0)
                return false;
            uint64_t before = tt.appInsts();
            tt.stepi(n);
            uint64_t ran = tt.appInsts() - before;
            if (ran == 0)
                return refuse("stopped at " +
                              std::to_string(tt.appInsts()) +
                              " insts, short of " +
                              std::to_string(rebuild_.targetInsts));
            used += ran;
            need -= std::min(need, ran);
        }
        return true;
    };

    // Feed every mark the replay has produced since the last scan to
    // every park goal. Matching marks only exist at a goal's own
    // instruction, and the single monotone cursor means goals sharing
    // an identity (two parks on the same instruction) count each mark
    // exactly once between them.
    auto scanMarks = [&]() {
        const auto &marks = debugger_->replayLog().marks;
        auto feed = [&](ParkGoal &g, const EventMark &mk) {
            if (g.reached || mk.kind != g.mark.kind ||
                mk.pc != g.mark.pc || mk.appInsts != g.mark.appInsts)
                return;
            int si = -1;
            Addr ad = 0;
            markDetail(mk, si, ad);
            if (si != g.sessIdx || ad != g.addr)
                return;
            if (g.seen++ == g.occurrence)
                g.reached = true;
        };
        for (; rebuild_.scanned < tt.eventsSoFar(); ++rebuild_.scanned) {
            const EventMark &mk = marks[rebuild_.scanned];
            for (ParkGoal &g : rebuild_.parks)
                feed(g, mk);
            if (rebuild_.parkedAtEvent)
                feed(rebuild_.finalPark, mk);
        }
    };
    // Run event to event until @p goal's occurrence shows up; the
    // replay then sits parked on that event's µop, exactly where the
    // original poke was recorded.
    auto runToPark = [&](ParkGoal &goal) {
        while (!goal.reached) {
            uint64_t chunk =
                std::min<uint64_t>(budgetLeft(), uint64_t{1} << 30);
            if (chunk == 0)
                return false;
            uint64_t before = tt.appInsts();
            StopInfo stop = tt.contTo(tt.appInsts() + chunk);
            used += tt.appInsts() - before;
            scanMarks();
            if (!goal.reached && stop.reason != StopReason::Event &&
                stop.reason != StopReason::Step) {
                std::ostringstream why;
                why << "never reached the parked-on event ("
                    << eventKindName(goal.mark.kind) << " at pc=0x"
                    << std::hex << goal.mark.pc << std::dec << ", "
                    << goal.mark.appInsts << " insts)";
                return refuse(why.str());
            }
        }
        return true;
    };

    // Phase 1: journal entries at their app-inst stamps — or, for
    // entries recorded at an interior event park, at that park's
    // re-found event. Entries recorded while parked on the final event
    // stop wait for phase 3.
    while (rebuild_.nextJournal < rebuild_.journal.size()) {
        const Intervention &iv =
            rebuild_.journal[rebuild_.nextJournal];
        int parkIdx = rebuild_.journalPark[rebuild_.nextJournal];
        if (iv.atEventPark && parkIdx < 0)
            break; // recorded at the final park: phase 3
        if (parkIdx >= 0) {
            if (!runToPark(rebuild_.parks[parkIdx]))
                return !rebuild_.active;
        } else if (iv.appInsts > tt.appInsts() &&
                   !boundedStepi(iv.appInsts - tt.appInsts())) {
            return !rebuild_.active;
        }
        applyJournalEntry(iv);
        ++rebuild_.nextJournal;
    }

    // Phase 2: navigate back to the captured position.
    if (rebuild_.parkedAtHalt) {
        while (!tt.halted()) {
            uint64_t chunk =
                std::min<uint64_t>(budgetLeft(), uint64_t{1} << 30);
            if (chunk == 0)
                return false;
            uint64_t before = tt.appInsts();
            tt.stepi(chunk);
            if (!tt.halted() && tt.appInsts() == before) {
                refuse("made no progress toward the halt");
                return true;
            }
            used += tt.appInsts() - before;
        }
    } else if (rebuild_.parkedAtEvent) {
        // Run to the final park's occurrence; the new spec's own hits
        // pass by (and get announced) on the way. (The owner
        // translation works on the NEW maps here; session indices are
        // stable.)
        if (!runToPark(rebuild_.finalPark))
            return !rebuild_.active;
    } else if (rebuild_.targetInsts > tt.appInsts()) {
        if (!boundedStepi(rebuild_.targetInsts - tt.appInsts()))
            return !rebuild_.active;
    }

    if (tt.appInsts() != rebuild_.targetInsts) {
        refuse("came back at " + std::to_string(tt.appInsts()) +
               " insts, not " + std::to_string(rebuild_.targetInsts));
        return true;
    }

    // Phase 3: pokes recorded at the re-found event park.
    while (rebuild_.nextJournal < rebuild_.journal.size())
        applyJournalEntry(rebuild_.journal[rebuild_.nextJournal++]);

    pumpEvents();
    // Drop the machinery set aside, debugger before the target it
    // references (assignment would go the other way round).
    rebuild_.prev.debugger.reset();
    rebuild_ = RebuildPlan{};
    return true;
}

bool
DebugSession::ensureAttached()
{
    return attach();
}

TimeTravel &
DebugSession::ensureTravel()
{
    DISE_ASSERT(ensureAttached(), "the ", backendName(backendKind()),
                " backend cannot implement this session's requests");
    return debugger_->timeTravel(opts_.timeTravel);
}

// ------------------------------------------------------ event delivery

const TimeTravel::Stats *
DebugSession::travelStats() const
{
    if (!debugger_ || !debugger_->timeTraveling())
        return nullptr;
    return &const_cast<Debugger &>(*debugger_).timeTravel().stats();
}

/**
 * Reconcile the queue with everything that happened during the last
 * operation: announce a restore if the timeline was rolled back, then
 * any newly discovered (or re-crossed) watch/break/protection events,
 * then checkpoint notices and halts.
 */
void
DebugSession::pumpEvents()
{
    if (!debugger_)
        return;
    DebugBackend &backend = debugger_->backend();
    const TimeTravel::Stats *ts = travelStats();
    uint64_t now = 0, insts = 0;
    bool halted = false;
    if (debugger_->timeTraveling()) {
        TimeTravel &tt = debugger_->timeTravel();
        now = tt.time();
        insts = tt.appInsts();
        halted = tt.halted();
    }

    if (ts && ts->restores > announced_.restores) {
        SessionEvent ev;
        ev.kind = SessionEventKind::Restore;
        ev.time = now;
        ev.appInsts = insts;
        ev.value = ts->pagesRestored - announced_.pagesRestored;
        events_.push(ev);
        announced_.restores = ts->restores;
        announced_.pagesRestored = ts->pagesRestored;
    }

    const auto &ws = backend.watchEvents();
    const auto &bs = backend.breakEvents();
    const auto &ps = backend.protectionEvents();
    // A restore rolled the lists back: later positions will be
    // re-announced if execution re-crosses them.
    announced_.watch = std::min(announced_.watch, ws.size());
    announced_.brk = std::min(announced_.brk, bs.size());
    announced_.prot = std::min(announced_.prot, ps.size());

    // Each announced event carries its OWN timeline position (the
    // recorded mark), not the position the announcement happens to be
    // made at — a runToEnd() that crosses five hits must deliver five
    // distinct stamps. Without a time-travel session there is no
    // stream position; the backend's detection sequence is the best
    // per-event stamp.
    bool hasTravel = debugger_->timeTraveling();
    auto sessionWatchIdx = [&](int installed) {
        return installed >= 0 &&
                       static_cast<size_t>(installed) <
                           installedWatchOwner_.size()
                   ? installedWatchOwner_[installed]
                   : installed;
    };
    auto sessionBreakIdx = [&](int installed) {
        return installed >= 0 &&
                       static_cast<size_t>(installed) <
                           installedBreakOwner_.size()
                   ? installedBreakOwner_[installed]
                   : installed;
    };
    for (; announced_.watch < ws.size(); ++announced_.watch) {
        const WatchEvent &we = ws[announced_.watch];
        int idx = sessionWatchIdx(we.wpIndex);
        if (mutedWatches_.count(idx))
            continue; // muted: consume the position, deliver nothing
        const EventMark *mark =
            hasTravel ? findMark(EventKind::Watch,
                                 static_cast<int>(announced_.watch))
                      : nullptr;
        SessionEvent ev;
        ev.kind = SessionEventKind::Watch;
        ev.time = mark ? mark->time : (hasTravel ? now : we.seq);
        ev.appInsts = mark ? mark->appInsts : insts;
        ev.pc = we.pc;
        ev.index = idx;
        ev.addr = we.addr;
        ev.oldValue = we.oldValue;
        ev.newValue = we.newValue;
        events_.push(ev);
    }
    for (; announced_.brk < bs.size(); ++announced_.brk) {
        const BreakEvent &be = bs[announced_.brk];
        int idx = sessionBreakIdx(be.bpIndex);
        if (mutedBreaks_.count(idx))
            continue;
        const EventMark *mark =
            hasTravel ? findMark(EventKind::Break,
                                 static_cast<int>(announced_.brk))
                      : nullptr;
        SessionEvent ev;
        ev.kind = SessionEventKind::Break;
        ev.time = mark ? mark->time : (hasTravel ? now : be.seq);
        ev.appInsts = mark ? mark->appInsts : insts;
        ev.pc = be.pc;
        ev.index = idx;
        events_.push(ev);
    }
    for (; announced_.prot < ps.size(); ++announced_.prot) {
        const ProtectionEvent &pe = ps[announced_.prot];
        const EventMark *mark =
            hasTravel ? findMark(EventKind::Protection,
                                 static_cast<int>(announced_.prot))
                      : nullptr;
        SessionEvent ev;
        ev.kind = SessionEventKind::Protection;
        ev.time = mark ? mark->time : now;
        ev.appInsts = mark ? mark->appInsts : insts;
        ev.pc = pe.pc;
        ev.addr = pe.addr;
        events_.push(ev);
    }

    // Tool findings ride the same ordered queue. The findings list
    // rolls back with the backend host state on restore, so (exactly
    // like the event lists above) re-crossing a stretch of the
    // timeline re-announces its findings.
    const auto &tfs = backend.tools().findings();
    announcedToolFindings_ = std::min(announcedToolFindings_, tfs.size());
    for (; announcedToolFindings_ < tfs.size();
         ++announcedToolFindings_) {
        const tools::ToolFinding &f = tfs[announcedToolFindings_];
        SessionEvent ev;
        ev.kind = SessionEventKind::ToolFinding;
        ev.time = now;
        ev.appInsts = insts;
        ev.pc = f.pc;
        ev.addr = f.addr;
        ev.value = f.value;
        ev.tool = f.tool;
        ev.detail = f.detail.empty() ? f.kind : f.kind + ": " + f.detail;
        events_.push(ev);
    }

    if (ts && ts->checkpointsTaken > announced_.checkpoints) {
        SessionEvent ev;
        ev.kind = SessionEventKind::Checkpoint;
        ev.time = now;
        ev.appInsts = insts;
        ev.value = ts->checkpointsTaken - announced_.checkpoints;
        events_.push(ev);
        announced_.checkpoints = ts->checkpointsTaken;
    }

    if (halted && !announced_.halt) {
        SessionEvent ev;
        ev.kind = SessionEventKind::Halted;
        ev.time = now;
        ev.appInsts = insts;
        events_.push(ev);
        announced_.halt = true;
    } else if (!halted) {
        announced_.halt = false; // reverse travel un-halted the target
    }
}

/**
 * The recorded mark for the @p index -th backend event of @p kind.
 * Announcements arrive in per-kind index order, so a circular scan
 * from the last hit position amortizes to O(1) per event.
 */
const EventMark *
DebugSession::findMark(EventKind kind, int index)
{
    const auto &marks = debugger_->replayLog().marks;
    if (marks.empty())
        return nullptr;
    if (announced_.markCursor >= marks.size())
        announced_.markCursor = 0;
    for (size_t n = 0; n < marks.size(); ++n) {
        size_t i = (announced_.markCursor + n) % marks.size();
        if (marks[i].kind == kind && marks[i].index == index) {
            announced_.markCursor = i + 1;
            return &marks[i];
        }
    }
    return nullptr;
}

bool
DebugSession::stopIsMuted(const StopInfo &stop) const
{
    if (stop.reason != StopReason::Event || !debugger_)
        return false;
    const DebugBackend &backend =
        const_cast<Debugger &>(*debugger_).backend();
    // Backend event records carry installed indices; translate to the
    // stable session index before consulting the mute set.
    size_t i = static_cast<size_t>(stop.mark.index);
    switch (stop.mark.kind) {
      case EventKind::Watch:
        if (i < backend.watchEvents().size()) {
            int installed = backend.watchEvents()[i].wpIndex;
            int idx = installed >= 0 &&
                              static_cast<size_t>(installed) <
                                  installedWatchOwner_.size()
                          ? installedWatchOwner_[installed]
                          : installed;
            return mutedWatches_.count(idx) > 0;
        }
        return false;
      case EventKind::Break:
        if (i < backend.breakEvents().size()) {
            int installed = backend.breakEvents()[i].bpIndex;
            int idx = installed >= 0 &&
                              static_cast<size_t>(installed) <
                                  installedBreakOwner_.size()
                          ? installedBreakOwner_[installed]
                          : installed;
            return mutedBreaks_.count(idx) > 0;
        }
        return false;
      case EventKind::Protection:
        return false;
    }
    return false;
}

// ----------------------------------------------------------- execution

StopInfo
DebugSession::cont()
{
    TimeTravel &tt = ensureTravel();
    StopInfo stop;
    do {
        stop = tt.cont();
        pumpEvents();
    } while (stop.reason == StopReason::Event && stopIsMuted(stop));
    return stop;
}

StopInfo
DebugSession::contSlice(uint64_t maxInsts)
{
    TimeTravel &tt = ensureTravel();
    uint64_t limit = tt.appInsts() + maxInsts;
    StopInfo stop;
    do {
        stop = tt.contTo(limit);
        pumpEvents();
    } while (stop.reason == StopReason::Event && stopIsMuted(stop));
    return stop;
}

StopInfo
DebugSession::stepi(uint64_t n)
{
    TimeTravel &tt = ensureTravel();
    StopInfo stop = tt.stepi(n);
    pumpEvents();
    return stop;
}

StopInfo
DebugSession::runToEnd()
{
    TimeTravel &tt = ensureTravel();
    StopInfo stop = tt.runToEnd();
    pumpEvents();
    return stop;
}

/**
 * Muted events must not surface from a reverse-continue: when a sliced
 * travel finishes on one, transparently begin another travel further
 * into the past (the non-sliced verbs relied on a retry loop; the
 * sliced form restarts inside the same job).
 */
StopInfo
DebugSession::restartMutedReverse(StopInfo stop, bool &done)
{
    if (sliceVerb_ != RequestKind::ReverseContinue)
        return stop;
    TimeTravel &tt = debugger_->timeTravel();
    while (done && stop.reason == StopReason::Event &&
           stopIsMuted(stop)) {
        stop = tt.travelBegin(TravelVerb::ReverseContinue, 0, done);
        pumpEvents();
    }
    return stop;
}

StopInfo
DebugSession::reverseBegin(RequestKind kind, uint64_t count, bool &done)
{
    DISE_ASSERT(kind == RequestKind::ReverseContinue ||
                    kind == RequestKind::ReverseStep ||
                    kind == RequestKind::RunToEvent,
                "not a sliced reverse verb");
    TimeTravel &tt = ensureTravel();
    sliceVerb_ = kind;
    TravelVerb verb = kind == RequestKind::ReverseContinue
                          ? TravelVerb::ReverseContinue
                          : kind == RequestKind::ReverseStep
                                ? TravelVerb::ReverseStep
                                : TravelVerb::RunToEvent;
    StopInfo stop = tt.travelBegin(verb, count, done);
    pumpEvents();
    if (done)
        stop = restartMutedReverse(stop, done);
    return stop;
}

StopInfo
DebugSession::reverseSlice(uint64_t maxInsts, bool &done)
{
    DISE_ASSERT(debugger_ && debugger_->timeTraveling(),
                "reverseSlice() without reverseBegin()");
    TimeTravel &tt = debugger_->timeTravel();
    StopInfo stop = tt.travelStep(maxInsts, done);
    pumpEvents();
    if (done)
        stop = restartMutedReverse(stop, done);
    return stop;
}

StopInfo
DebugSession::reverseContinue()
{
    bool done = false;
    StopInfo stop = reverseBegin(RequestKind::ReverseContinue, 0, done);
    while (!done)
        stop = reverseSlice(0, done);
    return stop;
}

StopInfo
DebugSession::reverseStep(uint64_t n)
{
    bool done = false;
    StopInfo stop = reverseBegin(RequestKind::ReverseStep, n, done);
    while (!done)
        stop = reverseSlice(0, done);
    return stop;
}

StopInfo
DebugSession::runToEvent(uint64_t n)
{
    bool done = false;
    StopInfo stop = reverseBegin(RequestKind::RunToEvent, n, done);
    while (!done)
        stop = reverseSlice(0, done);
    return stop;
}

std::unique_ptr<IntervalReplay>
DebugSession::beginIntervalReplay()
{
    if (!attached() || !debugger_->timeTraveling() || batchRan_)
        return nullptr;
    // Each interval worker gets machinery built exactly the way this
    // session's was (same initial-state pokes, same prepare hook, and
    // the live machinery's installed specs: removal after attach only
    // mutes, so a removed spec still shapes the recorded timeline), so
    // its replay is bit-deterministic against the live timeline.
    SpecSet specs{installedWatchOwner_, installedBreakOwner_};
    IntervalReplay::ReplicaFactory factory =
        [this, specs](std::unique_ptr<DebugTarget> &t,
                      std::unique_ptr<Debugger> &d) {
            Machinery m;
            if (!buildMachinery(m, specs))
                return false;
            t = std::move(m.target);
            d = std::move(m.debugger);
            return true;
        };
    return std::make_unique<IntervalReplay>(
        debugger_->timeTravel(), *target_, debugger_->backend(),
        debugger_->replayLog(), std::move(factory));
}

IntervalReplay::Report
DebugSession::verifyReplay(unsigned workers)
{
    std::unique_ptr<IntervalReplay> ir = beginIntervalReplay();
    if (!ir) {
        IntervalReplay::Report r;
        r.error = "no replayable timeline (attach and run first, and "
                  "batch runs cannot be reconstructed)";
        return r;
    }
    return ir->run(workers);
}

StopInfo
DebugSession::currentStop()
{
    StopInfo s;
    s.reason = StopReason::Step;
    if (debugger_ && debugger_->timeTraveling()) {
        TimeTravel &tt = debugger_->timeTravel();
        s.time = tt.time();
        s.appInsts = tt.appInsts();
        s.pc = target_->arch.pc;
    }
    return s;
}

RunStats
DebugSession::runCycles(TimingConfig cfg, RunLimits limits)
{
    DISE_ASSERT(ensureAttached(), "the ", backendName(backendKind()),
                " backend cannot implement this session's requests");
    batchRan_ = true;
    RunStats stats = debugger_->run(cfg, limits);
    pumpEvents();
    if (stats.halt != HaltReason::None && !announced_.halt) {
        SessionEvent ev;
        ev.kind = SessionEventKind::Halted;
        ev.appInsts = stats.appInsts;
        events_.push(ev);
        announced_.halt = true;
    }
    return stats;
}

FuncResult
DebugSession::runFunctional(uint64_t maxAppInsts)
{
    DISE_ASSERT(ensureAttached(), "the ", backendName(backendKind()),
                " backend cannot implement this session's requests");
    batchRan_ = true;
    FuncResult res = debugger_->runFunctional(maxAppInsts);
    pumpEvents();
    return res;
}

// --------------------------------------------------------- peek / poke

std::vector<uint64_t>
DebugSession::readRegisters()
{
    DebugTarget &t = ensurePeekTarget();
    std::vector<uint64_t> regs(NumSessionRegs);
    for (unsigned i = 0; i < NumIntRegs; ++i)
        regs[i] = t.arch.read(ir(i));
    regs[PcRegIndex] = t.arch.pc;
    return regs;
}

uint64_t
DebugSession::readRegister(unsigned index)
{
    DebugTarget &t = ensurePeekTarget();
    if (index == PcRegIndex)
        return t.arch.pc;
    if (index < NumIntRegs)
        return t.arch.read(ir(index));
    return 0;
}

bool
DebugSession::writeRegister(unsigned index, uint64_t value)
{
    if (index >= NumSessionRegs)
        return false;
    if (!attached()) {
        PendingPoke p;
        p.isReg = true;
        p.reg = index;
        p.value = value;
        pendingPokes_.push_back(p);
        if (preview_) {
            if (index == PcRegIndex)
                preview_->arch.pc = value;
            else
                preview_->arch.write(ir(index), value);
        }
        return true;
    }
    if (debugger_->timeTraveling()) {
        if (index == PcRegIndex)
            return false; // the PC is not a loggable intervention
        debugger_->timeTravel().pokeRegister(ir(index), value);
        return true;
    }
    // Attached but not yet resumed: the target sits at its initial
    // state, so the poke is part of that initial state — record it
    // with the configuration-phase pokes so a machinery rebuild
    // (post-attach spec addition) re-applies it instead of silently
    // reverting the write.
    PendingPoke p;
    p.isReg = true;
    p.reg = index;
    p.value = value;
    pendingPokes_.push_back(p);
    if (index == PcRegIndex)
        target_->arch.pc = value;
    else
        target_->arch.write(ir(index), value);
    return true;
}

std::vector<uint8_t>
DebugSession::readMemory(Addr addr, size_t len)
{
    DebugTarget &t = ensurePeekTarget();
    std::vector<uint8_t> bytes(len);
    t.mem.readBlock(addr, bytes.data(), len);
    return bytes;
}

bool
DebugSession::writeMemory(Addr addr, unsigned size, uint64_t value)
{
    if (size == 0 || size > 8)
        return false;
    if (!attached()) {
        PendingPoke p;
        p.addr = addr;
        p.size = size;
        p.value = value;
        pendingPokes_.push_back(p);
        if (preview_)
            preview_->mem.write(addr, size, value);
        return true;
    }
    if (debugger_->timeTraveling()) {
        debugger_->timeTravel().pokeMemory(addr, size, value);
        return true;
    }
    // See writeRegister: pre-resume pokes belong to the initial state
    // and must survive a machinery rebuild.
    PendingPoke p;
    p.addr = addr;
    p.size = size;
    p.value = value;
    pendingPokes_.push_back(p);
    target_->mem.write(addr, size, value);
    return true;
}

// -------------------------------------------------------- introspection

SessionStats
DebugSession::stats() const
{
    SessionStats s;
    if (const TimeTravel::Stats *ts = travelStats()) {
        TimeTravel &tt = const_cast<Debugger &>(*debugger_).timeTravel();
        s.time = tt.time();
        s.appInsts = tt.appInsts();
        s.events = tt.eventCount();
        s.checkpoints = tt.checkpointCount();
        s.pagesCopied = ts->pagesCopied;
        s.undoBytes = ts->bytesCopied;
        s.restores = ts->restores;
        s.undoBytesRestored = ts->bytesRestored;
        s.replayedUops = ts->replayedUops;
    } else if (debugger_) {
        s.events = debugger_->backend().totalEvents();
    }
    if (target_) {
        const TraceCacheStats &js = target_->jit()->stats();
        s.jitUops = js.tracedUops;
        s.jitSideExits = js.sideExits;
    }
    return s;
}

uint64_t
DebugSession::digest()
{
    DISE_ASSERT(attached(), "digest() requires an attached session");
    if (debugger_->timeTraveling())
        return debugger_->timeTravel().digest();
    return stateDigest(*target_, debugger_->backend());
}

size_t
DebugSession::eventCount() const
{
    if (debugger_ && debugger_->timeTraveling())
        return const_cast<Debugger &>(*debugger_).timeTravel()
            .eventCount();
    return debugger_ ? debugger_->backend().totalEvents() : 0;
}

DebugTarget &
DebugSession::target()
{
    return ensurePeekTarget();
}

Debugger &
DebugSession::debugger()
{
    DISE_ASSERT(attached(), "no debugger before attach");
    return *debugger_;
}

TimeTravel &
DebugSession::timeTravel()
{
    return ensureTravel();
}

bool
DebugSession::detach()
{
    attached_.store(false, std::memory_order_release);
    debugger_.reset(); // tears down the time-travel session first
    target_.reset();
    preview_.reset();
    detached_ = true;
    return true;
}

// -------------------------------------------------------- debug tools

bool
DebugSession::toolEnable(
    const std::string &name,
    const std::vector<std::pair<std::string, std::string>> &cfg,
    std::string *err)
{
    if (detached_) {
        if (err)
            *err = "session is detached";
        return false;
    }
    if (!ensureAttached()) {
        if (err)
            *err = std::string("the ") + backendName(backendKind()) +
                   " backend cannot attach this session";
        return false;
    }
    TimeTravel &tt = ensureTravel();
    if (!tt.enableTool(name, cfg, err))
        return false;
    pumpEvents();
    return true;
}

bool
DebugSession::toolDisable(const std::string &name, std::string *err)
{
    if (!attached()) {
        if (err)
            *err = "tool '" + name + "' is not enabled";
        return false;
    }
    TimeTravel &tt = ensureTravel();
    if (!tt.disableTool(name, err))
        return false;
    pumpEvents();
    return true;
}

std::string
DebugSession::toolList() const
{
    std::string out;
    for (const std::string &n :
         tools::ToolRegistry::instance().names()) {
        if (!out.empty())
            out += ',';
        out += n;
        if (attached() && debugger_->backend().tools().isEnabled(n))
            out += '*';
    }
    return out;
}

bool
DebugSession::toolReport(const std::string &name, std::string *out,
                         uint64_t *digest, std::string *err)
{
    if (!attached()) {
        if (err)
            *err = tools::ToolRegistry::instance().make(name)
                       ? "tool '" + name + "' is not enabled"
                       : "unknown tool '" + name + "'";
        return false;
    }
    const tools::ToolSet &ts = debugger_->backend().tools();
    if (!ts.report(name, out, err))
        return false;
    if (digest)
        *digest = ts.digest(name);
    return true;
}

// ---------------------------------------------------- durable sessions

bool
DebugSession::exportImage(persist::SessionImage &img, std::string *err)
{
    auto fail = [&](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };
    if (detached_)
        return fail("a detached session has no state to persist");
    if (batchRan_)
        return fail("a batch cycle-level/functional run advanced the "
                    "target outside the replayable timeline; the "
                    "session cannot be reconstructed from its log");
    if (rebuild_.active)
        return fail("a rebuild-replay is in flight; drive it to "
                    "completion before persisting");
    if (resurrect_.active)
        return fail("a resurrection replay is in flight");

    img.backend = opts_.debugger.backend;
    img.attached = attached();
    img.watches = pendingWatches_;
    img.breaks = pendingBreaks_;
    img.mutedWatches.assign(mutedWatches_.begin(), mutedWatches_.end());
    img.mutedBreaks.assign(mutedBreaks_.begin(), mutedBreaks_.end());
    img.installedWatches.assign(installedWatchOwner_.begin(),
                                installedWatchOwner_.end());
    img.installedBreaks.assign(installedBreakOwner_.begin(),
                               installedBreakOwner_.end());
    img.pokes.clear();
    for (const PendingPoke &p : pendingPokes_)
        img.pokes.push_back({p.isReg, p.reg, p.addr, p.size, p.value});

    img.hasTravel = attached() && debugger_->timeTraveling();
    img.seed = 0;
    img.programName.clear();
    img.interventions.clear();
    img.marks.clear();
    img.time = 0;
    img.appInsts = 0;
    img.digest = 0;
    img.checkpoints.clear();
    if (img.hasTravel) {
        TimeTravel &tt = debugger_->timeTravel();
        if (tt.travelActive())
            return fail("a sliced travel is in flight; drive it to "
                        "completion before persisting");
        const ReplayLog &log = debugger_->replayLog();
        img.seed = log.seed;
        img.programName = log.programName;
        img.interventions = log.interventions;
        img.marks = log.marks;
        img.time = tt.time();
        img.appInsts = tt.appInsts();
        img.digest = tt.digest();
        for (const Checkpoint &cp : tt.checkpoints())
            img.checkpoints.push_back({cp.time, cp.appInsts});
    } else if (attached()) {
        img.digest = digest();
    }
    img.toolDigests.clear();
    if (attached()) {
        const tools::ToolSet &ts = debugger_->backend().tools();
        for (const std::string &n : ts.enabledNames())
            img.toolDigests.push_back({n, ts.digest(n)});
    }
    return true;
}

bool
DebugSession::resurrectBegin(const persist::SessionImage &img,
                             bool &done, std::string *err)
{
    done = true;
    auto fail = [&](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };
    if (attached() || detached_ || !pendingWatches_.empty() ||
        !pendingBreaks_.empty() || !pendingPokes_.empty())
        return fail("resurrection requires a freshly constructed "
                    "session");

    opts_.debugger.backend = img.backend;
    pendingWatches_ = img.watches;
    pendingBreaks_ = img.breaks;
    mutedWatches_.clear();
    mutedBreaks_.clear();
    for (int32_t i : img.mutedWatches)
        mutedWatches_.insert(i);
    for (int32_t i : img.mutedBreaks)
        mutedBreaks_.insert(i);
    for (const persist::SessionImage::Poke &p : img.pokes)
        pendingPokes_.push_back({p.isReg, p.reg, p.addr, p.size,
                                 p.value});

    if (!img.attached)
        return true; // config-only image: nothing to replay

    // Divergence during the replay (a mark that does not re-fire at
    // its recorded position, a production removal that cannot
    // re-target) surfaces as an assertion; convert it into a typed
    // failure with the session safely detached rather than admitting
    // half-replayed state.
    try {
        // Re-install exactly what the live machinery had installed,
        // muted specs included: they shaped the recorded timeline.
        SpecSet installed;
        installed.watches.assign(img.installedWatches.begin(),
                                 img.installedWatches.end());
        installed.breaks.assign(img.installedBreaks.begin(),
                                img.installedBreaks.end());
        if (!attachWith(installed))
            return fail(std::string("the ") + backendName(img.backend) +
                        " backend refused the persisted spec set");
        if (!img.hasTravel) {
            uint64_t live = digest();
            if (live != img.digest) {
                detach();
                return fail("re-attach digest mismatch: live " +
                            std::to_string(live) + ", image says " +
                            std::to_string(img.digest));
            }
            return true;
        }
        // Create the controller FIRST (it holds a reference to the
        // debugger's log), then inject the recorded log underneath it:
        // the seek below replays the interventions at their stamps and
        // verifies every recorded mark as it crosses it.
        TimeTravel &tt = ensureTravel();
        ReplayLog &log = debugger_->replayLog();
        log.seed = img.seed;
        log.programName = img.programName;
        log.interventions = img.interventions;
        log.marks = img.marks;

        resurrect_.active = true;
        resurrect_.time = img.time;
        resurrect_.appInsts = img.appInsts;
        resurrect_.digest = img.digest;
        resurrect_.checkpoints = img.checkpoints;
        for (const persist::ToolDigest &td : img.toolDigests)
            resurrect_.toolDigests.push_back({td.name, td.digest});

        tt.seekBegin(img.time, done);
        pumpEvents();
        if (done)
            return resurrectFinish(err);
        return true;
    } catch (const std::exception &e) {
        resurrect_ = ResurrectPlan{};
        detach();
        return fail(std::string("resurrection replay diverged: ") +
                    e.what());
    }
}

bool
DebugSession::resurrectStep(uint64_t maxInsts, bool &done,
                            std::string *err)
{
    done = true;
    if (!resurrect_.active)
        return true;
    try {
        TimeTravel &tt = debugger_->timeTravel();
        tt.travelStep(maxInsts, done);
        pumpEvents();
        if (!done)
            return true;
        return resurrectFinish(err);
    } catch (const std::exception &e) {
        resurrect_ = ResurrectPlan{};
        detach();
        if (err)
            *err = std::string("resurrection replay diverged: ") +
                   e.what();
        return false;
    }
}

/** Verify the completed resurrection replay against the image's
 *  anchors; any mismatch detaches the session (typed error, no
 *  divergent state admitted). */
bool
DebugSession::resurrectFinish(std::string *err)
{
    ResurrectPlan plan = std::move(resurrect_);
    resurrect_ = ResurrectPlan{};
    auto fail = [&](const std::string &why) {
        detach();
        if (err)
            *err = why;
        return false;
    };
    TimeTravel &tt = debugger_->timeTravel();
    if (tt.time() != plan.time || tt.appInsts() != plan.appInsts)
        return fail("resurrection landed at t=" +
                    std::to_string(tt.time()) + ", " +
                    std::to_string(tt.appInsts()) +
                    " insts; image says t=" + std::to_string(plan.time) +
                    ", " + std::to_string(plan.appInsts) + " insts");
    uint64_t live = tt.digest();
    if (live != plan.digest)
        return fail("resurrection digest mismatch: replay produced " +
                    std::to_string(live) + ", image says " +
                    std::to_string(plan.digest));
    // The chain's positions are deterministic functions of the travel
    // history, so the re-taken chain must sit at the recorded
    // positions exactly.
    const auto &cps = tt.checkpoints();
    if (cps.size() != plan.checkpoints.size())
        return fail("resurrection re-took " +
                    std::to_string(cps.size()) +
                    " checkpoints; image recorded " +
                    std::to_string(plan.checkpoints.size()));
    for (size_t i = 0; i < cps.size(); ++i)
        if (cps[i].time != plan.checkpoints[i].time ||
            cps[i].appInsts != plan.checkpoints[i].appInsts)
            return fail("resurrection checkpoint #" +
                        std::to_string(i) + " sits at t=" +
                        std::to_string(cps[i].time) +
                        "; image recorded t=" +
                        std::to_string(plan.checkpoints[i].time));
    // Tool state is excluded from the user-visible digest, so verify
    // it separately: the replayed tool state must serialize to the
    // exact bytes the image was taken from.
    const tools::ToolSet &ts = debugger_->backend().tools();
    for (const auto &td : plan.toolDigests) {
        uint64_t live = ts.digest(td.first);
        if (live != td.second)
            return fail("resurrection tool '" + td.first +
                        "' digest mismatch: replay produced " +
                        std::to_string(live) + ", image says " +
                        std::to_string(td.second));
    }
    return true;
}

// ---------------------------------------------------------- wire entry

Response
DebugSession::dispatch(const Request &req)
{
    TRACE_SPAN("session", requestKindName(req.kind));
    Response resp;
    resp.seq = req.seq;
    resp.inReplyTo = req.kind;

    auto errorOut = [&](const std::string &msg) {
        resp.status = ResponseStatus::Error;
        resp.error = msg;
        return resp;
    };
    auto unsupportedOut = [&](const std::string &msg) {
        resp.status = ResponseStatus::Unsupported;
        resp.error = msg;
        return resp;
    };
    auto stopOut = [&](StopInfo stop) {
        resp.hasStop = true;
        resp.stop = stop;
        return resp;
    };
    auto needAttach = [&]() -> bool { return ensureAttached(); };
    std::string cantAttach =
        std::string("the ") + backendName(backendKind()) +
        " backend cannot implement the requested watchpoints";

    if (detached_ && req.kind != RequestKind::Ping)
        return errorOut("session is detached");

    switch (req.kind) {
      case RequestKind::Ping:
        return resp;
      case RequestKind::SelectBackend:
        if (!selectBackend(req.backend))
            return errorOut("backend is fixed once attached");
        return resp;
      case RequestKind::SetWatch: {
        int idx = setWatch(req.watch);
        if (idx < 0)
            return unsupportedOut(
                !refusal_.empty()
                    ? refusal_
                    : "the backend cannot implement the enlarged "
                      "watchpoint set");
        resp.index = idx;
        return resp;
      }
      case RequestKind::SetBreak: {
        int idx = setBreak(req.brk);
        if (idx < 0)
            return unsupportedOut(
                !refusal_.empty()
                    ? refusal_
                    : "the backend cannot implement the enlarged "
                      "breakpoint set");
        resp.index = idx;
        return resp;
      }
      case RequestKind::RemoveWatch:
        if (!removeWatch(req.index))
            return errorOut("no such watchpoint");
        return resp;
      case RequestKind::RemoveBreak:
        if (!removeBreak(req.index))
            return errorOut("no such breakpoint");
        return resp;
      case RequestKind::Attach:
        if (!attach())
            return unsupportedOut(cantAttach);
        return resp;
      case RequestKind::Cont:
        if (!needAttach())
            return unsupportedOut(cantAttach);
        return stopOut(cont());
      case RequestKind::Stepi:
        if (!needAttach())
            return unsupportedOut(cantAttach);
        return stopOut(stepi(req.count));
      case RequestKind::RunToEnd:
        if (!needAttach())
            return unsupportedOut(cantAttach);
        return stopOut(runToEnd());
      case RequestKind::ReverseContinue:
        if (!needAttach())
            return unsupportedOut(cantAttach);
        return stopOut(reverseContinue());
      case RequestKind::ReverseStep:
        if (!needAttach())
            return unsupportedOut(cantAttach);
        return stopOut(reverseStep(req.count));
      case RequestKind::RunToEvent:
        if (!needAttach())
            return unsupportedOut(cantAttach);
        return stopOut(runToEvent(req.count));
      case RequestKind::ReadRegisters:
        resp.regs = readRegisters();
        return resp;
      case RequestKind::WriteRegister:
        if (!writeRegister(req.reg, req.value))
            return errorOut("cannot write that register here");
        return resp;
      case RequestKind::ReadMemory: {
        if (req.size > 65536)
            return errorOut("read too large");
        resp.bytes = readMemory(req.addr, req.size);
        return resp;
      }
      case RequestKind::WriteMemory:
        if (!writeMemory(req.addr, req.size, req.value))
            return errorOut("bad write size (1..8 bytes)");
        return resp;
      case RequestKind::Stats:
        resp.stats = stats();
        return resp;
      case RequestKind::Detach:
        detach();
        return resp;
      case RequestKind::ReplayVerify: {
        IntervalReplay::Report rep = verifyReplay(
            static_cast<unsigned>(req.count ? req.count : 1));
        if (!rep.ok)
            return errorOut(rep.error.empty()
                                ? "replay verification failed"
                                : rep.error);
        resp.value = rep.finalDigest;
        for (const IntervalReplay::Interval &iv : rep.intervals)
            resp.regs.push_back(iv.endDigest);
        return resp;
      }
      case RequestKind::ToolEnable: {
        if (!needAttach())
            return unsupportedOut(cantAttach);
        std::string terr;
        if (!toolEnable(req.name, req.toolConfig, &terr))
            return errorOut(terr);
        return resp;
      }
      case RequestKind::ToolDisable: {
        std::string terr;
        if (!toolDisable(req.name, &terr))
            return errorOut(terr);
        return resp;
      }
      case RequestKind::ToolList:
        resp.text = toolList();
        return resp;
      case RequestKind::ToolReport: {
        std::string terr;
        if (!toolReport(req.name, &resp.text, &resp.value, &terr))
            return errorOut(terr);
        return resp;
      }
      case RequestKind::SessionCreate:
      case RequestKind::SessionSelect:
      case RequestKind::SessionDestroy:
      case RequestKind::SessionList:
      case RequestKind::ServerStats:
      case RequestKind::Subscribe:
      case RequestKind::Unsubscribe:
      case RequestKind::SessionHibernate:
      case RequestKind::SessionPersist:
      case RequestKind::StoreStats:
      case RequestKind::TraceStart:
      case RequestKind::TraceStop:
      case RequestKind::TraceDump:
      case RequestKind::Metrics:
      case RequestKind::ShardStats:
        return errorOut("session management verbs are handled by the "
                        "multi-session server, not a session");
    }
    return errorOut("unhandled request kind");
}

Response
DebugSession::handle(const Request &req)
{
    try {
        return dispatch(req);
    } catch (const std::exception &e) {
        Response resp;
        resp.seq = req.seq;
        resp.inReplyTo = req.kind;
        resp.status = ResponseStatus::Error;
        resp.error = e.what();
        return resp;
    }
}

std::string
DebugSession::handleEncoded(const std::string &line)
{
    Request req;
    std::string err;
    if (!decodeRequest(line, req, &err)) {
        Response resp;
        resp.status = ResponseStatus::Error;
        resp.error = "decode: " + err;
        // Best-effort correlation: even a malformed line usually has a
        // parseable seq token, and the client needs it to match the
        // error to its outstanding request.
        size_t pos = line.find("seq=");
        if (pos != std::string::npos)
            resp.seq = std::strtoull(line.c_str() + pos + 4, nullptr, 0);
        return encodeResponse(resp);
    }
    return encodeResponse(handle(req));
}

} // namespace dise
