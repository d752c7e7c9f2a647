#include "server/session_manager.hh"

#include "workloads/workload.hh"

namespace dise::server {

bool
defaultProgramFactory(const std::string &name, Program &out)
{
    std::string n = name.empty() ? "demo" : name;
    if (n == "demo" || n == "heisenbug") {
        out = buildHeisenbugDemo();
        return true;
    }
    if (n == "tooldemo") {
        out = buildToolDemo();
        return true;
    }
    for (const std::string &w : workloadNames()) {
        if (w == n) {
            out = buildWorkload(n).program;
            return true;
        }
    }
    return false;
}

SessionManager::SessionManager(SessionManagerOptions opts,
                               ProgramFactory factory)
    : opts_(std::move(opts)), factory_(std::move(factory))
{
    if (!factory_)
        factory_ = defaultProgramFactory;
    if (!opts_.idStride)
        opts_.idStride = 1;
    if (!opts_.idStart)
        opts_.idStart = 1;
    nextId_ = opts_.idStart;
}

void
SessionManager::reserveIdLocked(uint64_t id)
{
    if (nextId_ > id)
        return;
    uint64_t steps = (id - nextId_) / opts_.idStride + 1;
    nextId_ += steps * opts_.idStride;
}

void
SessionManager::touch(ManagedSession &ms)
{
    ms.lastTouch.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
}

void
SessionManager::adoptStore(persist::SessionStore *store)
{
    std::lock_guard<std::mutex> lk(mu_);
    store_ = store;
    if (!store_)
        return;
    for (const persist::StoreEntryMeta &e : store_->entries()) {
        if (!sessions_.count(e.id))
            hibernated_[e.id] = e.workload;
        reserveIdLocked(e.id);
    }
}

uint64_t
SessionManager::victimLocked(const std::set<uint64_t> &tried) const
{
    const ManagedSessionPtr *best = nullptr;
    for (const auto &kv : sessions_) {
        const ManagedSessionPtr &ms = kv.second;
        // Evictable = idle: not connection-bound, no live event
        // subscriptions, and the table holds the only reference (no
        // connection has it selected, no job is driving it).
        if (ms->exclusive || ms->subscriberCount() > 0 ||
            ms.use_count() > 1)
            continue;
        if (tried.count(kv.first))
            continue;
        if (!best ||
            ms->lastTouch.load(std::memory_order_relaxed) <
                (*best)->lastTouch.load(std::memory_order_relaxed))
            best = &kv.second;
    }
    return best ? (*best)->id : 0;
}

bool
SessionManager::exportToStore(ManagedSession &ms, std::string *err)
{
    persist::SessionImage img;
    img.id = ms.id;
    img.workload = ms.workload;
    std::string why;
    if (!ms.session.exportImage(img, &why)) {
        if (err)
            *err = why;
        return false;
    }
    persist::StoreResult res = store_->put(img);
    if (!res.ok) {
        if (err)
            *err = std::string(persist::storeErrName(res.err)) + ": " +
                   res.detail;
        return false;
    }
    return true;
}

ManagedSessionPtr
SessionManager::create(const std::string &workload, BackendKind backend,
                       bool exclusive, std::string *err)
{
    // Build the program outside the lock (workload construction is the
    // expensive part), then admit under it.
    Program prog;
    if (!factory_(workload, prog)) {
        // A typo'd workload is a client error, not an admission-cap
        // rejection; rejected_ only counts the cap.
        if (err)
            *err = "unknown workload '" + workload + "'";
        return nullptr;
    }
    SessionOptions sopts = opts_.session;
    sopts.debugger.backend = backend;

    // Admission loop: at the cap, hibernate the LRU idle session and
    // retry; a victim that turns busy (or whose persistence fails) is
    // skipped, and only when nothing is evictable does the create
    // reject. Eviction runs outside mu_ (it serializes on the victim,
    // not the table).
    std::set<uint64_t> tried;
    for (;;) {
        uint64_t victim = 0;
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (!opts_.maxSessions ||
                sessions_.size() < opts_.maxSessions) {
                uint64_t id = nextId_;
                nextId_ += opts_.idStride;
                auto ms = std::make_shared<ManagedSession>(
                    id,
                    workload.empty() ? std::string("demo") : workload,
                    std::move(prog), std::move(sopts), exclusive);
                sessions_.emplace(id, ms);
                ++created_;
                peak_ = std::max<uint64_t>(peak_, sessions_.size());
                touch(*ms);
                return ms;
            }
            if (store_)
                victim = victimLocked(tried);
            if (!victim) {
                ++rejected_;
                if (err)
                    *err = "session cap reached (" +
                           std::to_string(opts_.maxSessions) + ")" +
                           (store_ ? " and no idle session to "
                                     "hibernate"
                                   : "");
                return nullptr;
            }
        }
        std::string hibErr;
        if (!hibernate(victim, &hibErr))
            tried.insert(victim); // victim got busy / store failure
    }
}

ManagedSessionPtr
SessionManager::find(uint64_t id, bool forSelect, std::string *err)
{
    bool sleeping = false;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = sessions_.find(id);
        if (it != sessions_.end()) {
            if (forSelect && it->second->exclusive) {
                if (err)
                    *err = "session is connection-bound";
                return nullptr;
            }
            return it->second;
        }
        sleeping = store_ && hibernated_.count(id) > 0;
    }
    if (!sleeping) {
        if (err)
            *err = "no such session";
        return nullptr;
    }
    return resurrect(id, err);
}

bool
SessionManager::hibernate(uint64_t id, std::string *err)
{
    if (!store_) {
        if (err)
            *err = "the server has no session store (--store-dir)";
        return false;
    }
    ManagedSessionPtr ms;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = sessions_.find(id);
        if (it == sessions_.end()) {
            if (err)
                *err = hibernated_.count(id)
                           ? "session is already hibernated"
                           : "no such session";
            return false;
        }
        if (it->second->exclusive) {
            if (err)
                *err = "session is connection-bound (RSP target)";
            return false;
        }
        if (it->second->subscriberCount() > 0) {
            if (err)
                *err = "session has live event subscriptions";
            return false;
        }
        if (it->second.use_count() > 1) {
            if (err)
                *err = "session is busy (selected by a connection or "
                       "running a job)";
            return false;
        }
        ms = it->second;
        // Out of the table: no find() can hand it out while the
        // export runs, so this reference is exclusive without
        // touching the session lock.
        sessions_.erase(it);
    }
    std::string why;
    if (!exportToStore(*ms, &why)) {
        std::lock_guard<std::mutex> lk(mu_);
        sessions_.emplace(id, ms); // intact, exactly as it was
        if (err)
            *err = why;
        return false;
    }
    std::lock_guard<std::mutex> lk(mu_);
    hibernated_[id] = ms->workload;
    ++evictions_;
    retiredUops_ += ms->uops.load(std::memory_order_relaxed);
    retiredInsts_ += ms->appInsts.load(std::memory_order_relaxed);
    retiredEvents_ += ms->events.load(std::memory_order_relaxed);
    retiredJitUops_ += ms->jitUops.load(std::memory_order_relaxed);
    retiredJitSideExits_ += ms->jitSideExits.load(std::memory_order_relaxed);
    retiredJobs_ += ms->jobs.load(std::memory_order_relaxed);
    retiredPushed_ += ms->eventsPushed.load(std::memory_order_relaxed);
    retiredEventsDropped_ +=
        ms->eventsDropped.load(std::memory_order_relaxed);
    retiredDropped_ += ms->droppedSinks.load(std::memory_order_relaxed);
    return true;
}

bool
SessionManager::persist(uint64_t id, std::string *err, uint64_t *digest)
{
    if (!store_) {
        if (err)
            *err = "the server has no session store (--store-dir)";
        return false;
    }
    ManagedSessionPtr ms = find(id, false, err);
    if (!ms)
        return false;
    std::lock_guard<std::mutex> slk(ms->mu);
    persist::SessionImage img;
    img.id = ms->id;
    img.workload = ms->workload;
    std::string why;
    if (!ms->session.exportImage(img, &why)) {
        if (err)
            *err = why;
        return false;
    }
    persist::StoreResult res = store_->put(img);
    if (!res.ok) {
        if (err)
            *err = std::string(persist::storeErrName(res.err)) + ": " +
                   res.detail;
        return false;
    }
    if (digest)
        *digest = img.digest;
    return true;
}

ManagedSessionPtr
SessionManager::resurrect(uint64_t id, std::string *err)
{
    // One resurrection at a time: the loser of a select race waits
    // here, then finds the session live.
    std::lock_guard<std::mutex> rlk(resurrectMu_);
    std::string workload;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = sessions_.find(id);
        if (it != sessions_.end())
            return it->second;
        auto h = hibernated_.find(id);
        if (h == hibernated_.end()) {
            if (err)
                *err = "no such session";
            return nullptr;
        }
        workload = h->second;
    }

    auto quarantined = [&](const std::string &why) -> ManagedSessionPtr {
        store_->quarantine(id, why);
        std::lock_guard<std::mutex> lk(mu_);
        hibernated_.erase(id);
        if (err)
            *err = "resurrection failed (image quarantined): " + why;
        return nullptr;
    };

    persist::SessionImage img;
    persist::StoreResult res = store_->load(id, img);
    if (!res.ok) {
        // An unreadable/corrupt image is already quarantine-classified
        // by the store; a Missing entry means the store and the
        // hibernated table drifted (should not happen) — drop it too.
        std::lock_guard<std::mutex> lk(mu_);
        hibernated_.erase(id);
        if (err)
            *err = std::string("resurrection failed: ") +
                   persist::storeErrName(res.err) + ": " + res.detail;
        return nullptr;
    }

    Program prog;
    if (!factory_(workload, prog))
        return quarantined("workload '" + workload +
                           "' is no longer buildable");
    SessionOptions sopts = opts_.session;
    sopts.debugger.backend = img.backend;
    auto ms = std::make_shared<ManagedSession>(
        id, workload, std::move(prog), std::move(sopts), false);

    {
        TRACE_SPAN("session", "session.resurrect");
        uint64_t t0 = obs::nowNs();
        bool done = false;
        std::string serr;
        if (!ms->session.resurrectBegin(img, done, &serr))
            return quarantined(serr);
        while (!done)
            if (!ms->session.resurrectStep(0, done, &serr))
                return quarantined(serr);
        obs::metrics().resurrectReplayUs.observe(obs::usSince(t0));
    }
    ms->publishProgress();

    // Admit the resurrected session under the cap; at the cap an LRU
    // idle victim hibernates to make room (mirroring create()).
    std::set<uint64_t> tried;
    for (;;) {
        uint64_t victim = 0;
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (!opts_.maxSessions ||
                sessions_.size() < opts_.maxSessions) {
                hibernated_.erase(id);
                sessions_.emplace(id, ms);
                ++resurrections_;
                peak_ = std::max<uint64_t>(peak_, sessions_.size());
                touch(*ms);
                return ms;
            }
            victim = victimLocked(tried);
            if (!victim) {
                if (err)
                    *err = "session cap reached (" +
                           std::to_string(opts_.maxSessions) +
                           ") and no idle session to hibernate";
                return nullptr; // stays hibernated; retry later
            }
        }
        std::string hibErr;
        if (!hibernate(victim, &hibErr))
            tried.insert(victim);
    }
}

bool
SessionManager::destroy(uint64_t id)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
        // A hibernated session is destroyed by erasing its image.
        auto h = hibernated_.find(id);
        if (h == hibernated_.end())
            return false;
        hibernated_.erase(h);
        if (store_)
            store_->erase(id);
        ++destroyed_;
        return true;
    }
    ManagedSessionPtr ms = it->second;
    sessions_.erase(it);
    ms->closing.store(true, std::memory_order_release);
    // Fold the published counters into the retired totals; a slice
    // still in flight publishes once more, but its session no longer
    // appears in either the live list or (beyond this snapshot) the
    // totals — a bounded, documented undercount at teardown.
    retiredUops_ += ms->uops.load(std::memory_order_relaxed);
    retiredInsts_ += ms->appInsts.load(std::memory_order_relaxed);
    retiredEvents_ += ms->events.load(std::memory_order_relaxed);
    retiredJitUops_ += ms->jitUops.load(std::memory_order_relaxed);
    retiredJitSideExits_ += ms->jitSideExits.load(std::memory_order_relaxed);
    retiredJobs_ += ms->jobs.load(std::memory_order_relaxed);
    retiredPushed_ += ms->eventsPushed.load(std::memory_order_relaxed);
    retiredEventsDropped_ +=
        ms->eventsDropped.load(std::memory_order_relaxed);
    retiredDropped_ += ms->droppedSinks.load(std::memory_order_relaxed);
    // The on-disk image (if any) dies with the session.
    if (store_)
        store_->erase(id);
    ++destroyed_;
    return true;
}

std::vector<uint64_t>
SessionManager::ids() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<uint64_t> out;
    out.reserve(sessions_.size() + hibernated_.size());
    for (const auto &kv : sessions_)
        out.push_back(kv.first);
    for (const auto &kv : hibernated_)
        if (!sessions_.count(kv.first))
            out.push_back(kv.first);
    return out;
}

size_t
SessionManager::count() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return sessions_.size();
}

ServerStats
SessionManager::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    ServerStats s;
    s.activeSessions = sessions_.size();
    s.peakSessions = peak_;
    s.created = created_;
    s.destroyed = destroyed_;
    s.rejected = rejected_;
    s.maxSessions = opts_.maxSessions;
    s.totalUops = retiredUops_;
    s.totalAppInsts = retiredInsts_;
    s.totalEvents = retiredEvents_;
    s.jitUops = retiredJitUops_;
    s.jitSideExits = retiredJitSideExits_;
    s.jobs = retiredJobs_;
    s.eventsPushed = retiredPushed_;
    s.eventsDropped = retiredEventsDropped_;
    s.dropped = retiredDropped_;
    for (const auto &kv : sessions_) {
        const ManagedSession &ms = *kv.second;
        s.totalUops += ms.uops.load(std::memory_order_relaxed);
        s.totalAppInsts += ms.appInsts.load(std::memory_order_relaxed);
        s.totalEvents += ms.events.load(std::memory_order_relaxed);
        s.jitUops += ms.jitUops.load(std::memory_order_relaxed);
        s.jitSideExits += ms.jitSideExits.load(std::memory_order_relaxed);
        s.jobs += ms.jobs.load(std::memory_order_relaxed);
        s.eventsPushed +=
            ms.eventsPushed.load(std::memory_order_relaxed);
        s.eventsDropped +=
            ms.eventsDropped.load(std::memory_order_relaxed);
        s.dropped += ms.droppedSinks.load(std::memory_order_relaxed);
        s.subscribers += ms.subscriberCount();
    }
    s.hibernated = hibernated_.size();
    s.evictions = evictions_;
    s.resurrections = resurrections_;
    if (store_)
        s.quarantined = store_->counters().quarantined;
    // Per-tool counters, rolled up by tool name across live sessions.
    // Best-effort: a session mid-verb (its mutex held) or mid-slice
    // (its slice mutex held: a job or an RSP edit) is skipped and folds
    // into the next snapshot rather than blocking stats. An RSP
    // connection attaches holding neither; attached() turns true only
    // once that attach has committed.
    for (const auto &kv : sessions_) {
        ManagedSession &ms = *kv.second;
        std::unique_lock<std::mutex> slk(ms.mu, std::try_to_lock);
        if (!slk.owns_lock())
            continue;
        std::unique_lock<std::mutex> sliceLk(ms.sliceMu, std::try_to_lock);
        if (!sliceLk.owns_lock() || !ms.session.attached())
            continue;
        for (const tools::ToolStatsRow &row :
             ms.session.debugger().backend().tools().statsRows()) {
            tools::ToolStatsRow *agg = nullptr;
            for (tools::ToolStatsRow &t : s.tools)
                if (t.name == row.name)
                    agg = &t;
            if (!agg) {
                s.tools.push_back(row);
            } else {
                agg->uopsSeen += row.uopsSeen;
                agg->checks += row.checks;
                agg->suppressed += row.suppressed;
                agg->findings += row.findings;
            }
        }
    }
    return s;
}

} // namespace dise::server
