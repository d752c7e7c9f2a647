/**
 * @file
 * Worker shard processes: a DebugServer forked into its own process.
 *
 * Each shard is a full one-process debug server — its own
 * JobScheduler worker pool, SessionManager, and (optionally) a
 * private SessionStore directory — listening on an ephemeral
 * loopback port. The supervisor (src/server/supervisor.hh) owns the
 * public port and routes traffic to shards over local TCP, so a
 * shard is completely unaware it is sharded.
 *
 * The spawn protocol is fork-without-exec with two pipes:
 *
 *  - the *handshake* pipe carries the child's bound port back to the
 *    parent (one decimal line; "0" means startup failed), and
 *  - the *lifeline* pipe is held open by the parent for the shard's
 *    lifetime. The child blocks reading it after startup; EOF —
 *    because the parent closed it deliberately or died — is the
 *    shutdown signal. A shard can therefore never outlive its
 *    supervisor as an orphan holding a port.
 *
 * Session-id minting: shard k of N runs with idStart=k+1, idStride=N
 * so sibling shards mint globally disjoint session ids with no
 * cross-process coordination. Sessions never move between shards, so
 * the supervisor routes id to shard (id-1) % N by residue alone.
 */

#ifndef DISE_SERVER_SHARD_HH
#define DISE_SERVER_SHARD_HH

#include <string>

#include <sys/types.h>

#include "server/server.hh"

namespace dise::server {

/** Everything needed to fork one worker shard. */
struct ShardProcessSpec
{
    /** This shard's index (0-based) and the fleet size. */
    unsigned index = 0;
    unsigned total = 1;
    /** Server options template. port is forced to 0 (ephemeral),
     *  idStart/idStride are derived from index/total, and storeDir is
     *  used verbatim — the caller resolves the per-shard directory
     *  (e.g. base/shard-0) before spawning. */
    DebugServerOptions server{};
    /** Workload factory for the child's SessionManager (empty =
     *  built-in demo + synthetic workloads). */
    SessionManager::ProgramFactory factory{};
};

/** A live (or dead, pid-still-unreaped) worker shard process. */
struct ShardProcess
{
    pid_t pid = -1;
    uint16_t port = 0;
    /** Parent's write end of the lifeline pipe (-1 once closed). */
    int lifeline = -1;
};

/**
 * Fork a shard and wait for its port handshake. Returns false (with
 * @p err) when the fork, pipes, or the child's server startup fail;
 * a failed child is reaped before returning.
 */
bool spawnShardProcess(const ShardProcessSpec &spec, ShardProcess &out,
                       std::string *err = nullptr);

/**
 * Graceful stop: close the lifeline (the child's EOF shutdown
 * signal), wait up to @p graceMs for it to exit, then SIGKILL.
 * Always reaps; @p p is cleared.
 */
void shutdownShardProcess(ShardProcess &p, unsigned graceMs = 3000);

} // namespace dise::server

#endif // DISE_SERVER_SHARD_HH
