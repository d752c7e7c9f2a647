/**
 * @file
 * The shard supervisor: one public port in front of N worker shard
 * processes, with session routing and crash respawn.
 *
 * The supervisor owns the TCP port clients connect to. Every worker
 * shard (src/server/shard.hh) is a full DebugServer forked into its
 * own process — its own scheduler worker pool and share-nothing
 * session slice — listening on a private loopback port. The
 * supervisor never simulates anything; it routes:
 *
 *  - RSP connections are sniffed by first byte and byte-pumped
 *    verbatim to the least-loaded shard (gdb's one-target model
 *    means a connection, once placed, never needs re-routing).
 *  - Typed-wire connections are decoded line by line. A session never
 *    leaves the shard that minted it, and shard k of N mints ids
 *    k+1, k+1+N, ..., so a session-addressed verb goes to shard
 *    (id-1) % N with no table and no probe; an id no shard holds gets
 *    that shard's own "no such session". session-create places new
 *    sessions on the least-loaded shard (or the one named by
 *    `shard=`); fleet verbs (session-list, server-stats) fan out and
 *    merge; `shard-stats` is answered by the supervisor itself. Each
 *    client connection keeps one downstream leg per shard it touches,
 *    and the supervisor transparently deselects on the old leg when
 *    the client's selection moves between shards.
 *
 * A monitor thread reaps crashed shards and respawns them on the
 * same store directory, so persisted sessions of a kill -9'd worker
 * come back (hibernated) on the replacement, at the same residue.
 * start() refuses a store written by a fleet of another size: a
 * recovered id whose residue names another shard, or a session image
 * in a slice shard-<k> with k >= N, could never be reached.
 */

#ifndef DISE_SERVER_SUPERVISOR_HH
#define DISE_SERVER_SUPERVISOR_HH

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/shard.hh"
#include "server/wire_client.hh"

namespace dise::server {

struct ShardSupervisorOptions
{
    /** Public TCP port on 127.0.0.1; 0 picks an ephemeral port. */
    uint16_t port = 0;
    /** Worker shard processes to fork. */
    unsigned shards = 2;
    /** Options template for every worker. storeDir, when set, is the
     *  *base* directory: shard k persists under storeDir/shard-<k>,
     *  so a respawned worker recovers exactly its own slice. */
    DebugServerOptions worker{};
    SessionManager::ProgramFactory factory{};
    bool verbose = false;
    /** Respawn crashed shards (tests may disable to observe death). */
    bool respawn = true;
};

class ShardSupervisor
{
  public:
    explicit ShardSupervisor(ShardSupervisorOptions opts = {});
    ~ShardSupervisor();

    ShardSupervisor(const ShardSupervisor &) = delete;
    ShardSupervisor &operator=(const ShardSupervisor &) = delete;

    /** Fork the shards, bind the public port, start routing. Fails
     *  (with @p err) when a shard does not start or a recovered session
     *  id's residue names another shard. */
    bool start(std::string *err = nullptr);
    void stop();

    uint16_t port() const { return port_; }
    unsigned shardCount() const { return static_cast<unsigned>(shards_.size()); }
    /** The worker's pid (for kill -9 crash tests). */
    pid_t shardPid(unsigned k) const;
    uint16_t shardPort(unsigned k) const;
    uint64_t shardRestarts(unsigned k) const;

    /** SIGKILL a worker. The monitor respawns it (options permitting);
     *  waitForRespawn blocks until the replacement answers. */
    bool killShard(unsigned k);
    bool waitForRespawn(unsigned k, unsigned timeoutMs = 15000);

    /** Per-shard load rows (the `shard-stats` verb's payload). */
    std::vector<ShardStatsRow> shardStats();
    /** Fleet-wide merged stats (the `server-stats` payload). */
    ServerStats fleetStats();

  private:
    struct Shard
    {
        ShardProcess proc;
        std::atomic<uint64_t> restarts{0};
        std::atomic<bool> alive{false};
        /** Control leg for supervisor-originated verbs (fan-out,
         *  stats, probes); lazily (re)connected. */
        std::mutex ctlMu;
        std::unique_ptr<WireClient> ctl;
    };

    void acceptLoop(int listenFd);
    void serveConnection(int fd);
    void serveRspProxy(int fd, char firstByte);
    void serveWireProxy(int fd);
    void monitorLoop();

    /** Typed call on shard k's control leg (reconnects once). */
    bool ctlCall(unsigned k, const Request &req, Response &resp,
                 std::string *err = nullptr);
    /** The shard that minted (and so holds) session @p id >= 1. */
    unsigned shardOf(uint64_t id) const
    {
        return static_cast<unsigned>((id - 1) % shards_.size());
    }
    /** Shard with the fewest live sessions (ties → lowest index). */
    unsigned leastLoadedShard();

    ShardSupervisorOptions opts_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<ShardProcessSpec> specs_;

    int listenFd_ = -1;
    uint16_t port_ = 0;
    std::thread acceptThread_;
    std::thread monitorThread_;
    std::atomic<bool> stopping_{false};
    std::atomic<uint64_t> connectionsServed_{0};

    struct Conn
    {
        int fd = -1;
        std::atomic<bool> done{false};
        std::thread th;
    };
    std::mutex connMu_;
    std::list<Conn> conns_;
};

} // namespace dise::server

#endif // DISE_SERVER_SUPERVISOR_HH
