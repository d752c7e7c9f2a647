/**
 * @file
 * Shard supervisor tests: residue routing across forked worker
 * processes, fleet verb merging, disjoint id minting, crash respawn
 * with store recovery, and a store written by a fleet of another
 * size.
 *
 * These tests fork real worker processes; the suite is deliberately
 * excluded from the TSan build (fork-without-exec from a threaded
 * parent is outside TSan's model).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "server/server.hh"
#include "server/supervisor.hh"
#include "server/wire_client.hh"
#include "session/protocol.hh"

namespace dise {
namespace {

using server::ShardSupervisor;
using server::ShardSupervisorOptions;
using server::WireClient;

SessionOptions
smallSessions()
{
    SessionOptions o;
    o.timeTravel.checkpointInterval = 512;
    return o;
}

/** Fresh scratch directory tree (shards add shard-<k> subdirs). */
std::string
storeScratch(const std::string &name)
{
    std::string dir = "shard_test_store_" + name + "_" +
                      std::to_string(static_cast<long>(::getpid()));
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return dir;
}

void
scrub(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

ShardSupervisorOptions
fleetOptions(unsigned shards, const std::string &storeDir = "")
{
    ShardSupervisorOptions o;
    o.shards = shards;
    o.worker.maxSessions = 8;
    o.worker.slots = 1;
    o.worker.sliceInsts = 2000;
    o.worker.session = smallSessions();
    o.worker.storeDir = storeDir;
    return o;
}

Request
mk(RequestKind kind)
{
    Request req;
    req.kind = kind;
    return req;
}

/** Typed round trip; EXPECTs transport success, returns the response
 *  (callers check resp.ok()). */
Response
call(WireClient &wire, const Request &req)
{
    Response resp;
    std::string err;
    EXPECT_TRUE(wire.call(req, resp, &err)) << err;
    return resp;
}

uint64_t
createOn(WireClient &wire, int shard,
         BackendKind backend = BackendKind::Dise)
{
    Request req = mk(RequestKind::SessionCreate);
    req.name = "demo";
    req.backend = backend;
    req.shard = shard;
    Response resp = call(wire, req);
    EXPECT_TRUE(resp.ok()) << resp.error;
    return resp.value;
}

Response
stepi(WireClient &wire, uint64_t count)
{
    Request req = mk(RequestKind::Stepi);
    req.count = count;
    return call(wire, req);
}

Response
select(WireClient &wire, uint64_t id)
{
    Request req = mk(RequestKind::SessionSelect);
    req.session = id;
    return call(wire, req);
}

/** The state digest probe: session-persist answers the digest of the
 *  image it just wrote. */
uint64_t
persistDigest(WireClient &wire)
{
    Response resp = call(wire, mk(RequestKind::SessionPersist));
    EXPECT_TRUE(resp.ok()) << resp.error;
    return resp.value;
}

// --------------------------------------------------------- routing

TEST(ShardSupervisor, RoutesSessionsAcrossShardsAndMergesFleetVerbs)
{
    ShardSupervisor sup(fleetOptions(2));
    ASSERT_TRUE(sup.start());
    ASSERT_EQ(sup.shardCount(), 2u);

    WireClient wire;
    ASSERT_TRUE(wire.connectTo(sup.port()));

    // Four sessions, least-loaded placement: both shards get work.
    std::vector<uint64_t> ids;
    for (int i = 0; i < 4; ++i) {
        ids.push_back(createOn(wire, /*shard=*/-1));
        Response resp = stepi(wire, 64); // drive the new selection
        EXPECT_TRUE(resp.ok()) << resp.error;
    }

    // Disjoint minting: no id collides, and both residue classes of
    // the 2-stride lattice appear (shard 0 mints odd ids, shard 1
    // even), proving the sessions actually spread across processes.
    std::set<uint64_t> uniq(ids.begin(), ids.end());
    EXPECT_EQ(uniq.size(), 4u);
    bool sawOdd = false, sawEven = false;
    for (uint64_t id : ids)
        (id % 2 ? sawOdd : sawEven) = true;
    EXPECT_TRUE(sawOdd && sawEven) << "placement never spread shards";

    // session-list fans out to every shard and merges.
    Response resp = call(wire, mk(RequestKind::SessionList));
    ASSERT_TRUE(resp.ok()) << resp.error;
    EXPECT_EQ(resp.regs.size(), 4u);

    // server-stats sums worker counters fleet-wide.
    resp = call(wire, mk(RequestKind::ServerStats));
    ASSERT_TRUE(resp.ok()) << resp.error;
    EXPECT_EQ(resp.server.activeSessions, 4u);
    EXPECT_EQ(resp.server.created, 4u);
    EXPECT_EQ(resp.server.workers, 2u); // one slot per shard
    EXPECT_FALSE(resp.server.hists.empty());

    // shard-stats exposes per-worker rows with live pids.
    resp = call(wire, mk(RequestKind::ShardStats));
    ASSERT_TRUE(resp.ok()) << resp.error;
    ASSERT_EQ(resp.shards.size(), 2u);
    uint64_t total = 0;
    for (const ShardStatsRow &row : resp.shards) {
        EXPECT_NE(row.pid, 0u);
        EXPECT_GE(row.sessions, 1u);
        total += row.sessions;
    }
    EXPECT_EQ(total, 4u);

    // Cross-shard reselect: every session is reachable through the
    // one public port no matter which worker owns it, and the
    // supervisor transparently swaps the downstream leg.
    for (uint64_t id : ids) {
        resp = select(wire, id);
        ASSERT_TRUE(resp.ok()) << resp.error;
        resp = call(wire, mk(RequestKind::Stats));
        ASSERT_TRUE(resp.ok()) << resp.error;
        EXPECT_GE(resp.stats.appInsts, 64u);
    }

    // An id no shard holds routes by residue like any other and gets
    // that shard's "no such session"; the selection stays put.
    for (uint64_t missing : {uint64_t{999}, uint64_t{1000}}) {
        resp = select(wire, missing);
        EXPECT_FALSE(resp.ok());
        EXPECT_NE(resp.error.find("no such session"), std::string::npos)
            << resp.error;
    }
    resp = call(wire, mk(RequestKind::Stats));
    EXPECT_TRUE(resp.ok()) << resp.error;
    sup.stop();
}

// --------------------------------------------------- crash recovery

TEST(ShardSupervisor, CrashedShardRespawnsAndRecoversItsStoreSlice)
{
    std::string dir = storeScratch("crash");
    ShardSupervisor sup(fleetOptions(2, dir));
    ASSERT_TRUE(sup.start());

    WireClient wire;
    ASSERT_TRUE(wire.connectTo(sup.port()));
    uint64_t id = createOn(wire, /*shard=*/0);
    ASSERT_TRUE(stepi(wire, 500).ok());
    Response resp = call(wire, mk(RequestKind::Stats));
    ASSERT_TRUE(resp.ok()) << resp.error;
    uint64_t posInsts = resp.stats.appInsts;
    uint64_t digest = persistDigest(wire);

    // kill -9 the worker. The monitor reaps it and forks a
    // replacement onto the same store slice.
    pid_t victim = sup.shardPid(0);
    ASSERT_GT(victim, 0);
    ASSERT_TRUE(sup.killShard(0));
    ASSERT_TRUE(sup.waitForRespawn(0));
    EXPECT_NE(sup.shardPid(0), victim);
    EXPECT_EQ(sup.shardRestarts(0), 1u);

    // A fresh client reaches the recovered session through the same
    // public port; resurrection is bit-identical to the last persist.
    WireClient wire2;
    ASSERT_TRUE(wire2.connectTo(sup.port()));
    resp = select(wire2, id);
    ASSERT_TRUE(resp.ok()) << resp.error;
    resp = call(wire2, mk(RequestKind::Stats));
    ASSERT_TRUE(resp.ok()) << resp.error;
    EXPECT_EQ(resp.stats.appInsts, posInsts);
    EXPECT_EQ(persistDigest(wire2), digest);

    // shard-stats reports the respawn.
    resp = call(wire2, mk(RequestKind::ShardStats));
    ASSERT_TRUE(resp.ok()) << resp.error;
    ASSERT_EQ(resp.shards.size(), 2u);
    EXPECT_EQ(resp.shards[0].restarts, 1u);

    sup.stop();
    scrub(dir);
}

// ------------------------------------------------ fleet size change

TEST(ShardSupervisor, StoreFromAnotherFleetSizeIsRefusedAtStart)
{
    // Write the store with two shards: shard 0 holds ids 1 and 3,
    // shard 1 holds ids 2 and 4.
    std::string dir = storeScratch("resize");
    std::vector<uint64_t> ids;
    std::vector<uint64_t> digests;
    {
        ShardSupervisor sup(fleetOptions(2, dir));
        ASSERT_TRUE(sup.start());
        WireClient wire;
        ASSERT_TRUE(wire.connectTo(sup.port()));
        for (int shard : {0, 0, 1, 1}) {
            ids.push_back(createOn(wire, shard));
            ASSERT_TRUE(stepi(wire, 200).ok());
            digests.push_back(persistDigest(wire));
        }
        sup.stop();
    }

    // Three shards would route id 3 to shard 2, which does not hold
    // it: start() fails with a typed error instead of stranding it.
    {
        ShardSupervisor sup(fleetOptions(3, dir));
        std::string err;
        EXPECT_FALSE(sup.start(&err));
        EXPECT_NE(err.find("fleet of another size"), std::string::npos)
            << err;
        EXPECT_NE(err.find("session 3"), std::string::npos) << err;
    }

    // One shard would never open slice shard-1, which holds ids 2 and
    // 4: start() refuses it and names the slice.
    {
        ShardSupervisor sup(fleetOptions(1, dir));
        std::string err;
        EXPECT_FALSE(sup.start(&err));
        EXPECT_NE(err.find("fleet of another size"), std::string::npos)
            << err;
        EXPECT_NE(err.find("shard-1"), std::string::npos) << err;
    }

    // The refused start left the store intact: the original fleet
    // size reaches every recovered session, bit-identically.
    ShardSupervisor sup(fleetOptions(2, dir));
    ASSERT_TRUE(sup.start());
    WireClient wire;
    ASSERT_TRUE(wire.connectTo(sup.port()));
    for (size_t i = 0; i < ids.size(); ++i) {
        Response resp = select(wire, ids[i]);
        ASSERT_TRUE(resp.ok()) << resp.error;
        EXPECT_EQ(persistDigest(wire), digests[i]);
    }
    sup.stop();
    scrub(dir);
}

} // namespace
} // namespace dise
