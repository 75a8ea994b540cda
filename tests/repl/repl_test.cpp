// Replication subsystem tests: write fan-out ack modes, replica-aware read
// failover and ring exhaustion, and the full cluster-level lifecycle —
// crash -> re-replication -> rejoin -> anti-entropy -> live again.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "testing/co_assert.h"
#include "cluster/cluster.h"
#include "cluster/config.h"
#include "common/metrics.h"
#include "common/properties.h"
#include "common/units.h"
#include "kvstore/client.h"
#include "kvstore/server.h"
#include "sim/sync.h"

namespace hpcbb::kv {
namespace {

using namespace hpcbb::duration;  // NOLINT
using net::NodeId;
using sim::Simulation;
using sim::Task;

struct Cluster {
  Simulation sim;
  net::Fabric fabric;
  net::Transport transport;
  net::RpcHub hub;
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<NodeId> server_nodes;

  explicit Cluster(std::uint32_t n_servers)
      : fabric(sim, n_servers + 4, net::FabricParams{}),
        transport(fabric, net::transport_preset(net::TransportKind::kRdma)),
        hub(transport) {
    ServerParams params;
    params.store.memory_budget = 32 * MiB;
    params.store.shard_count = 2;
    for (std::uint32_t s = 0; s < n_servers; ++s) {
      const NodeId node = 4 + s;  // nodes 0..3 are clients
      servers.push_back(std::make_unique<Server>(hub, node, params));
      server_nodes.push_back(node);
    }
  }

  Client make_client(NodeId self, ClientParams params) {
    return Client(hub, self, server_nodes, params);
  }
};

TEST(ReplClientTest, ParamsFromProperties) {
  auto props = Properties::parse("kv.failover=1\nkv.repl.factor=3\n"
                                 "kv.repl.ack=all\n");
  ASSERT_TRUE(props.is_ok());
  cluster::ClusterConfig config;
  ASSERT_TRUE(cluster::apply_properties(props.value(), config).is_ok());
  const ClientParams& params = config.kv_client;
  EXPECT_TRUE(params.failover);
  EXPECT_EQ(params.replication_factor, 3u);
  EXPECT_EQ(params.ack, AckMode::kAll);
  // kv.repl.factor=0 degenerates to the unreplicated fast path.
  ASSERT_TRUE(cluster::apply_properties(
                  Properties::parse("kv.repl.factor=0\nkv.repl.ack=primary\n")
                      .value(),
                  config)
                  .is_ok());
  EXPECT_EQ(params.replication_factor, 1u);
  EXPECT_EQ(params.ack, AckMode::kPrimary);
  // A misspelled mode is an error, not a silent kPrimary.
  EXPECT_FALSE(cluster::apply_properties(
                   Properties::parse("kv.repl.ack=al").value(), config)
                   .is_ok());
}

TEST(ReplClientTest, AckAllPlacesCopiesOnEveryReplica) {
  Cluster cluster(3);
  ClientParams params;
  params.replication_factor = 2;
  params.ack = AckMode::kAll;
  Client client = cluster.make_client(0, params);
  cluster.sim.spawn([](Cluster& cl, Client& c) -> Task<void> {
    const auto repl = c.replica_indices("blk");
    CO_ASSERT(repl.size() == 2u);
    CO_ASSERT(repl[0] != repl[1]);
    CO_ASSERT((co_await c.set("blk", make_bytes(Bytes(64 * KiB, 0x3))))
                  .is_ok());
    // At ack time (all-ack) both replicas hold the value...
    for (const std::uint32_t s : repl) {
      auto r = co_await c.get_from(cl.server_nodes[s], "blk");
      CO_ASSERT(r.is_ok());
      CO_ASSERT(r.value()->size() == 64 * KiB);
    }
    // ...and the server outside the replica set does not.
    for (std::uint32_t s = 0; s < 3; ++s) {
      if (s == repl[0] || s == repl[1]) continue;
      CO_ASSERT((co_await c.get_from(cl.server_nodes[s], "blk")).code() ==
                StatusCode::kNotFound);
    }
  }(cluster, client));
  cluster.sim.run();
  const auto hists = cluster.sim.metrics().histograms();
  const auto it = hists.find("kv.repl.ack_all_ns");
  ASSERT_NE(it, hists.end());
  EXPECT_EQ(it->second.count, 1u);
}

TEST(ReplClientTest, PrimaryAckReplicatesInBackground) {
  Cluster cluster(3);
  ClientParams params;
  params.replication_factor = 2;
  params.ack = AckMode::kPrimary;
  Client client = cluster.make_client(0, params);
  cluster.sim.spawn([](Cluster& cl, Client& c) -> Task<void> {
    CO_ASSERT((co_await c.set("blk", make_bytes(Bytes(64 * KiB, 0x4))))
                  .is_ok());
    // The second copy lands shortly after the primary ack.
    co_await cl.sim.delay(20 * ms);
    for (const std::uint32_t s : c.replica_indices("blk")) {
      CO_ASSERT((co_await c.get_from(cl.server_nodes[s], "blk")).is_ok());
    }
  }(cluster, client));
  cluster.sim.run();
  const auto hists = cluster.sim.metrics().histograms();
  const auto it = hists.find("kv.repl.ack_primary_ns");
  ASSERT_NE(it, hists.end());
  EXPECT_EQ(it->second.count, 1u);
}

TEST(ReplClientTest, AckAllToleratesDownReplicaAndCountsFailure) {
  Cluster cluster(3);
  ClientParams params;
  params.replication_factor = 2;
  params.ack = AckMode::kAll;
  Client client = cluster.make_client(0, params);
  cluster.sim.spawn([](Cluster& cl, Client& c) -> Task<void> {
    const auto repl = c.replica_indices("blk");
    cl.servers[repl[1]]->crash();
    // One live replica is enough to ack; the failed copy is only counted.
    CO_ASSERT((co_await c.set("blk", make_bytes(Bytes(8 * KiB, 0x5))))
                  .is_ok());
    CO_ASSERT((co_await c.get("blk")).is_ok());
  }(cluster, client));
  cluster.sim.run();
  EXPECT_GE(cluster.sim.metrics().counter_value(
                "kv.repl.replica_write_failures"),
            1u);
}

TEST(ReplClientTest, ReadFailsOverToReplicaAfterPrimaryCrash) {
  Cluster cluster(3);
  ClientParams params;
  params.replication_factor = 2;
  params.ack = AckMode::kAll;
  Client client = cluster.make_client(0, params);
  bool verified = false;
  cluster.sim.spawn([](Cluster& cl, Client& c, bool& ok) -> Task<void> {
    CO_ASSERT((co_await c.set("blk", make_bytes(pattern_bytes(7, 0, 64 * KiB))))
                  .is_ok());
    cl.servers[c.replica_indices("blk")[0]]->crash();
    auto r = co_await c.get("blk");
    CO_ASSERT(r.is_ok());
    ok = verify_pattern(7, 0, *r.value());
  }(cluster, client, verified));
  cluster.sim.run();
  EXPECT_TRUE(verified);
  EXPECT_GE(cluster.sim.metrics().counter_value("kv.repl.replica_reads"), 1u);
}

TEST(ReplClientTest, ExhaustedWalkFailsAndCounts) {
  Cluster cluster(3);
  ClientParams params;
  params.failover = true;  // walk the whole ring before giving up
  Client client = cluster.make_client(0, params);
  StatusCode get_code{};
  StatusCode set_code{};
  cluster.sim.spawn([](Cluster& cl, Client& c, StatusCode& got,
                       StatusCode& put) -> Task<void> {
    for (auto& server : cl.servers) server->crash();
    got = (co_await c.get("blk")).code();
    put = (co_await c.set("blk", make_bytes(Bytes(1 * KiB, 0x6)))).code();
  }(cluster, client, get_code, set_code));
  cluster.sim.run();
  EXPECT_EQ(get_code, StatusCode::kUnavailable);
  EXPECT_EQ(set_code, StatusCode::kUnavailable);
  EXPECT_GE(cluster.sim.metrics().counter_value("kv.failover.exhausted"), 2u);
}

}  // namespace
}  // namespace hpcbb::kv

namespace hpcbb {
namespace {

using namespace hpcbb::duration;  // NOLINT
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::FsKind;
using sim::Task;

// Poll `done` every `step` of simulated time, up to `rounds` times.
template <typename Pred>
sim::Task<bool> wait_until(sim::Simulation& sim, sim::SimTime step,
                           int rounds, Pred done) {
  for (int i = 0; i < rounds; ++i) {
    if (done()) co_return true;
    co_await sim.delay(step);
  }
  co_return done();
}

TEST(ReplRecoveryTest, CrashRepairRejoinAntiEntropyLifecycle) {
  // One KV server dies with replica chunks aboard: the recovery manager
  // re-replicates them to a stand-in; when the server restarts (empty) the
  // detector holds it in kRecovering — ineligible for placement — until
  // anti-entropy has restored its key ranges, then readmits it.
  ClusterConfig config;
  config.compute_nodes = 4;
  config.kv_servers = 3;
  config.oss_count = 2;
  config.block_size = 8 * MiB;
  config.kv_memory_per_server = 128 * MiB;
  config.scheme = bb::Scheme::kAsync;
  config.bb_heartbeat_interval_ns = 5 * ms;
  config.bb_suspect_after = 2;
  config.bb_dead_after = 4;
  config.kv_client.failover = true;
  config.kv_client.replication_factor = 2;
  config.kv_client.ack = kv::AckMode::kAll;
  Cluster cluster(config);
  ASSERT_NE(cluster.bb_master().recovery(), nullptr);
  bool verified = false;
  cluster.sim().spawn([](Cluster& c, bool& ok) -> Task<void> {
    sim::Simulation& sim = c.sim();
    bb::Master& master = c.bb_master();
    MetricRegistry& metrics = sim.metrics();

    fs::FileSystem& fs = c.filesystem(FsKind::kBurstBuffer);
    auto writer = co_await fs.create("/r", 0);
    CO_ASSERT(writer.is_ok());
    CO_ASSERT_OK(co_await writer.value()->append(
        make_bytes(pattern_bytes(21, 0, 8 * MiB))));
    CO_ASSERT_OK(co_await writer.value()->close());
    co_await master.wait_all_flushed();

    // Kill one server; the detector walks it to dead and the recovery
    // manager re-replicates every chunk it co-owned.
    c.injector().crash_target(0);
    CO_ASSERT(co_await wait_until(sim, 5 * ms, 50, [&] {
      return master.peer_state(0) == bb::PeerState::kDead;
    }));
    CO_ASSERT(co_await wait_until(sim, 1 * ms, 100, [&] {
      return master.recovery()->active_runs() == 0 &&
             metrics.counter_value("kv.repl.repair_chunks") > 0;
    }));
    CO_ASSERT(metrics.counter_value("kv.repl.repair_bytes") > 0u);

    // Restart: the empty server is admitted only as kRecovering and the
    // cluster still counts it out (placement gate, satellite b).
    c.injector().restart_target(0);
    CO_ASSERT(co_await wait_until(sim, 200 * us, 500, [&] {
      return master.peer_state(0) == bb::PeerState::kRecovering;
    }));
    CO_ASSERT(metrics.counter_value("bb.detector.recovering") == 1u);
    CO_ASSERT(master.live_kv_count() == 2u);
    CO_ASSERT(master.degraded());

    // Anti-entropy finishes: readmitted, healthy, and the restored server
    // again serves its key ranges.
    CO_ASSERT(co_await wait_until(sim, 1 * ms, 200, [&] {
      return master.peer_state(0) == bb::PeerState::kLive;
    }));
    CO_ASSERT(metrics.counter_value("bb.detector.recovered") == 1u);
    CO_ASSERT(metrics.counter_value("kv.repl.anti_entropy_runs") >= 1u);
    CO_ASSERT(metrics.counter_value("kv.repl.anti_entropy_chunks") >= 1u);
    CO_ASSERT(master.live_kv_count() == 3u);
    CO_ASSERT(!master.degraded());

    auto reader = co_await fs.open("/r", 1);
    CO_ASSERT(reader.is_ok());
    auto data = co_await reader.value()->read(0, 8 * MiB);
    CO_ASSERT(data.is_ok());
    ok = verify_pattern(21, 0, data.value());
    master.stop_heartbeat();
  }(cluster, verified));
  cluster.sim().run();
  EXPECT_TRUE(verified);
  EXPECT_EQ(cluster.bb_master().lost_blocks(), 0u);
  // The under-replicated gauge drained back to zero after peaking.
  const auto gauges = cluster.sim().metrics().gauges();
  const auto it = gauges.find("kv.repl.under_replicated");
  if (it != gauges.end()) {
    EXPECT_EQ(it->second.value, 0u);
    EXPECT_GE(it->second.high_watermark, 1u);
  }
}

TEST(ReplRecoveryTest, ReplicatedClusterSurvivesDirtyCrash) {
  // BB-Async at R=2: a server dies while blocks are still dirty and the
  // flush pipeline drains from the surviving replicas — nothing is lost,
  // the exact failure R=1 documents as the scheme's durability window.
  ClusterConfig config;
  config.compute_nodes = 4;
  config.kv_servers = 3;
  config.oss_count = 2;
  config.block_size = 8 * MiB;
  config.kv_memory_per_server = 128 * MiB;
  config.scheme = bb::Scheme::kAsync;
  config.bb_heartbeat_interval_ns = 5 * ms;
  config.kv_client.failover = true;
  config.kv_client.replication_factor = 2;
  config.kv_client.ack = kv::AckMode::kAll;
  Cluster cluster(config);
  bool verified = false;
  cluster.sim().spawn([](Cluster& c, bool& ok) -> Task<void> {
    fs::FileSystem& fs = c.filesystem(FsKind::kBurstBuffer);
    auto writer = co_await fs.create("/burst", 0);
    CO_ASSERT(writer.is_ok());
    CO_ASSERT_OK(co_await writer.value()->append(
        make_bytes(pattern_bytes(22, 0, 8 * MiB))));
    CO_ASSERT_OK(co_await writer.value()->close());
    c.injector().crash_target(1);  // before the flush pipeline drains
    co_await c.bb_master().wait_all_flushed();
    CO_ASSERT(c.bb_master().lost_blocks() == 0u);
    auto reader = co_await c.filesystem(FsKind::kBurstBuffer).open(
        "/burst", 1);
    CO_ASSERT(reader.is_ok());
    auto data = co_await reader.value()->read(0, 8 * MiB);
    CO_ASSERT(data.is_ok());
    ok = verify_pattern(22, 0, data.value());
    c.bb_master().stop_heartbeat();
  }(cluster, verified));
  cluster.sim().run();
  EXPECT_TRUE(verified);
  EXPECT_EQ(cluster.bb_master().lost_blocks(), 0u);
  EXPECT_EQ(cluster.bb_master().flushed_blocks(), 1u);
}

}  // namespace
}  // namespace hpcbb
