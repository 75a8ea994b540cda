// End-to-end KV cluster tests over the simulated fabric: one or more
// servers, clients on compute nodes, RDMA and socket transports, crash
// and recovery.
#include <gtest/gtest.h>

#include "testing/co_assert.h"
#include "common/crc32c.h"
#include "common/units.h"
#include "kvstore/client.h"
#include "kvstore/server.h"
#include "sim/sync.h"

namespace hpcbb::kv {
namespace {

using namespace hpcbb::duration;  // NOLINT
using net::NodeId;
using sim::Simulation;
using sim::SimTime;
using sim::Task;

struct Cluster {
  Simulation sim;
  net::Fabric fabric;
  net::Transport transport;
  net::RpcHub hub;
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<NodeId> server_nodes;

  explicit Cluster(std::uint32_t n_servers,
                   net::TransportKind kind = net::TransportKind::kRdma,
                   std::uint64_t mem_per_server = 32 * MiB)
      : fabric(sim, n_servers + 4, net::FabricParams{}),
        transport(fabric, net::transport_preset(kind)),
        hub(transport) {
    ServerParams params;
    params.store.memory_budget = mem_per_server;
    params.store.shard_count = 2;
    for (std::uint32_t s = 0; s < n_servers; ++s) {
      const NodeId node = 4 + s;  // nodes 0..3 are clients
      servers.push_back(std::make_unique<Server>(hub, node, params));
      server_nodes.push_back(node);
    }
  }

  Client make_client(NodeId self) {
    return Client(hub, self, server_nodes);
  }
};

TEST(KvClusterTest, SetGetAcrossTheWire) {
  Cluster cluster(2);
  Client client = cluster.make_client(0);
  BytesPtr got;
  cluster.sim.spawn([](Client& c, BytesPtr& out) -> Task<void> {
    CO_ASSERT(
        (co_await c.set("block-1", make_bytes(pattern_bytes(1, 0, 100 * KiB))))
            .is_ok());
    auto r = co_await c.get("block-1");
    CO_ASSERT(r.is_ok());
    out = std::move(r).value();
  }(client, got));
  cluster.sim.run();
  ASSERT_NE(got, nullptr);
  EXPECT_TRUE(verify_pattern(1, 0, *got));
}

TEST(KvClusterTest, MissReportedAsNotFound) {
  Cluster cluster(2);
  Client client = cluster.make_client(0);
  StatusCode code{};
  cluster.sim.spawn([](Client& c, StatusCode& out) -> Task<void> {
    out = (co_await c.get("never-set")).code();
  }(client, code));
  cluster.sim.run();
  EXPECT_EQ(code, StatusCode::kNotFound);
}

TEST(KvClusterTest, KeysSpreadOverServers) {
  Cluster cluster(4);
  Client client = cluster.make_client(0);
  cluster.sim.spawn([](Client& c) -> Task<void> {
    for (int i = 0; i < 200; ++i) {
      CO_ASSERT((co_await c.set("key-" + std::to_string(i),
                                  make_bytes(Bytes(512, 0x7)))).is_ok());
    }
  }(client));
  cluster.sim.run();
  for (auto& server : cluster.servers) {
    EXPECT_GT(server->store().stats().items, 20u);
  }
}

TEST(KvClusterTest, RdmaLargeTransfersFasterThanIpoib) {
  auto run = [](net::TransportKind kind) {
    Cluster cluster(1, kind);
    Client client = cluster.make_client(0);
    cluster.sim.spawn([](Client& c) -> Task<void> {
      for (int i = 0; i < 16; ++i) {
        CO_ASSERT((co_await c.set("blk-" + std::to_string(i),
                                    make_bytes(Bytes(1 * MiB, 0x1)))).is_ok());
      }
      for (int i = 0; i < 16; ++i) {
        auto r = co_await c.get("blk-" + std::to_string(i));
        CO_ASSERT(r.is_ok());
      }
    }(client));
    cluster.sim.run();
    return cluster.sim.now();
  };
  const SimTime rdma = run(net::TransportKind::kRdma);
  const SimTime ipoib = run(net::TransportKind::kIpoib);
  const double speedup = static_cast<double>(ipoib) / static_cast<double>(rdma);
  EXPECT_GT(speedup, 3.0) << "rdma=" << rdma << " ipoib=" << ipoib;
}

TEST(KvClusterTest, MultiGetReturnsHitsAndMisses) {
  Cluster cluster(3);
  Client client = cluster.make_client(1);
  std::vector<std::optional<BytesPtr>> got;
  cluster.sim.spawn([](Client& c,
                       std::vector<std::optional<BytesPtr>>& out) -> Task<void> {
    CO_ASSERT((co_await c.set("a", make_bytes(Bytes(10, 1)))).is_ok());
    CO_ASSERT((co_await c.set("c", make_bytes(Bytes(30, 3)))).is_ok());
    const std::vector<std::string> keys{"a", "b", "c"};
    auto r = co_await c.multi_get(keys);
    CO_ASSERT(r.is_ok());
    out = std::move(r).value();
  }(client, got));
  cluster.sim.run();
  ASSERT_EQ(got.size(), 3u);
  ASSERT_TRUE(got[0].has_value());
  EXPECT_EQ((*got[0])->size(), 10u);
  EXPECT_FALSE(got[1].has_value());
  ASSERT_TRUE(got[2].has_value());
  EXPECT_EQ((*got[2])->size(), 30u);
}

TEST(KvClusterTest, EraseAndPin) {
  Cluster cluster(1);
  Client client = cluster.make_client(0);
  cluster.sim.spawn([](Client& c) -> Task<void> {
    CO_ASSERT((co_await c.set("k", make_bytes(Bytes(64, 9)), true)).is_ok());
    CO_ASSERT((co_await c.pin("k", false)).is_ok());
    CO_ASSERT((co_await c.erase("k")).is_ok());
    EXPECT_EQ((co_await c.erase("k")).code(), StatusCode::kNotFound);
    EXPECT_EQ((co_await c.pin("k", true)).code(), StatusCode::kNotFound);
  }(client));
  cluster.sim.run();
}

TEST(KvClusterTest, ServerStats) {
  Cluster cluster(1);
  Client client = cluster.make_client(0);
  StatsReply stats;
  cluster.sim.spawn([](Client& c, StatsReply& out) -> Task<void> {
    CO_ASSERT((co_await c.set("x", make_bytes(Bytes(100, 1)))).is_ok());
    (void)co_await c.get("x");
    (void)co_await c.get("y");
    auto r = co_await c.server_stats(0);
    CO_ASSERT(r.is_ok());
    out = r.value();
  }(client, stats));
  cluster.sim.run();
  EXPECT_EQ(stats.items, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(KvClusterTest, CrashLosesDataAndRefusesOps) {
  Cluster cluster(1);
  Client client = cluster.make_client(0);
  StatusCode during_crash{};
  BytesPtr after_restart;
  StatusCode after_code{};
  cluster.sim.spawn([](Cluster& cl, Client& c, StatusCode& dur,
                       StatusCode& after) -> Task<void> {
    CO_ASSERT((co_await c.set("k", make_bytes(Bytes(128, 5)))).is_ok());
    cl.servers[0]->crash();
    dur = (co_await c.get("k")).code();
    cl.servers[0]->restart();
    after = (co_await c.get("k")).code();  // data is gone: cache semantics
  }(cluster, client, during_crash, after_code));
  cluster.sim.run();
  EXPECT_EQ(during_crash, StatusCode::kUnavailable);
  EXPECT_EQ(after_code, StatusCode::kNotFound);
  (void)after_restart;
}

TEST(KvClusterTest, ExplicitPlacementOnSecondaryServer) {
  Cluster cluster(2);
  Client client = cluster.make_client(0);
  cluster.sim.spawn([](Cluster& cl, Client& c) -> Task<void> {
    const NodeId primary = c.server_for("key");
    const NodeId secondary = c.servers()[c.ring().successors("key", 2)[1]];
    CO_ASSERT(primary != secondary);
    CO_ASSERT((co_await c.set_on(secondary, "key",
                                   make_bytes(Bytes(256, 8)), false)).is_ok());
    // Readable from the secondary, not from the primary.
    EXPECT_TRUE((co_await c.get_from(secondary, "key")).is_ok());
    EXPECT_EQ((co_await c.get_from(primary, "key")).code(),
              StatusCode::kNotFound);
    (void)cl;
  }(cluster, client));
  cluster.sim.run();
}

TEST(KvClusterTest, ConcurrentClientsAllSucceed) {
  Cluster cluster(2);
  std::vector<std::unique_ptr<Client>> clients;
  int completed = 0;
  for (NodeId n = 0; n < 4; ++n) {
    clients.push_back(std::make_unique<Client>(cluster.make_client(n)));
    cluster.sim.spawn([](Client& c, NodeId id, int& done) -> Task<void> {
      for (int i = 0; i < 20; ++i) {
        const std::string key =
            "c" + std::to_string(id) + "-" + std::to_string(i);
        CO_ASSERT(
            (co_await c.set(key, make_bytes(Bytes(64 * KiB, 0xF)))).is_ok());
        auto r = co_await c.get(key);
        CO_ASSERT(r.is_ok());
        CO_ASSERT((*r.value()).size() == 64 * KiB);
      }
      ++done;
    }(*clients.back(), n, completed));
  }
  cluster.sim.run();
  EXPECT_EQ(completed, 4);
}

TEST(KvClusterTest, GetHashesEachValueByteOnce) {
  // The server checks the copy it ships against the item CRC; the client
  // trusts that immutable copy. Inline (1 KiB) and RDMA (256 KiB) values.
  Cluster cluster(2);
  Client client = cluster.make_client(0);
  cluster.sim.spawn([](Client& c) -> Task<void> {
    for (const std::uint64_t n : {1 * KiB, 256 * KiB}) {
      const std::string key = "v" + std::to_string(n);
      CO_ASSERT_OK(co_await c.set(key, make_bytes(pattern_bytes(2, 0, n))));
      const std::uint64_t before = crc32c_bytes();
      auto got = co_await c.get(key);
      CO_ASSERT(crc32c_bytes() - before == n);
      CO_ASSERT(got.is_ok());
      CO_ASSERT(verify_pattern(2, 0, *got.value()));
    }
  }(client));
  cluster.sim.run();
}

TEST(KvClusterTest, SetWithItsCrcHashesNothing) {
  Cluster cluster(2);
  Client client = cluster.make_client(0);
  cluster.sim.spawn([](Client& c) -> Task<void> {
    const Bytes value = pattern_bytes(3, 0, 256 * KiB);
    const std::uint32_t crc = crc32c(value);
    const std::uint64_t before = crc32c_bytes();
    CO_ASSERT_OK(co_await c.set("k", make_bytes(value), false, 0, crc));
    CO_ASSERT(crc32c_bytes() == before);
    // Without a CRC the server hashes the value once.
    CO_ASSERT_OK(co_await c.set("h", make_bytes(value)));
    CO_ASSERT(crc32c_bytes() - before == value.size());
    auto got = co_await c.get_verified("k");
    CO_ASSERT(got.is_ok());
    CO_ASSERT(got.value()->value_crc == crc);
    CO_ASSERT(gather({&got.value()->value, 1}) == value);
  }(client));
  cluster.sim.run();
}

TEST(KvClusterTest, WrongSuppliedCrcFailsEveryReadLoudly) {
  // A SET whose supplied CRC does not match its bytes is stored, and every
  // later read of the key reports kDataLoss; the bytes are never returned.
  Cluster cluster(1);
  Client client = cluster.make_client(0);
  cluster.sim.spawn([](Cluster& cl, Client& c) -> Task<void> {
    const Bytes value = pattern_bytes(4, 0, 64 * KiB);
    CO_ASSERT_OK(co_await c.set("bad", make_bytes(value), false, 0,
                                crc32c(value) ^ 1u));
    auto got = co_await c.get("bad");
    CO_ASSERT(got.code() == StatusCode::kDataLoss);
    CO_ASSERT(cl.sim.metrics().counter_value("kv.integrity.detected") == 1u);
    std::vector<std::string> keys{"bad"};
    auto batch = co_await c.multi_get(std::move(keys));
    CO_ASSERT(batch.is_ok());
    CO_ASSERT(!batch.value()[0].has_value());
    CO_ASSERT(cl.sim.metrics().counter_value("kv.integrity.detected") == 2u);
  }(cluster, client));
  cluster.sim.run();
}

}  // namespace
}  // namespace hpcbb::kv
