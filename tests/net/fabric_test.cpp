#include "net/fabric.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "sim/sync.h"

namespace hpcbb::net {
namespace {

using namespace hpcbb::duration;  // NOLINT
using sim::Simulation;
using sim::SimTime;
using sim::Task;

FabricParams test_params() {
  return FabricParams{.link_bytes_per_sec = 100 * MB,
                      .hop_latency_ns = 1 * us,
                      .loopback_bytes_per_sec = 1000 * MB,
                      .loopback_latency_ns = 100};
}

TEST(FabricTest, SingleMessageLatencyPlusSerialization) {
  Simulation sim;
  Fabric fabric(sim, 4, test_params());
  Status status = error(StatusCode::kInternal, "unset");
  sim.spawn([](Fabric& f, Status& out) -> Task<void> {
    out = co_await f.deliver(0, 1, 10 * MB);
  }(fabric, status));
  sim.run();
  EXPECT_TRUE(status.is_ok());
  // 10 MB at 100 MB/s = 100 ms serialization + 1 us hop.
  EXPECT_EQ(sim.now(), 100 * ms + 1 * us);
}

TEST(FabricTest, SerializationCountedOnceOnIdlePath) {
  // Cut-through: doubling hops must NOT double transfer time.
  Simulation sim;
  Fabric fabric(sim, 2, test_params());
  sim.spawn([](Fabric& f) -> Task<void> {
    (void)co_await f.deliver(0, 1, 100 * MB);
  }(fabric));
  sim.run();
  EXPECT_EQ(sim.now(), 1 * sec + 1 * us);
}

TEST(FabricTest, IncastQueuesOnReceiverDownlink) {
  Simulation sim;
  Fabric fabric(sim, 4, test_params());
  std::vector<SimTime> completions;
  for (NodeId src = 0; src < 3; ++src) {
    sim.spawn([](Fabric& f, NodeId s, std::vector<SimTime>& out) -> Task<void> {
      (void)co_await f.deliver(s, 3, 10 * MB);
      out.push_back(f.simulation().now());
    }(fabric, src, completions));
  }
  sim.run();
  ASSERT_EQ(completions.size(), 3u);
  // Three senders to one receiver: downlink serializes 100 ms each.
  EXPECT_EQ(completions[0], 100 * ms + 1 * us);
  EXPECT_EQ(completions[1], 200 * ms + 1 * us);
  EXPECT_EQ(completions[2], 300 * ms + 1 * us);
}

TEST(FabricTest, DistinctPairsDoNotContend) {
  Simulation sim;
  Fabric fabric(sim, 4, test_params());
  std::vector<SimTime> completions;
  sim.spawn([](Fabric& f, std::vector<SimTime>& out) -> Task<void> {
    (void)co_await f.deliver(0, 1, 10 * MB);
    out.push_back(f.simulation().now());
  }(fabric, completions));
  sim.spawn([](Fabric& f, std::vector<SimTime>& out) -> Task<void> {
    (void)co_await f.deliver(2, 3, 10 * MB);
    out.push_back(f.simulation().now());
  }(fabric, completions));
  sim.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], completions[1]);  // full bisection bandwidth
}

TEST(FabricTest, FlowRateCapSlowsTransfer) {
  Simulation sim;
  Fabric fabric(sim, 2, test_params());
  sim.spawn([](Fabric& f) -> Task<void> {
    (void)co_await f.deliver(0, 1, 10 * MB, 50 * MB);  // capped at half rate
  }(fabric));
  sim.run();
  EXPECT_EQ(sim.now(), 200 * ms + 1 * us);
}

TEST(FabricTest, LoopbackBypassesLinks) {
  Simulation sim;
  Fabric fabric(sim, 2, test_params());
  sim.spawn([](Fabric& f) -> Task<void> {
    (void)co_await f.deliver(0, 0, 10 * MB);
  }(fabric));
  sim.run();
  // 10 MB at 1000 MB/s loopback = 10 ms + 100 ns.
  EXPECT_EQ(sim.now(), 10 * ms + 100);
}

TEST(FabricTest, LoopbackSendsStayInOrder) {
  // A small local send submitted behind a large one waits for it: the
  // node's memory path is FIFO, so same-connection streams do not reorder.
  Simulation sim;
  Fabric fabric(sim, 2, test_params());
  std::vector<SimTime> done(2);
  for (std::size_t i = 0; i < 2; ++i) {
    sim.spawn([](Fabric& f, std::uint64_t bytes, SimTime& out) -> Task<void> {
      (void)co_await f.deliver(1, 1, bytes);
      out = f.simulation().now();
    }(fabric, i == 0 ? 10 * MB : 1 * MB, done[i]));
  }
  sim.run();
  // 10 MB then 1 MB at 1000 MB/s, each followed by the 100 ns latency.
  EXPECT_EQ(done[0], 10 * ms + 100);
  EXPECT_EQ(done[1], 11 * ms + 100);
}

TEST(FabricTest, DownNodeRefusesTraffic) {
  Simulation sim;
  Fabric fabric(sim, 2, test_params());
  fabric.set_node_up(1, false);
  Status status;
  sim.spawn([](Fabric& f, Status& out) -> Task<void> {
    out = co_await f.deliver(0, 1, 1 * MB);
  }(fabric, status));
  sim.run();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(fabric.bytes_received(1), 0u);
}

TEST(FabricTest, NodeRecovers) {
  Simulation sim;
  Fabric fabric(sim, 2, test_params());
  fabric.set_node_up(1, false);
  fabric.set_node_up(1, true);
  Status status = error(StatusCode::kInternal, "unset");
  sim.spawn([](Fabric& f, Status& out) -> Task<void> {
    out = co_await f.deliver(0, 1, 1 * MB);
  }(fabric, status));
  sim.run();
  EXPECT_TRUE(status.is_ok());
}

TEST(FabricTest, ByteAccounting) {
  Simulation sim;
  Fabric fabric(sim, 3, test_params());
  sim.spawn([](Fabric& f) -> Task<void> {
    (void)co_await f.deliver(0, 1, 5 * MB);
    (void)co_await f.deliver(0, 2, 3 * MB);
    (void)co_await f.deliver(1, 0, 2 * MB);
  }(fabric));
  sim.run();
  EXPECT_EQ(fabric.bytes_sent(0), 8 * MB);
  EXPECT_EQ(fabric.bytes_received(0), 2 * MB);
  EXPECT_EQ(fabric.bytes_received(1), 5 * MB);
  EXPECT_EQ(fabric.bytes_received(2), 3 * MB);
}

TEST(FabricTest, CpuChargeSerializes) {
  Simulation sim;
  Fabric fabric(sim, 2, test_params());
  std::vector<SimTime> done;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Fabric& f, std::vector<SimTime>& out) -> Task<void> {
      co_await f.charge_cpu(0, 10 * us);
      out.push_back(f.simulation().now());
    }(fabric, done));
  }
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], 10 * us);
  EXPECT_EQ(done[1], 20 * us);
  EXPECT_EQ(done[2], 30 * us);
}

}  // namespace
}  // namespace hpcbb::net
