// sim::ResourceQueue as a bandwidth server: each transfer reserves its
// serialization time at the link's rate, as Fabric links and Device do.
#include <gtest/gtest.h>

#include "common/units.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace hpcbb::sim {
namespace {

using namespace hpcbb::duration;  // NOLINT

struct Link {
  Simulation& sim;
  std::uint64_t bytes_per_sec;
  ResourceQueue queue;

  // Completes when the last byte is out; returns the time spent queued.
  Task<SimTime> transfer(std::uint64_t bytes) {
    const SimTime service = transfer_time_ns(bytes, bytes_per_sec);
    const SimTime start = queue.reserve(sim.now(), service);
    const SimTime queued = start - sim.now();
    co_await sim.delay_until(start + service);
    co_return queued;
  }
};

TEST(ResourceQueueTest, ReserveStartsAtEarliestOrWhenFree) {
  ResourceQueue queue;
  EXPECT_EQ(queue.reserve(5, 10), 5u);   // idle: starts when ready
  EXPECT_EQ(queue.reserve(0, 3), 15u);   // ready earlier: waits its turn
  EXPECT_EQ(queue.reserve(40, 0), 40u);  // later than the backlog
  EXPECT_EQ(queue.reserve(0, 1), 40u);   // zero service holds nothing
}

TEST(BandwidthQueueTest, SingleTransferTakesSerializationTime) {
  Simulation sim;
  Link link{sim, 100 * MB, {}};  // 100 MB/s
  sim.spawn([](Link& l) -> Task<void> {
    EXPECT_EQ(co_await l.transfer(50 * MB), 0u);
  }(link));
  sim.run();
  EXPECT_EQ(sim.now(), 500 * ms);
}

TEST(BandwidthQueueTest, ConcurrentTransfersSerialize) {
  Simulation sim;
  Link link{sim, 100 * MB, {}};
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Simulation& s, Link& l,
                 std::vector<SimTime>& out) -> Task<void> {
      (void)co_await l.transfer(10 * MB);  // 100 ms each
      out.push_back(s.now());
    }(sim, link, completions));
  }
  sim.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], 100 * ms);
  EXPECT_EQ(completions[1], 200 * ms);
  EXPECT_EQ(completions[2], 300 * ms);
}

TEST(BandwidthQueueTest, IdleGapsDoNotAccumulate) {
  Simulation sim;
  Link link{sim, 100 * MB, {}};
  sim.spawn([](Simulation& s, Link& l) -> Task<void> {
    (void)co_await l.transfer(10 * MB);           // done at 100 ms
    co_await s.delay(1 * sec);                    // idle gap
    EXPECT_EQ(co_await l.transfer(10 * MB), 0u);  // starts fresh
  }(sim, link));
  sim.run();
  EXPECT_EQ(sim.now(), 1200 * ms);
}

TEST(BandwidthQueueTest, BacklogVisible) {
  Simulation sim;
  Link link{sim, 100 * MB, {}};
  SimTime queued = 0;
  sim.spawn([](Link& l) -> Task<void> {
    (void)co_await l.transfer(100 * MB);  // occupies [0, 1 s)
  }(link));
  sim.spawn([](Link& l, SimTime& out) -> Task<void> {
    out = co_await l.transfer(1 * MB);
  }(link, queued));
  sim.run();
  // The second submitter waited out the 1 s transfer queued ahead of it.
  EXPECT_EQ(queued, 1 * sec);
  EXPECT_EQ(sim.now(), 1010 * ms);
}

TEST(BandwidthQueueTest, ZeroRateMeansInstant) {
  // Rate 0 disables the bandwidth model (used for infinitely-fast stand-ins
  // in unit tests of higher layers).
  Simulation sim;
  Link link{sim, 0, {}};
  sim.spawn([](Link& l) -> Task<void> {
    (void)co_await l.transfer(100 * GiB);
  }(link));
  sim.run();
  EXPECT_EQ(sim.now(), 0u);
}

TEST(BandwidthQueueTest, AggregateThroughputMatchesRate) {
  Simulation sim;
  Link link{sim, 250 * MB, {}};
  constexpr std::uint64_t kChunk = 4 * MiB;
  constexpr int kChunks = 100;
  for (int i = 0; i < kChunks; ++i) {
    sim.spawn([](Link& l) -> Task<void> {
      (void)co_await l.transfer(kChunk);
    }(link));
  }
  sim.run();
  const double mbps = throughput_mbps(kChunk * kChunks, sim.now());
  EXPECT_NEAR(mbps, 250.0, 0.5);
}

}  // namespace
}  // namespace hpcbb::sim
