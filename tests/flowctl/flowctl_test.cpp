// Flow-control subsystem tests: watermark transitions and pressure bands,
// eviction-before-rejection ordering, backpressure release as flushes
// drain, and end-to-end behaviour through the burst-buffer master
// (bounded dirty bytes under overload, BB-Sync differential).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "testing/co_assert.h"
#include "burstbuffer/filesystem.h"
#include "burstbuffer/master.h"
#include "common/units.h"
#include "flowctl/controller.h"
#include "kvstore/server.h"
#include "lustre/mds.h"
#include "lustre/oss.h"
#include "sim/sync.h"

namespace hpcbb::flowctl {
namespace {

using namespace hpcbb::duration;  // NOLINT
using net::NodeId;
using sim::Simulation;
using sim::SimTime;
using sim::Task;

FlowControlParams small_params(std::uint64_t capacity = 100) {
  FlowControlParams p;
  p.capacity_bytes = capacity;  // low 50, high 75, critical 90
  p.background_pace_ns = 0;
  return p;
}

TEST(CapacityControllerTest, DisabledControllerIsTransparent) {
  Simulation sim;
  CapacityController fc(sim, FlowControlParams{});  // capacity 0
  EXPECT_FALSE(fc.enabled());
  SimTime waited = 1;
  sim.spawn([](CapacityController& c, SimTime& out) -> Task<void> {
    out = co_await c.admit(1 * GiB);
  }(fc, waited));
  sim.run();
  EXPECT_EQ(waited, 0u);
  EXPECT_EQ(fc.usage_bytes(), 0u);
  EXPECT_EQ(fc.pressure(), Pressure::kNormal);
}

TEST(CapacityControllerTest, PressureBandsFollowWatermarks) {
  Simulation sim;
  CapacityController fc(sim, small_params());
  sim.spawn([](CapacityController& c) -> Task<void> {
    (void)co_await c.admit(40);
    c.reservation_to_dirty(40, 40);
  }(fc));
  sim.run();
  EXPECT_EQ(fc.pressure(), Pressure::kNormal);  // 40 < low 50
  fc.reservation_to_dirty(0, 20);               // synthetic extra dirty
  EXPECT_EQ(fc.pressure(), Pressure::kElevated);  // 60 in [50, 75)
  fc.reservation_to_dirty(0, 20);
  EXPECT_EQ(fc.pressure(), Pressure::kUrgent);  // 80 in [75, 90)
  fc.reservation_to_dirty(0, 15);
  EXPECT_EQ(fc.pressure(), Pressure::kCritical);  // 95 >= 90
  EXPECT_EQ(fc.peak_dirty_bytes(), 95u);
}

TEST(CapacityControllerTest, WatermarksClampedToNonDecreasingOrder) {
  Simulation sim;
  FlowControlParams p = small_params();
  p.low_watermark = 0.9;
  p.high_watermark = 0.3;   // below low: clamped up
  p.critical_watermark = 0.1;
  CapacityController fc(sim, p);
  EXPECT_GE(fc.high_bytes(), fc.low_bytes());
  EXPECT_GE(fc.critical_bytes(), fc.high_bytes());
}

TEST(CapacityControllerTest, LoneBlockAlwaysAdmitted) {
  // Anti-starvation: with no credits outstanding even an over-capacity
  // block gets in, so a writer can never wedge.
  Simulation sim;
  CapacityController fc(sim, small_params(/*capacity=*/10));
  SimTime waited = 1;
  sim.spawn([](CapacityController& c, SimTime& out) -> Task<void> {
    out = co_await c.admit(1000);
  }(fc, waited));
  sim.run();
  EXPECT_EQ(waited, 0u);
  EXPECT_EQ(fc.reserved_bytes(), 1000u);
}

TEST(CapacityControllerTest, EvictsCleanBeforeStalling) {
  Simulation sim;
  CapacityController fc(sim, small_params());
  SimTime waited = 1;
  sim.spawn([](CapacityController& c, SimTime& out) -> Task<void> {
    // One dirty block plus two clean blocks: usage 60 of 100.
    (void)co_await c.admit(20);
    c.reservation_to_dirty(20, 20);
    (void)co_await c.admit(20);
    c.reservation_to_clean(20, "a", 20);
    (void)co_await c.admit(20);
    c.reservation_to_clean(20, "b", 20);
    // Admitting 20 more would hit 80 > high 75: the controller must evict
    // the LRU clean block rather than stall the writer.
    out = co_await c.admit(20);
  }(fc, waited));
  sim.run();
  EXPECT_EQ(waited, 0u) << "eviction must come before backpressure";
  EXPECT_EQ(fc.clean_block_count(), 1u);
  EXPECT_EQ(fc.clean_bytes(), 20u);
  CleanBlock victim;
  ASSERT_TRUE(fc.evictions().try_recv(victim));
  EXPECT_EQ(sim.metrics().counter("flowctl.evicted_blocks").get(), 1u);
  EXPECT_EQ(sim.metrics().counter("flowctl.evicted_bytes").get(), 20u);
  EXPECT_EQ(sim.metrics().counter("flowctl.stalls").get(), 0u);
}

TEST(CapacityControllerTest, LruOrderAndTouch) {
  Simulation sim;
  CapacityController fc(sim, small_params());
  sim.spawn([](CapacityController& c) -> Task<void> {
    (void)co_await c.admit(20);
    c.reservation_to_dirty(20, 20);  // keep credits nonzero
    (void)co_await c.admit(20);
    c.reservation_to_clean(20, "a", 20);
    (void)co_await c.admit(20);
    c.reservation_to_clean(20, "b", 20);
    c.touch_clean("a");  // "b" becomes the eviction victim
    (void)co_await c.admit(20);
  }(fc));
  sim.run();
  CleanBlock victim;
  ASSERT_TRUE(fc.evictions().try_recv(victim));
  EXPECT_EQ(victim.id, "b");
}

TEST(CapacityControllerTest, StallReleasesWhenFlushDrains) {
  Simulation sim;
  CapacityController fc(sim, small_params());
  SimTime waited = 0;
  sim.spawn([](CapacityController& c, SimTime& out) -> Task<void> {
    (void)co_await c.admit(40);
    c.reservation_to_dirty(40, 40);
    (void)co_await c.admit(30);
    c.reservation_to_dirty(30, 30);
    // dirty 70; +30 would be 100 > high 75: this admit must stall until
    // the "flush" below drains dirty bytes.
    out = co_await c.admit(30);
  }(fc, waited));
  sim.spawn([](Simulation& s, CapacityController& c) -> Task<void> {
    co_await s.delay(5 * ms);
    c.dirty_to_clean("flushed", 40);  // dirty 70 -> 30; clean 40
  }(sim, fc));
  sim.run();
  // Released exactly when the drain landed; the clean block was evicted to
  // keep usage under control (30 dirty + 40 clean + 30 new > high).
  EXPECT_EQ(waited, 5 * ms);
  EXPECT_EQ(sim.metrics().counter("flowctl.stalls").get(), 1u);
  EXPECT_EQ(sim.metrics().histogram("flowctl.stall_ns").count(), 1u);
  EXPECT_EQ(sim.metrics().histogram("flowctl.stall_ns").max(), 5 * ms);
}

TEST(CapacityControllerTest, FlushPaceEscalatesWithDirtyPressure) {
  Simulation sim;
  FlowControlParams p = small_params();
  p.background_pace_ns = 1000;
  CapacityController fc(sim, p);
  EXPECT_EQ(fc.flush_pace(), 1000u);  // normal: background pace
  fc.reservation_to_dirty(0, 60);
  EXPECT_EQ(fc.flush_pace(), 250u);  // elevated: pace / 4
  fc.reservation_to_dirty(0, 20);    // dirty 80 >= high 75
  EXPECT_EQ(fc.flush_pace(), 0u);    // urgent: flat out
  fc.note_flush_begin();
  EXPECT_EQ(sim.metrics().counter("flowctl.urgent_flushes").get(), 1u);
  fc.drop_dirty(80);
  fc.note_flush_begin();  // back to normal: not urgent
  EXPECT_EQ(sim.metrics().counter("flowctl.urgent_flushes").get(), 1u);
}

TEST(CapacityControllerTest, ForgetAndReleaseAccounting) {
  Simulation sim;
  CapacityController fc(sim, small_params());
  sim.spawn([](CapacityController& c) -> Task<void> {
    (void)co_await c.admit(20);
    c.reservation_to_clean(20, "a", 20);
    (void)co_await c.admit(20);  // abandoned
  }(fc));
  sim.run();
  EXPECT_EQ(fc.usage_bytes(), 40u);
  fc.release_reservation(20);
  EXPECT_EQ(fc.reserved_bytes(), 0u);
  fc.forget_clean("a");
  EXPECT_EQ(fc.usage_bytes(), 0u);
  fc.forget_clean("a");  // idempotent
  EXPECT_EQ(fc.clean_block_count(), 0u);
}

// ---- End-to-end through the burst-buffer master ----------------------------

struct Rig {
  Simulation sim;
  net::Fabric fabric{sim, 8, net::FabricParams{}};
  net::Transport transport{fabric,
                           net::transport_preset(net::TransportKind::kRdma)};
  net::RpcHub hub{transport};
  std::unique_ptr<lustre::Oss> oss;
  std::unique_ptr<lustre::Mds> mds;
  std::unique_ptr<kv::Server> server;
  std::unique_ptr<bb::Master> master;
  std::unique_ptr<bb::BurstBufferFileSystem> fs;

  explicit Rig(std::uint64_t capacity, bb::Scheme scheme = bb::Scheme::kAsync,
               std::uint64_t block_size = 4 * MiB) {
    oss = std::make_unique<lustre::Oss>(hub, 5, lustre::OssParams{});
    mds = std::make_unique<lustre::Mds>(
        hub, 4, std::vector<lustre::OstTarget>{{5, 0}, {5, 1}},
        lustre::MdsParams{});
    kv::ServerParams sp;
    sp.store.memory_budget = 256 * MiB;
    server = std::make_unique<kv::Server>(hub, 6, sp);
    bb::CommonParams common;
    common.scheme = scheme;
    common.block_size = block_size;
    common.chunk_size = 1 * MiB;
    bb::MasterParams mp;
    mp.flowctl.capacity_bytes = capacity;
    master = std::make_unique<bb::Master>(hub, 3, std::vector<NodeId>{6}, 4,
                                          common, mp);
    bb::BbFsParams fp;
    fs = std::make_unique<bb::BurstBufferFileSystem>(
        hub, 3, std::vector<NodeId>{6}, 4,
        std::map<NodeId, bb::NodeAgent*>{}, common, fp);
  }
};

// `path` is taken by value: a spawned call's argument is often a temporary
// that is gone before the coroutine first runs.
Task<void> write_file(Rig& r, std::string path, std::uint64_t bytes,
                      SimTime* ack_time = nullptr) {
  auto writer = co_await r.fs->create(path, 0);
  CO_ASSERT(writer.is_ok());
  CO_ASSERT_OK(
      co_await writer.value()->append(make_bytes(pattern_bytes(7, 0, bytes))));
  CO_ASSERT_OK(co_await writer.value()->close());
  if (ack_time != nullptr) *ack_time = r.sim.now();
}

TEST(FlowControlEndToEndTest, OverloadKeepsDirtyBytesUnderHighWatermark) {
  // 64 MiB written through a 16 MiB buffer (4x overcommit): dirty+reserved
  // bytes must stay bounded by the high watermark (+ one in-flight block),
  // and every write must eventually ack with no losses or rejections.
  Rig rig(/*capacity=*/16 * MiB);
  rig.sim.spawn([](Rig& r) -> Task<void> {
    co_await write_file(r, "/overload", 64 * MiB);
    co_await r.master->wait_all_flushed();
  }(rig));
  rig.sim.run();
  const auto& fc = rig.master->flow_control();
  EXPECT_LE(fc.peak_dirty_bytes(),
            fc.high_bytes() + rig.master->common().block_size);
  EXPECT_EQ(rig.master->lost_blocks(), 0u);
  EXPECT_EQ(rig.master->dirty_blocks(), 0u);
  EXPECT_EQ(rig.master->flushed_bytes(), 64 * MiB);
  EXPECT_EQ(fc.dirty_bytes(), 0u);
  EXPECT_EQ(fc.reserved_bytes(), 0u);
  // The working set exceeded capacity, so clean blocks were evicted.
  EXPECT_GT(rig.sim.metrics().counter("flowctl.evicted_bytes").get(), 0u);
}

TEST(FlowControlEndToEndTest, EvictedBlocksRemainReadableFromLustre) {
  Rig rig(/*capacity=*/16 * MiB);
  bool verified = false;
  rig.sim.spawn([](Rig& r, bool& ok) -> Task<void> {
    co_await write_file(r, "/f", 48 * MiB);
    co_await r.master->wait_all_flushed();
    // Early blocks were evicted to fit 48 MiB through 16 MiB of buffer;
    // reads must transparently fall back to the flushed copy on Lustre.
    auto reader = co_await r.fs->open("/f", 0);
    CO_ASSERT(reader.is_ok());
    auto data = co_await reader.value()->read(0, 4 * MiB);
    CO_ASSERT(data.is_ok());
    const Bytes expect = pattern_bytes(7, 0, 4 * MiB);
    CO_ASSERT(data.value() == expect);
    ok = true;
  }(rig, verified));
  rig.sim.run();
  EXPECT_TRUE(verified);
  EXPECT_GT(rig.sim.metrics().counter("bb.read.lustre_fallbacks").get(), 0u);
}

TEST(FlowControlEndToEndTest, BackpressureReleasesAfterDrain) {
  // A second file written after the first one's flushes drain must admit
  // without inheriting the first file's stalls.
  Rig rig(/*capacity=*/16 * MiB);
  SimTime first_ack = 0;
  SimTime second_ack = 0;
  rig.sim.spawn(
      [](Rig& r, SimTime& ack1, SimTime& ack2) -> Task<void> {
        co_await write_file(r, "/a", 32 * MiB, &ack1);
        co_await r.master->wait_all_flushed();
        const SimTime drained = r.sim.now();
        const std::uint64_t stalls_before =
            r.sim.metrics().counter("flowctl.stalls").get();
        co_await write_file(r, "/b", 8 * MiB, &ack2);
        // 8 MiB fits under the high watermark of a drained buffer (clean
        // blocks are evictable): no new admission stalls.
        CO_ASSERT(r.sim.metrics().counter("flowctl.stalls").get() ==
                  stalls_before);
        CO_ASSERT(ack2 > drained);
        co_await r.master->wait_all_flushed();
      }(rig, first_ack, second_ack));
  rig.sim.run();
  EXPECT_GT(rig.sim.metrics().counter("flowctl.stalls").get(), 0u)
      << "the 2x-capacity first file should have stalled at least once";
  EXPECT_GT(second_ack, first_ack);
  EXPECT_EQ(rig.master->lost_blocks(), 0u);
}

TEST(FlowControlEndToEndTest, SyncSchemeDifferentialUnaffected) {
  // BB-Sync writes through to Lustre: data is durable at ack, so flow
  // control must neither stall writers nor escalate flushes. Differential:
  // ack time with flow control enabled == with it disabled (capacity 0).
  SimTime with_fc = 0;
  SimTime without_fc = 0;
  {
    Rig rig(/*capacity=*/32 * MiB, bb::Scheme::kSync);
    rig.sim.spawn(write_file(rig, "/sync", 24 * MiB, &with_fc));
    rig.sim.run();
    EXPECT_EQ(rig.sim.metrics().counter("flowctl.stalls").get(), 0u);
    EXPECT_EQ(rig.sim.metrics().counter("flowctl.urgent_flushes").get(), 0u);
    EXPECT_EQ(rig.master->flow_control().dirty_bytes(), 0u);
  }
  {
    Rig rig(/*capacity=*/0, bb::Scheme::kSync);  // subsystem disabled
    rig.sim.spawn(write_file(rig, "/sync", 24 * MiB, &without_fc));
    rig.sim.run();
  }
  EXPECT_EQ(with_fc, without_fc);
}

}  // namespace
}  // namespace hpcbb::flowctl
