// Direct unit tests of the burst-buffer master's control plane: admission
// throttling, reservation accounting across delete/complete paths, and
// flush telemetry.
#include <gtest/gtest.h>

#include <map>

#include "testing/co_assert.h"
#include "common/units.h"
#include "burstbuffer/filesystem.h"
#include "burstbuffer/master.h"
#include "kvstore/server.h"
#include "lustre/mds.h"
#include "lustre/oss.h"
#include "sim/sync.h"

namespace hpcbb::bb {
namespace {

using namespace hpcbb::duration;  // NOLINT
using net::NodeId;
using sim::Simulation;
using sim::SimTime;
using sim::Task;

struct Rig {
  Simulation sim;
  net::Fabric fabric{sim, 8, net::FabricParams{}};
  net::Transport transport{fabric,
                           net::transport_preset(net::TransportKind::kRdma)};
  net::RpcHub hub{transport};
  std::unique_ptr<lustre::Oss> oss;
  std::unique_ptr<lustre::Mds> mds;
  std::unique_ptr<kv::Server> server;
  std::unique_ptr<Master> master;
  std::unique_ptr<BurstBufferFileSystem> fs;

  explicit Rig(std::uint64_t capacity, std::uint64_t block_size = 4 * MiB) {
    oss = std::make_unique<lustre::Oss>(hub, 5, lustre::OssParams{});
    mds = std::make_unique<lustre::Mds>(
        hub, 4, std::vector<lustre::OstTarget>{{5, 0}, {5, 1}},
        lustre::MdsParams{});
    kv::ServerParams sp;
    sp.store.memory_budget = 256 * MiB;
    server = std::make_unique<kv::Server>(hub, 6, sp);
    CommonParams common;
    common.block_size = block_size;
    common.chunk_size = 1 * MiB;
    MasterParams mp;
    mp.flowctl.capacity_bytes = capacity;
    master = std::make_unique<Master>(hub, 3, std::vector<NodeId>{6}, 4,
                                      common, mp);
    BbFsParams fp;
    fs = std::make_unique<BurstBufferFileSystem>(
        hub, 3, std::vector<NodeId>{6}, 4,
        std::map<NodeId, NodeAgent*>{}, common, fp);
  }
};

TEST(BbMasterTest, AdmissionThrottlesDirtyFootprint) {
  // Capacity 8 MiB at fraction 0.7 with 4 MiB blocks: at most one block can
  // hold a reservation at a time, so a 16 MiB write is paced by flushes.
  Rig rig(/*capacity=*/8 * MiB);
  SimTime unthrottled = 0;
  {
    Rig fat(/*capacity=*/0);  // admission disabled
    fat.sim.spawn([](Rig& r, SimTime& out) -> Task<void> {
      auto writer = co_await r.fs->create("/f", 0);
      CO_ASSERT(writer.is_ok());
      CO_ASSERT_OK(co_await writer.value()->append(
          make_bytes(pattern_bytes(1, 0, 16 * MiB))));
      CO_ASSERT_OK(co_await writer.value()->close());
      out = r.sim.now();
    }(fat, unthrottled));
    fat.sim.run();
  }
  SimTime ack_time = 0;
  rig.sim.spawn([](Rig& r, SimTime& out) -> Task<void> {
    auto writer = co_await r.fs->create("/f", 0);
    CO_ASSERT(writer.is_ok());
    CO_ASSERT_OK(co_await writer.value()->append(
        make_bytes(pattern_bytes(1, 0, 16 * MiB))));
    CO_ASSERT_OK(co_await writer.value()->close());
    out = r.sim.now();
  }(rig, ack_time));
  rig.sim.run();
  // Throttled run acks later than the unthrottled one, but completes, and
  // everything still flushes with no losses.
  EXPECT_GT(ack_time, unthrottled);
  EXPECT_EQ(rig.master->lost_blocks(), 0u);
  EXPECT_EQ(rig.master->dirty_blocks(), 0u);
  EXPECT_EQ(rig.master->flushed_bytes(), 16 * MiB);
}

TEST(BbMasterTest, DeleteWhileDirtyReleasesReservations) {
  Rig rig(/*capacity=*/64 * MiB);
  rig.sim.spawn([](Rig& r) -> Task<void> {
    auto writer = co_await r.fs->create("/f", 0);
    CO_ASSERT(writer.is_ok());
    CO_ASSERT_OK(co_await writer.value()->append(
        make_bytes(pattern_bytes(2, 0, 8 * MiB))));
    CO_ASSERT_OK(co_await writer.value()->close());
    // Delete immediately: some blocks may still be dirty/flushing.
    CO_ASSERT_OK(co_await r.fs->remove("/f", 0));
    // A new file must still be fully writable (reservations released).
    auto writer2 = co_await r.fs->create("/g", 0);
    CO_ASSERT(writer2.is_ok());
    CO_ASSERT_OK(co_await writer2.value()->append(
        make_bytes(pattern_bytes(3, 0, 8 * MiB))));
    CO_ASSERT_OK(co_await writer2.value()->close());
    co_await r.master->wait_all_flushed();
  }(rig));
  rig.sim.run();
  EXPECT_EQ(rig.master->dirty_blocks(), 0u);
  EXPECT_EQ(rig.master->lost_blocks(), 0u);
}

TEST(BbMasterTest, FlushTelemetryAddsUp) {
  Rig rig(/*capacity=*/64 * MiB);
  rig.sim.spawn([](Rig& r) -> Task<void> {
    for (int f = 0; f < 3; ++f) {
      auto writer = co_await r.fs->create("/f" + std::to_string(f), 0);
      CO_ASSERT(writer.is_ok());
      CO_ASSERT_OK(co_await writer.value()->append(make_bytes(
          pattern_bytes(static_cast<std::uint64_t>(f), 0, 6 * MiB))));
      CO_ASSERT_OK(co_await writer.value()->close());
    }
    co_await r.master->wait_all_flushed();
  }(rig));
  rig.sim.run();
  // 3 files x 6 MiB at 4 MiB blocks = 3 x 2 blocks.
  EXPECT_EQ(rig.master->flushed_blocks(), 6u);
  EXPECT_EQ(rig.master->flushed_bytes(), 3 * 6 * MiB);
  EXPECT_EQ(rig.master->lost_blocks(), 0u);
  EXPECT_EQ(rig.master->recovered_blocks(), 0u);
}

TEST(BbMasterTest, TraceSpansCoverEveryFlushedBlock) {
  Rig rig(/*capacity=*/64 * MiB);
  sim::TraceRecorder trace(rig.sim);
  rig.master->set_trace(&trace);
  rig.sim.spawn([](Rig& r) -> Task<void> {
    auto writer = co_await r.fs->create("/f", 0);
    CO_ASSERT(writer.is_ok());
    CO_ASSERT_OK(co_await writer.value()->append(
        make_bytes(pattern_bytes(4, 0, 12 * MiB))));
    CO_ASSERT_OK(co_await writer.value()->close());
    co_await r.master->wait_all_flushed();
  }(rig));
  rig.sim.run();
  // Per flushed block (12 MiB / 4 MiB blocks = 3): one "wait.flush_queue"
  // queue-dwell span plus one "flush.block_N" service span.
  EXPECT_EQ(trace.open_span_count(), 0u);
  std::size_t flush_spans = 0;
  std::size_t wait_spans = 0;
  for (const auto& span : trace.spans()) {
    EXPECT_EQ(span.category, "bb");
    if (span.name.starts_with("flush.")) {
      ++flush_spans;
      EXPECT_GT(span.end_ns, span.begin_ns);
    } else {
      EXPECT_EQ(span.name, "wait.flush_queue");
      ++wait_spans;
      EXPECT_GE(span.end_ns, span.begin_ns);
    }
  }
  EXPECT_EQ(flush_spans, 3u);
  EXPECT_EQ(wait_spans, 3u);
}

TEST(BbMasterTest, SealWithoutOneCrcPerChunkIsRejected) {
  // Per-chunk CRCs are a block's only integrity provenance, so the master
  // refuses a seal that does not carry one per chunk: the block stays open
  // and nothing is queued for flushing.
  Rig rig(/*capacity=*/64 * MiB);
  Status seal;
  BlockState state = BlockState::kDirty;
  rig.sim.spawn([](Rig& r, Status& out, BlockState& st) -> Task<void> {
    // Requests are named locals: GCC destroys aggregate temporaries inside
    // a co_await expression twice.
    auto create = std::make_shared<const BbCreateRequest>(
        BbCreateRequest{"/f", 1});
    CO_ASSERT_OK(co_await r.hub.call<void>(0, 3, kBbCreate, create));
    auto add = std::make_shared<const BbAddBlockRequest>(
        BbAddBlockRequest{"/f", 0, 0, 0});
    CO_ASSERT_OK(co_await r.hub.call<BbAddBlockReply>(0, 3, kBbAddBlock, add));
    auto seal_req = std::make_shared<BbCompleteBlockRequest>();
    seal_req->path = "/f";
    seal_req->size = 2 * MiB;          // two 1 MiB chunks...
    seal_req->chunk_crcs = {0x1234u};  // ...but one CRC
    std::shared_ptr<const BbCompleteBlockRequest> sealed = std::move(seal_req);
    out = (co_await r.hub.call<void>(0, 3, kBbCompleteBlock, sealed)).status();
    auto meta = co_await r.fs->locations("/f", 0);
    CO_ASSERT_OK(meta);
    CO_ASSERT(meta.value().blocks.size() == 1u);
    st = meta.value().blocks[0].state;
  }(rig, seal, state));
  rig.sim.run();
  EXPECT_EQ(seal.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(state, BlockState::kOpen);
  EXPECT_EQ(rig.master->dirty_blocks(), 0u);
  EXPECT_EQ(rig.master->flush_queue_depth(), 0u);
  EXPECT_EQ(rig.master->flushed_blocks(), 0u);
}

}  // namespace
}  // namespace hpcbb::bb
