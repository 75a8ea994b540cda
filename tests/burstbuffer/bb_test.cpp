// Burst-buffer tests: the three schemes' write/read paths, flush pipeline,
// durability semantics, capacity backpressure, and crash recovery.
#include <gtest/gtest.h>

#include <map>

#include "testing/co_assert.h"
#include "common/crc32c.h"
#include "common/units.h"
#include "burstbuffer/filesystem.h"
#include "burstbuffer/master.h"
#include "hdfs/protocol.h"
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

// Node layout: 0..3 compute, 4 = BB master, 5 = Lustre MDS, 6..7 OSS,
// 8..9 KV burst-buffer servers.
struct Rig {
  static constexpr NodeId kMasterNode = 4;
  static constexpr NodeId kMdsNode = 5;

  Simulation sim;
  net::Fabric fabric{sim, 10, net::FabricParams{}};
  net::Transport transport{fabric,
                           net::transport_preset(net::TransportKind::kRdma)};
  net::RpcHub hub{transport};
  std::vector<std::unique_ptr<lustre::Oss>> osses;
  std::unique_ptr<lustre::Mds> mds;
  std::vector<std::unique_ptr<kv::Server>> kv_servers;
  std::vector<NodeId> kv_nodes;
  std::vector<std::unique_ptr<NodeAgent>> agents;
  std::unique_ptr<Master> master;
  std::unique_ptr<BurstBufferFileSystem> fs;

  explicit Rig(Scheme scheme, std::uint64_t kv_mem_per_server = 64 * MiB,
               std::uint64_t block_size = 8 * MiB) {
    for (const NodeId n : {6u, 7u}) {
      osses.push_back(
          std::make_unique<lustre::Oss>(hub, n, lustre::OssParams{}));
    }
    std::vector<lustre::OstTarget> targets;
    for (const NodeId n : {6u, 7u}) {
      for (std::uint32_t t = 0; t < 2; ++t) targets.push_back({n, t});
    }
    mds = std::make_unique<lustre::Mds>(hub, kMdsNode, targets,
                                        lustre::MdsParams{});
    for (const NodeId n : {8u, 9u}) {
      kv::ServerParams sp;
      sp.store.memory_budget = kv_mem_per_server;
      sp.store.shard_count = 2;
      kv_servers.push_back(std::make_unique<kv::Server>(hub, n, sp));
      kv_nodes.push_back(n);
    }
    std::map<NodeId, NodeAgent*> agent_map;
    if (scheme == Scheme::kLocal) {
      for (NodeId n = 0; n < 4; ++n) {
        agents.push_back(std::make_unique<NodeAgent>(hub, n, AgentParams{}));
        agent_map[n] = agents.back().get();
      }
    }
    CommonParams common;
    common.scheme = scheme;
    common.block_size = block_size;
    common.chunk_size = 1 * MiB;
    MasterParams mp;
    mp.flowctl.capacity_bytes = kv_mem_per_server * 2;
    master = std::make_unique<Master>(hub, kMasterNode, kv_nodes, kMdsNode,
                                      common, mp);
    BbFsParams fp;
    fs = std::make_unique<BurstBufferFileSystem>(
        hub, kMasterNode, kv_nodes, kMdsNode, agent_map, common, fp);
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  // Write a pattern file and close it; returns sim time consumed.
  void write_file(const std::string& path, std::uint64_t seed,
                  std::uint64_t size, NodeId client = 0) {
    sim.spawn([](Rig& r, std::string p, std::uint64_t sd, std::uint64_t sz,
                 NodeId c) -> Task<void> {
      auto w = co_await r.fs->create(p, c);
      CO_ASSERT_OK(w);
      CO_ASSERT_OK(co_await w.value()->append(make_bytes(pattern_bytes(sd, 0, sz))));
      CO_ASSERT_OK(co_await w.value()->close());
    }(*this, path, seed, size, client));
    sim.run();
  }

  Bytes read_file(const std::string& path, std::uint64_t size,
                  NodeId client = 0) {
    Bytes got;
    sim.spawn([](Rig& r, std::string p, std::uint64_t sz, NodeId c,
                 Bytes& out) -> Task<void> {
      auto rd = co_await r.fs->open(p, c);
      CO_ASSERT_OK(rd);
      auto data = co_await rd.value()->read(0, sz);
      CO_ASSERT_OK(data);
      out = std::move(data).value();
    }(*this, path, size, client, got));
    sim.run();
    return got;
  }

  void drain_flushes() {
    sim.spawn([](Rig& r) -> Task<void> {
      co_await r.master->wait_all_flushed();
    }(*this));
    sim.run();
  }
};

TEST(WireSizeTest, SlicedPayloadsCostExactlyTheirBytes) {
  // Replies that carry page slices, and a SET that carries a slice of the
  // writer's buffer, are charged their payload bytes and nothing else, as
  // the whole buffers they replace were.
  const BytesPtr buffer = make_bytes(Bytes(3 * MiB, 7));
  const std::vector<ByteSlice> pieces{{buffer, 5, MiB},
                                      {buffer, 2 * MiB, 1000}};
  EXPECT_EQ(AgentReadReply{pieces}.wire_size(), kHeaderBytes + MiB + 1000);
  EXPECT_EQ(lustre::OssReadReply{pieces}.wire_size(),
            lustre::kHeaderBytes + MiB + 1000);
  EXPECT_EQ(hdfs::DnReadReply{pieces}.wire_size(),
            hdfs::kHeaderBytes + MiB + 1000);
  kv::SetRequest set;
  set.key = "key";
  set.value = ByteSlice{buffer, 5, 4096};
  EXPECT_EQ(set.wire_size(), kv::kMsgHeaderBytes + 3 + 4096);
  set.payload_by_rdma = true;
  EXPECT_EQ(set.wire_size(), kv::kMsgHeaderBytes + 3);
}

TEST(SchemeTest, Names) {
  EXPECT_EQ(to_string(Scheme::kAsync), "BB-Async");
  EXPECT_EQ(to_string(Scheme::kSync), "BB-Sync");
  EXPECT_EQ(to_string(Scheme::kLocal), "BB-Local");
}

class BbSchemeTest : public ::testing::TestWithParam<Scheme> {};

INSTANTIATE_TEST_SUITE_P(AllSchemes, BbSchemeTest,
                         ::testing::Values(Scheme::kAsync, Scheme::kSync,
                                           Scheme::kLocal),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param))
                               .substr(3);
                         });

TEST_P(BbSchemeTest, WriteReadRoundTrip) {
  Rig rig(GetParam());
  rig.write_file("/f", 1, 20 * MiB + 99);
  const Bytes got = rig.read_file("/f", 20 * MiB + 99);
  ASSERT_EQ(got.size(), 20 * MiB + 99);
  EXPECT_TRUE(verify_pattern(1, 0, got));
}

TEST_P(BbSchemeTest, UnalignedAppendsAndPartialReads) {
  Rig rig(GetParam());
  rig.sim.spawn([](Rig& r) -> Task<void> {
    auto w = co_await r.fs->create("/f", 1);
    CO_ASSERT_OK(w);
    std::uint64_t off = 0;
    for (int i = 0; i < 40; ++i) {
      const std::uint64_t n = 700 * KiB + 13;  // crosses chunk boundaries
      CO_ASSERT_OK(co_await w.value()->append(
          make_bytes(pattern_bytes(7, off, n))));
      off += n;
    }
    CO_ASSERT_OK(co_await w.value()->close());
    auto rd = co_await r.fs->open("/f", 2);
    CO_ASSERT_OK(rd);
    auto data = co_await rd.value()->read(3 * MiB + 11, 5 * MiB + 17);
    CO_ASSERT_OK(data);
    CO_ASSERT(verify_pattern(7, 3 * MiB + 11, data.value()));
  }(rig));
  rig.sim.run();
}

TEST_P(BbSchemeTest, DataLandsOnLustreAfterFlush) {
  Rig rig(GetParam());
  rig.write_file("/f", 2, 12 * MiB);
  rig.drain_flushes();
  EXPECT_EQ(rig.master->dirty_blocks(), 0u);
  EXPECT_EQ(rig.master->lost_blocks(), 0u);
  // All bytes durable on the OSS devices.
  const std::uint64_t oss_bytes =
      rig.osses[0]->used_bytes() + rig.osses[1]->used_bytes();
  EXPECT_EQ(oss_bytes, 12 * MiB);
}

TEST_P(BbSchemeTest, ReadFallsBackToLustreAfterBufferLoss) {
  Rig rig(GetParam());
  rig.write_file("/f", 3, 12 * MiB);
  rig.drain_flushes();
  // Evict everything from the buffer the hard way: crash both KV servers.
  for (auto& server : rig.kv_servers) server->crash();
  const Bytes got = rig.read_file("/f", 12 * MiB);
  ASSERT_EQ(got.size(), 12 * MiB);
  EXPECT_TRUE(verify_pattern(3, 0, got));
}

TEST_P(BbSchemeTest, HealthyRunIn4MiBAppendsFlushesEveryBlock) {
  // A 4 MiB append ships its four chunks as slices of one sender buffer,
  // and each KV item keeps its slice. The flusher must check each chunk's
  // own slice: one that checked the whole sender buffer would quarantine
  // every block of this healthy run, and its readers would still pass.
  Rig rig(GetParam());
  constexpr std::uint64_t kAppend = 4 * MiB;
  constexpr std::uint64_t kSize = 6 * kAppend;  // three 8 MiB blocks
  rig.sim.spawn([](Rig& r, std::uint64_t append,
                   std::uint64_t size) -> Task<void> {
    auto w = co_await r.fs->create("/f", 0);
    CO_ASSERT_OK(w);
    for (std::uint64_t off = 0; off < size; off += append) {
      CO_ASSERT_OK(co_await w.value()->append(
          make_bytes(pattern_bytes(5, off, append))));
    }
    CO_ASSERT_OK(co_await w.value()->close());
  }(rig, kAppend, kSize));
  rig.sim.run();
  rig.drain_flushes();

  EXPECT_EQ(rig.master->quarantined_blocks(), 0u);
  EXPECT_EQ(rig.master->lost_blocks(), 0u);
  EXPECT_EQ(rig.master->flushed_blocks(), 3u);
  std::vector<BlockState> states;
  Bytes durable;
  lustre::LustreFileSystem lfs(rig.hub, Rig::kMdsNode);
  rig.sim.spawn([](Rig& r, lustre::LustreFileSystem& fs, std::uint64_t size,
                   std::vector<BlockState>& out_states,
                   Bytes& out) -> Task<void> {
    auto where = co_await r.fs->locations("/f", 0);
    CO_ASSERT_OK(where);
    for (const BbBlockInfo& block : where.value().blocks) {
      out_states.push_back(block.state);
    }
    auto rd = co_await fs.open("/bb/f", 0);
    CO_ASSERT_OK(rd);
    auto data = co_await rd.value()->read(0, size);
    CO_ASSERT_OK(data);
    out = std::move(data).value();
  }(rig, lfs, kSize, states, durable));
  rig.sim.run();
  EXPECT_EQ(states, std::vector<BlockState>(3, BlockState::kFlushed));
  ASSERT_EQ(durable.size(), kSize);
  EXPECT_TRUE(verify_pattern(5, 0, durable));
}

TEST(BbAsyncTest, RoundTripChecksumsEachUserByteThreeTimes) {
  // Pins the checksum work of write -> flush -> buffer read at R=1. Per
  // byte: the writer's chunk CRC (which the KV item takes as is), the
  // server verify of the flusher's GET and the server verify of the read's
  // GET. The flusher and the reader compare the verified item CRC with the
  // writer's instead of hashing again. Lowering it is a deliberate change
  // to this test.
  Rig rig(Scheme::kAsync);
  constexpr std::uint64_t kSize = 16 * MiB;
  const std::uint64_t before = crc32c_bytes();
  rig.write_file("/f", 14, kSize);
  rig.drain_flushes();
  const Bytes got = rig.read_file("/f", kSize);
  const std::uint64_t checksummed = crc32c_bytes() - before;
  ASSERT_EQ(got.size(), kSize);
  EXPECT_TRUE(verify_pattern(14, 0, got));
  EXPECT_EQ(rig.master->lost_blocks(), 0u);
  EXPECT_EQ(checksummed, 3 * kSize);
}

TEST(BbLocalTest, RoundTripChecksumsEachUserByteThreeTimes) {
  // The BB-Local counterpart: write -> flush -> read of the writer's
  // RAM-disk replica at R=1. Per byte: the writer's chunk CRC, the server
  // verify of the flusher's GET and the reader's check of the replica,
  // which has no item CRC to compare and so hashes each chunk where it
  // lies. Reading the replica as page pieces adds no hashing.
  Rig rig(Scheme::kLocal);
  constexpr std::uint64_t kSize = 16 * MiB;
  const std::uint64_t before = crc32c_bytes();
  rig.write_file("/f", 15, kSize);
  rig.drain_flushes();
  const Bytes got = rig.read_file("/f", kSize);
  const std::uint64_t checksummed = crc32c_bytes() - before;
  ASSERT_EQ(got.size(), kSize);
  EXPECT_TRUE(verify_pattern(15, 0, got));
  EXPECT_EQ(rig.master->lost_blocks(), 0u);
  EXPECT_EQ(rig.master->recovered_blocks(), 0u);
  EXPECT_EQ(rig.sim.metrics().counter("bb.read.local_crc_failures").get(), 0u);
  EXPECT_EQ(checksummed, 3 * kSize);
}

TEST(BbAsyncTest, CloseReturnsBeforeFlushCompletes) {
  Rig rig(Scheme::kAsync);
  SimTime close_time = 0;
  rig.sim.spawn([](Rig& r, SimTime& out) -> Task<void> {
    auto w = co_await r.fs->create("/f", 0);
    CO_ASSERT_OK(w);
    CO_ASSERT_OK(co_await w.value()->append(
        make_bytes(pattern_bytes(4, 0, 32 * MiB))));
    CO_ASSERT_OK(co_await w.value()->close());
    out = r.sim.now();
  }(rig, close_time));
  rig.sim.run_until(365 * 24 * 3600 * sec);
  // At close, flushes were still pending (ack-on-buffer semantics).
  EXPECT_GT(close_time, 0u);
  rig.sim.run();
  rig.drain_flushes();
  EXPECT_EQ(rig.master->flushed_blocks(), 4u);  // 32 MiB / 8 MiB
  EXPECT_EQ(rig.master->flushed_bytes(), 32 * MiB);
}

TEST(BbSyncTest, DurableAtAck) {
  Rig rig(Scheme::kSync);
  rig.write_file("/f", 5, 16 * MiB);
  // No flush queue involved: data hit Lustre on the write path.
  EXPECT_EQ(rig.master->dirty_blocks(), 0u);
  const std::uint64_t oss_bytes =
      rig.osses[0]->used_bytes() + rig.osses[1]->used_bytes();
  EXPECT_EQ(oss_bytes, 16 * MiB);
}

TEST(BbSyncTest, SlowerThanAsyncUnderBurst) {
  // Four concurrent writers make Lustre the bottleneck for the
  // write-through scheme; BB-Async absorbs the burst at buffer speed.
  auto run = [](Scheme scheme) {
    Rig rig(scheme, /*kv_mem_per_server=*/256 * MiB);
    SimTime last_ack = 0;  // when the last writer's close() was acknowledged
    for (NodeId n = 0; n < 4; ++n) {
      rig.sim.spawn([](Rig& r, NodeId id, SimTime& ack) -> Task<void> {
        auto w = co_await r.fs->create("/f" + std::to_string(id), id);
        CO_ASSERT_OK(w);
        CO_ASSERT_OK(co_await w.value()->append(
            make_bytes(pattern_bytes(id, 0, 32 * MiB))));
        CO_ASSERT_OK(co_await w.value()->close());
        ack = std::max(ack, r.sim.now());
      }(rig, n, last_ack));
    }
    rig.sim.run();  // includes any post-ack flush drain; we return the ack
    return last_ack;
  };
  const SimTime t_async = run(Scheme::kAsync);
  const SimTime t_sync = run(Scheme::kSync);
  EXPECT_GT(static_cast<double>(t_sync), 1.3 * static_cast<double>(t_async))
      << "sync=" << t_sync << " async=" << t_async;
}

TEST(BbLocalTest, LocalReplicaOnWriterRamDisk) {
  Rig rig(Scheme::kLocal);
  rig.write_file("/f", 7, 16 * MiB, /*client=*/2);
  EXPECT_EQ(rig.agents[2]->used_bytes(), 16 * MiB);
  EXPECT_EQ(rig.agents[0]->used_bytes(), 0u);
}

TEST(BbLocalTest, BlockLocationsExposeLocality) {
  Rig rig(Scheme::kLocal);
  rig.write_file("/f", 8, 16 * MiB, /*client=*/3);
  std::vector<std::vector<NodeId>> locs;
  rig.sim.spawn([](Rig& r, std::vector<std::vector<NodeId>>& out) -> Task<void> {
    auto l = co_await r.fs->block_locations("/f", 0);
    CO_ASSERT_OK(l);
    out = l.value();
  }(rig, locs));
  rig.sim.run();
  ASSERT_EQ(locs.size(), 2u);
  for (const auto& nodes : locs) {
    ASSERT_EQ(nodes.size(), 1u);
    EXPECT_EQ(nodes[0], 3u);
  }
}

TEST(BbAsyncTest, NoLocalityWithoutLocalScheme) {
  Rig rig(Scheme::kAsync);
  rig.write_file("/f", 9, 8 * MiB);
  std::vector<std::vector<NodeId>> locs;
  rig.sim.spawn([](Rig& r, std::vector<std::vector<NodeId>>& out) -> Task<void> {
    auto l = co_await r.fs->block_locations("/f", 0);
    CO_ASSERT_OK(l);
    out = l.value();
  }(rig, locs));
  rig.sim.run();
  ASSERT_EQ(locs.size(), 1u);
  EXPECT_TRUE(locs[0].empty());
}

TEST(BbFaultTest, AsyncDirtyDataLostOnServerCrash) {
  // Crash the buffer before any flush can run: dirty blocks are lost —
  // the BB-Async durability window, observable and accounted.
  Rig rig(Scheme::kAsync);
  MasterParams mp = rig.master->params();
  (void)mp;
  rig.sim.spawn([](Rig& r) -> Task<void> {
    auto w = co_await r.fs->create("/f", 0);
    CO_ASSERT_OK(w);
    CO_ASSERT_OK(co_await w.value()->append(
        make_bytes(pattern_bytes(10, 0, 8 * MiB))));
    // Crash both servers the instant the data is acknowledged.
    CO_ASSERT_OK(co_await w.value()->close());
    for (auto& server : r.kv_servers) server->crash();
  }(rig));
  rig.sim.run();
  rig.drain_flushes();
  EXPECT_GT(rig.master->lost_blocks(), 0u);
  // Reads report the loss rather than fabricating data.
  StatusCode code{};
  rig.sim.spawn([](Rig& r, StatusCode& out) -> Task<void> {
    auto rd = co_await r.fs->open("/f", 1);
    CO_ASSERT_OK(rd);
    out = (co_await rd.value()->read(0, 8 * MiB)).code();
  }(rig, code));
  rig.sim.run();
  EXPECT_EQ(code, StatusCode::kDataLoss);
}

TEST(BbFaultTest, LocalSchemeRecoversDirtyDataFromRamDisk) {
  Rig rig(Scheme::kLocal);
  rig.sim.spawn([](Rig& r) -> Task<void> {
    auto w = co_await r.fs->create("/f", 0);
    CO_ASSERT_OK(w);
    CO_ASSERT_OK(co_await w.value()->append(
        make_bytes(pattern_bytes(11, 0, 8 * MiB))));
    CO_ASSERT_OK(co_await w.value()->close());
    for (auto& server : r.kv_servers) server->crash();
  }(rig));
  rig.sim.run();
  rig.drain_flushes();
  // The flusher pulled the block from the writer's RAM disk instead.
  EXPECT_EQ(rig.master->lost_blocks(), 0u);
  EXPECT_GT(rig.master->recovered_blocks(), 0u);
  const Bytes got = rig.read_file("/f", 8 * MiB, /*client=*/1);
  EXPECT_TRUE(verify_pattern(11, 0, got));
}

TEST(BbLocalTest, FlushOfPaddedTailChunkReadsTheBuffer) {
  // 1.5 MiB is not a multiple of the 1 MiB chunk: the buffer holds the tail
  // chunk padded. A healthy buffer must satisfy the flush without falling
  // back to the writer's RAM disk.
  Rig rig(Scheme::kLocal);
  rig.write_file("/f", 13, MiB + MiB / 2);
  rig.drain_flushes();
  EXPECT_EQ(rig.master->recovered_blocks(), 0u);
  EXPECT_EQ(rig.master->lost_blocks(), 0u);
  lustre::LustreFileSystem lfs(rig.hub, Rig::kMdsNode);
  Bytes got;
  rig.sim.spawn([](lustre::LustreFileSystem& fs, Bytes& out) -> Task<void> {
    auto rd = co_await fs.open("/bb/f", 0);
    CO_ASSERT_OK(rd);
    auto data = co_await rd.value()->read(0, 2 * MiB);
    CO_ASSERT_OK(data);
    out = std::move(data).value();
  }(lfs, got));
  rig.sim.run();
  ASSERT_EQ(got.size(), MiB + MiB / 2);
  EXPECT_TRUE(verify_pattern(13, 0, got));
}

TEST(BbFaultTest, SyncSchemeSurvivesBufferCrashCompletely) {
  Rig rig(Scheme::kSync);
  rig.write_file("/f", 12, 16 * MiB);
  for (auto& server : rig.kv_servers) server->crash();
  const Bytes got = rig.read_file("/f", 16 * MiB, /*client=*/2);
  ASSERT_EQ(got.size(), 16 * MiB);
  EXPECT_TRUE(verify_pattern(12, 0, got));
  EXPECT_EQ(rig.master->lost_blocks(), 0u);
}

TEST(BbCapacityTest, BackpressureWhenBufferSmallerThanBurst) {
  // 32 MiB of buffer (2 servers x 16 MiB), 64 MiB burst: the writer must be
  // throttled by flush progress (admission control), not fail.
  Rig small(Scheme::kAsync, /*kv_mem_per_server=*/16 * MiB);
  small.write_file("/f", 13, 64 * MiB);
  small.drain_flushes();
  EXPECT_EQ(small.master->lost_blocks(), 0u);
  const Bytes got = small.read_file("/f", 64 * MiB, 1);
  ASSERT_EQ(got.size(), 64 * MiB);
  EXPECT_TRUE(verify_pattern(13, 0, got));

  // And it is slower than an amply-sized buffer.
  Rig big(Scheme::kAsync, /*kv_mem_per_server=*/128 * MiB);
  big.write_file("/f", 13, 64 * MiB);
  // Compare write-completion times (the small rig's includes throttling).
  EXPECT_GT(small.sim.now(), big.sim.now());
}

TEST(BbNamespaceTest, CreateListRemoveStat) {
  Rig rig(Scheme::kAsync);
  rig.write_file("/dir/a", 14, 2 * MiB);
  rig.write_file("/dir/b", 15, 3 * MiB);
  rig.drain_flushes();
  fs::FileInfo info;
  std::vector<std::string> listed;
  StatusCode dup{}, gone{};
  rig.sim.spawn([](Rig& r, fs::FileInfo& fi, std::vector<std::string>& ls,
                   StatusCode& d, StatusCode& g) -> Task<void> {
    auto s = co_await r.fs->stat("/dir/a", 0);
    CO_ASSERT_OK(s);
    fi = s.value();
    d = (co_await r.fs->create("/dir/a", 0)).code();
    auto l = co_await r.fs->list("/dir", 0);
    CO_ASSERT_OK(l);
    ls = l.value();
    CO_ASSERT_OK(co_await r.fs->remove("/dir/a", 0));
    g = (co_await r.fs->open("/dir/a", 0)).code();
  }(rig, info, listed, dup, gone));
  rig.sim.run();
  EXPECT_EQ(info.size, 2 * MiB);
  EXPECT_EQ(dup, StatusCode::kAlreadyExists);
  EXPECT_EQ(listed, (std::vector<std::string>{"/dir/a", "/dir/b"}));
  EXPECT_EQ(gone, StatusCode::kNotFound);
}

TEST(BbNamespaceTest, RemoveReleasesBufferAndLustre) {
  Rig rig(Scheme::kAsync);
  rig.write_file("/f", 16, 8 * MiB);
  rig.drain_flushes();
  rig.sim.spawn([](Rig& r) -> Task<void> {
    CO_ASSERT_OK(co_await r.fs->remove("/f", 0));
  }(rig));
  rig.sim.run();
  EXPECT_EQ(rig.osses[0]->used_bytes() + rig.osses[1]->used_bytes(), 0u);
  std::uint64_t kv_items = 0;
  for (auto& server : rig.kv_servers) kv_items += server->store().stats().items;
  EXPECT_EQ(kv_items, 0u);
}

TEST(BbReadTest, BufferReadsBeatLustreReads) {
  // Buffer-resident read vs post-crash Lustre fallback read of the same
  // file: the buffer path must be several times faster (the paper's 8x
  // read gain comes from exactly this).
  Rig rig(Scheme::kAsync);
  rig.write_file("/f", 17, 32 * MiB);
  rig.drain_flushes();

  const SimTime t0 = rig.sim.now();
  (void)rig.read_file("/f", 32 * MiB, 1);
  const SimTime buffered = rig.sim.now() - t0;

  for (auto& server : rig.kv_servers) server->crash();
  const SimTime t1 = rig.sim.now();
  (void)rig.read_file("/f", 32 * MiB, 1);
  const SimTime lustre = rig.sim.now() - t1;

  EXPECT_GT(static_cast<double>(lustre), 2.0 * static_cast<double>(buffered))
      << "buffered=" << buffered << " lustre=" << lustre;
}

}  // namespace
}  // namespace hpcbb::bb
