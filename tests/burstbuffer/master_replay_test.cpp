// Replay equals live: the master applies every file and block transition
// through one MdRecord state machine, so a master rebuilt from the journal
// alone must serve the same metadata the live master served before the
// crash. Each scheme drives as many record types as it can reach (create,
// add, seal, flush start/complete, lost, quarantine, close, delete), ends
// with a synchronous append so every earlier asynchronous record is durable,
// crashes the master, and compares every file's BbLocations reply and the
// flush/loss counters field by field.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "testing/co_assert.h"
#include "common/units.h"
#include "cluster/cluster.h"
#include "kvstore/ring.h"
#include "sim/sync.h"

namespace hpcbb {
namespace {

using namespace hpcbb::duration;  // NOLINT
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::FsKind;
using sim::Task;

// Journal on with no checkpoint, so recovery rebuilds everything from
// records. Background flushes are paced 100 ms out, which leaves room to
// damage a sealed block's buffer copy before its flush reads it.
ClusterConfig replay_config(bb::Scheme scheme) {
  ClusterConfig config;
  config.compute_nodes = 4;
  config.kv_servers = 2;
  config.oss_count = 2;
  config.block_size = 8 * MiB;
  config.kv_memory_per_server = 128 * MiB;
  config.scheme = scheme;
  config.bb_flowctl.background_pace_ns = 100 * ms;
  config.bb_md.journal = true;
  config.bb_md.checkpoint_interval_ns = 0;
  config.bb_md.journal_max_bytes = 0;
  return config;
}

Task<void> write_file(Cluster& c, std::string path, std::uint64_t seed,
                      std::uint64_t bytes) {
  fs::FileSystem& fs = c.filesystem(FsKind::kBurstBuffer);
  auto writer = co_await fs.create(path, 0);
  CO_ASSERT(writer.is_ok());
  CO_ASSERT_OK(co_await writer.value()->append(
      make_bytes(pattern_bytes(seed, 0, bytes))));
  CO_ASSERT_OK(co_await writer.value()->close());
}

std::uint32_t primary_of(Cluster& c, const std::string& key) {
  return kv::HashRing(c.kv_server_count()).server_for(key);
}

struct MasterView {
  std::map<std::string, bb::BbLocationsReply> files;
  std::uint64_t flushed_blocks = 0;
  std::uint64_t flushed_bytes = 0;
  std::uint64_t lost_blocks = 0;
  std::uint64_t quarantined_blocks = 0;
  std::uint64_t dirty_blocks = 0;
};

// Everything the master serves about its files, as a client sees it.
Task<void> capture(Cluster& c, MasterView& out) {
  net::RpcHub& hub = c.hub_for(FsKind::kBurstBuffer);
  const net::NodeId client = c.compute_nodes().front();
  auto paths = co_await c.filesystem(FsKind::kBurstBuffer).list("/", client);
  CO_ASSERT(paths.is_ok());
  for (const std::string& path : paths.value()) {
    // Built before the co_await: GCC 12 mishandles a braced temporary
    // inside a co_await expression.
    auto req = std::make_shared<const bb::BbLocationsRequest>(
        bb::BbLocationsRequest{path});
    auto reply = co_await hub.call<bb::BbLocationsReply>(
        client, c.bb_master().node(), bb::kBbLocations, req);
    CO_ASSERT(reply.is_ok());
    out.files[path] = *reply.value();
  }
  out.flushed_blocks = c.bb_master().flushed_blocks();
  out.flushed_bytes = c.bb_master().flushed_bytes();
  out.lost_blocks = c.bb_master().lost_blocks();
  out.quarantined_blocks = c.bb_master().quarantined_blocks();
  out.dirty_blocks = c.bb_master().dirty_blocks();
}

Task<void> drive_and_crash(Cluster& c, bb::Scheme scheme, MasterView& live,
                           MasterView& replayed) {
  fs::FileSystem& fs = c.filesystem(FsKind::kBurstBuffer);
  // Create, add, seal, close; flush start and complete unless write-through.
  co_await write_file(c, "/kept", 1, 12 * MiB);
  co_await c.bb_master().wait_all_flushed();
  // Delete.
  co_await write_file(c, "/gone", 2, 8 * MiB);
  co_await c.bb_master().wait_all_flushed();
  CO_ASSERT_OK(co_await fs.remove("/gone", 0));
  if (scheme != bb::Scheme::kSync) {
    // Lost: a chunk of a dirty block vanishes from the buffer, and so does
    // BB-Local's node-local replica. (A KV server crash would lose the block
    // too, but at R=1 it would also take journal records with it.)
    co_await write_file(c, "/lost", 3, 8 * MiB);
    const std::string lost_key = bb::chunk_key("/lost", 0, 0);
    CO_ASSERT(c.kv_server(primary_of(c, lost_key)).store().erase(lost_key));
    if (scheme == bb::Scheme::kLocal) {
      CO_ASSERT_OK(c.agent(0).store().remove(bb::local_object("/lost", 0)));
    }
    // Quarantine: every copy of a dirty block is corrupt.
    co_await write_file(c, "/bad", 4, 8 * MiB);
    const std::string bad_key = bb::chunk_key("/bad", 0, 1);
    CO_ASSERT(!c.injector()
                   .corrupt_target(primary_of(c, bad_key),
                                   CorruptKind::kBitFlip, 7, bad_key)
                   .empty());
    if (scheme == bb::Scheme::kLocal) {
      CO_ASSERT(!c.agent(0)
                     .store()
                     .corrupt_one(bb::local_object("/bad", 0), 5 * MiB,
                                  CorruptKind::kBitFlip)
                     .empty());
    }
    co_await c.bb_master().wait_all_flushed();
    CO_ASSERT(c.bb_master().lost_blocks() == 1u);
    CO_ASSERT(c.bb_master().quarantined_blocks() == 1u);
  }
  // A synchronous append: once it is durable, so is every record before it.
  auto marker = co_await fs.create("/marker", 0);
  CO_ASSERT(marker.is_ok());

  co_await capture(c, live);
  c.injector().crash_master_target(0);
  co_await c.sim().delay(5 * ms);
  c.injector().restart_master_target(0);
  co_await c.bb_master().wait_recovered();
  co_await capture(c, replayed);
}

class MasterReplayTest : public ::testing::TestWithParam<bb::Scheme> {};

TEST_P(MasterReplayTest, ReplayedMetadataMatchesTheLiveMaster) {
  const bb::Scheme scheme = GetParam();
  Cluster cluster(replay_config(scheme));
  MasterView live;
  MasterView replayed;
  cluster.sim().spawn(drive_and_crash(cluster, scheme, live, replayed));
  cluster.sim().run();

  ASSERT_EQ(cluster.bb_master().restarts(), 1u);
  const std::vector<std::string> expected_paths =
      scheme == bb::Scheme::kSync
          ? std::vector<std::string>{"/kept", "/marker"}
          : std::vector<std::string>{"/bad", "/kept", "/lost", "/marker"};
  std::vector<std::string> live_paths;
  for (const auto& [path, reply] : live.files) live_paths.push_back(path);
  ASSERT_EQ(live_paths, expected_paths);
  ASSERT_EQ(replayed.files.size(), live.files.size());

  for (const auto& [path, want] : live.files) {
    SCOPED_TRACE(path);
    const auto it = replayed.files.find(path);
    ASSERT_NE(it, replayed.files.end());
    const bb::BbLocationsReply& got = it->second;
    EXPECT_EQ(got.file_size, want.file_size);
    EXPECT_EQ(got.block_size, want.block_size);
    EXPECT_EQ(got.closed, want.closed);
    ASSERT_EQ(got.blocks.size(), want.blocks.size());
    for (std::size_t b = 0; b < want.blocks.size(); ++b) {
      SCOPED_TRACE("block " + std::to_string(b));
      const bb::BbBlockInfo& g = got.blocks[b];
      const bb::BbBlockInfo& w = want.blocks[b];
      EXPECT_EQ(g.index, w.index);
      EXPECT_EQ(g.state, w.state);
      EXPECT_EQ(g.size, w.size);
      EXPECT_EQ(g.chunk_crcs, w.chunk_crcs);
      EXPECT_EQ(g.op_id, w.op_id);
      EXPECT_EQ(g.local_node, w.local_node);
      EXPECT_EQ(g.replicas, w.replicas);
      EXPECT_EQ(g.reservation_held, w.reservation_held);
    }
  }
  EXPECT_EQ(replayed.flushed_blocks, live.flushed_blocks);
  EXPECT_EQ(replayed.flushed_bytes, live.flushed_bytes);
  EXPECT_EQ(replayed.lost_blocks, live.lost_blocks);
  EXPECT_EQ(replayed.quarantined_blocks, live.quarantined_blocks);
  EXPECT_EQ(replayed.dirty_blocks, 0u);
  EXPECT_EQ(live.dirty_blocks, 0u);
}

std::string scheme_name(const ::testing::TestParamInfo<bb::Scheme>& param) {
  switch (param.param) {
    case bb::Scheme::kAsync: return "Async";
    case bb::Scheme::kSync: return "Sync";
    case bb::Scheme::kLocal: return "Local";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(Schemes, MasterReplayTest,
                         ::testing::Values(bb::Scheme::kAsync,
                                           bb::Scheme::kSync,
                                           bb::Scheme::kLocal),
                         scheme_name);

}  // namespace
}  // namespace hpcbb
