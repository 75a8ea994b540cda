// Failure-injection integration tests: crashes and outages at awkward
// moments across the full stack, asserting each scheme's availability
// contract and that nothing ever fabricates data.
#include <gtest/gtest.h>

#include "testing/co_assert.h"
#include "common/units.h"
#include "cluster/cluster.h"
#include "mapred/workloads.h"
#include "sim/sync.h"

namespace hpcbb {
namespace {

using namespace hpcbb::duration;  // NOLINT
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::FsKind;
using net::NodeId;
using sim::Task;

ClusterConfig small_config(bb::Scheme scheme) {
  ClusterConfig config;
  config.compute_nodes = 4;
  config.kv_servers = 2;
  config.oss_count = 2;
  config.block_size = 8 * MiB;
  config.kv_memory_per_server = 128 * MiB;
  config.scheme = scheme;
  return config;
}

TEST(FailureTest, HdfsWriterSurvivesNothingButReportsPipelineDeath) {
  // A DataNode in the pipeline dies mid-write: the writer must surface an
  // error (our simplified client does not re-pipeline) rather than ack
  // silently-incomplete data.
  Cluster cluster(small_config(bb::Scheme::kAsync));
  StatusCode code{};
  cluster.sim().spawn([](Cluster& c, StatusCode& out) -> Task<void> {
    fs::FileSystem& fs = c.filesystem(FsKind::kHdfs);
    auto writer = co_await fs.create("/f", 0);
    CO_ASSERT(writer.is_ok());
    CO_ASSERT_OK(co_await writer.value()->append(
        make_bytes(pattern_bytes(1, 0, 4 * MiB))));
    // Kill every non-writer DataNode: the pipeline must break.
    for (NodeId n = 1; n < 4; ++n) c.datanode(n).crash();
    Status st = co_await writer.value()->append(
        make_bytes(pattern_bytes(1, 4 * MiB, 8 * MiB)));
    if (st.is_ok()) st = co_await writer.value()->close();
    out = st.code();
  }(cluster, code));
  cluster.sim().run();
  EXPECT_EQ(code, StatusCode::kUnavailable);
}

TEST(FailureTest, FlushRetriesThroughLustreOutage) {
  // Lustre (all OSS nodes) goes down after the burst is acked; the flusher
  // must requeue with backoff, then complete once Lustre returns — no data
  // loss, and no retry storm against the KV tier meanwhile.
  Cluster cluster(small_config(bb::Scheme::kAsync));
  std::uint64_t outage_gets = 0;
  std::uint64_t retries = 0;
  cluster.sim().spawn([](Cluster& c, std::uint64_t& gets,
                         std::uint64_t& flush_retries) -> Task<void> {
    fs::FileSystem& fs = c.filesystem(FsKind::kBurstBuffer);
    auto writer = co_await fs.create("/f", 0);
    CO_ASSERT(writer.is_ok());
    // Take Lustre down *before* writing so no flush can land.
    const NodeId oss0 = c.oss(0).node();
    const NodeId oss1 = c.oss(1).node();
    c.fabric().set_node_up(oss0, false);
    c.fabric().set_node_up(oss1, false);
    CO_ASSERT_OK(co_await writer.value()->append(
        make_bytes(pattern_bytes(2, 0, 16 * MiB))));
    CO_ASSERT_OK(co_await writer.value()->close());  // ack needs no Lustre
    // Flushers retry against the outage for a while. The writer is done, so
    // every KV GET in this window is a flusher re-reading a block.
    const auto kv_gets = [&c] {
      return c.sim().metrics().counter_value("kv.hits") +
             c.sim().metrics().counter_value("kv.misses");
    };
    const std::uint64_t gets_before = kv_gets();
    co_await c.sim().delay(2 * sec);
    gets = kv_gets() - gets_before;
    flush_retries = c.sim().metrics().counter_value("bb.flush.retries");
    CO_ASSERT(c.bb_master().flushed_blocks() == 0u);
    CO_ASSERT(c.bb_master().lost_blocks() == 0u);
    // Recovery.
    c.fabric().set_node_up(oss0, true);
    c.fabric().set_node_up(oss1, true);
    co_await c.bb_master().wait_all_flushed();
    CO_ASSERT(c.bb_master().flushed_blocks() == 2u);
    CO_ASSERT(c.bb_master().lost_blocks() == 0u);
  }(cluster, outage_gets, retries));
  cluster.sim().run();
  EXPECT_EQ(cluster.bb_master().flushed_bytes(), 16 * MiB);
  EXPECT_GT(retries, 0u);
  // Two 8-chunk blocks, each re-read once per backoff retry: at most 16
  // re-reads per block in 2 s. Requeueing at once re-read each block about
  // 1,150 times (18k GETs), because a write to a down OSS fails at once.
  EXPECT_LE(outage_gets, 2u * 8u * 16u) << retries << " flush retries";
}

// The two flush requeue schedules, pinned exactly: the number of Lustre
// retries and the simulated time the last block turns durable. Any change
// to a requeue delay, or to which outage counts as a Lustre retry, moves
// one of these figures.
struct FlushSchedule {
  std::uint64_t retries = 0;
  sim::SimTime flushed_at = 0;
};

TEST(FailureTest, LustreOutageFlushScheduleIsPinned) {
  // Every OSS is down for a fixed 1 s from the first write. With the
  // heartbeat off, each Lustre retry backs off from 1 ms, doubling up to
  // the 500 ms cap.
  Cluster cluster(small_config(bb::Scheme::kAsync));
  FlushSchedule got;
  cluster.sim().spawn([](Cluster& c, FlushSchedule& out) -> Task<void> {
    fs::FileSystem& fs = c.filesystem(FsKind::kBurstBuffer);
    auto writer = co_await fs.create("/f", 0);
    CO_ASSERT(writer.is_ok());
    const sim::SimTime start = c.sim().now();
    for (std::uint32_t i = 0; i < 2; ++i) {
      c.fabric().set_node_up(c.oss(i).node(), false);
    }
    CO_ASSERT_OK(co_await writer.value()->append(
        make_bytes(pattern_bytes(2, 0, 16 * MiB))));
    CO_ASSERT_OK(co_await writer.value()->close());
    co_await c.sim().delay_until(start + 1 * sec);
    for (std::uint32_t i = 0; i < 2; ++i) {
      c.fabric().set_node_up(c.oss(i).node(), true);
    }
    co_await c.bb_master().wait_all_flushed();
    out.retries = c.sim().metrics().counter_value("bb.flush.retries");
    out.flushed_at = c.sim().now();
  }(cluster, got));
  cluster.sim().run();
  EXPECT_EQ(cluster.bb_master().flushed_blocks(), 2u);
  EXPECT_EQ(cluster.bb_master().lost_blocks(), 0u);
  EXPECT_EQ(got.retries, 20u);
  EXPECT_EQ(got.flushed_at, 1'064'518'582u);
}

TEST(FailureTest, BufferReadOutageFlushScheduleIsPinned) {
  // R=2 with the heartbeat on: both KV nodes drop off the fabric for a
  // fixed 200 ms right after the ack. Flush reads fail, the detector puts
  // the master in degraded mode, and each failed read is requeued one
  // heartbeat later until the nodes return. A buffer-read requeue is not a
  // Lustre retry, so bb.flush.retries stays at zero.
  ClusterConfig config = small_config(bb::Scheme::kAsync);
  config.kv_client.replication_factor = 2;
  config.bb_heartbeat_interval_ns = 5 * ms;
  Cluster cluster(config);
  FlushSchedule got;
  cluster.sim().spawn([](Cluster& c, FlushSchedule& out) -> Task<void> {
    fs::FileSystem& fs = c.filesystem(FsKind::kBurstBuffer);
    auto writer = co_await fs.create("/f", 0);
    CO_ASSERT(writer.is_ok());
    CO_ASSERT_OK(co_await writer.value()->append(
        make_bytes(pattern_bytes(3, 0, 16 * MiB))));
    CO_ASSERT_OK(co_await writer.value()->close());
    for (std::uint32_t i = 0; i < c.kv_server_count(); ++i) {
      c.fabric().set_node_up(c.kv_server(i).node(), false);
    }
    co_await c.sim().delay(200 * ms);
    for (std::uint32_t i = 0; i < c.kv_server_count(); ++i) {
      c.fabric().set_node_up(c.kv_server(i).node(), true);
    }
    co_await c.bb_master().wait_all_flushed();
    out.retries = c.sim().metrics().counter_value("bb.flush.retries");
    out.flushed_at = c.sim().now();
    c.bb_master().stop_heartbeat();
  }(cluster, got));
  cluster.sim().run();
  EXPECT_EQ(cluster.bb_master().flushed_blocks(), 2u);
  EXPECT_EQ(cluster.bb_master().lost_blocks(), 0u);
  EXPECT_EQ(got.retries, 0u);
  EXPECT_EQ(got.flushed_at, 239'730'748u);
}

TEST(FailureTest, BbLocalReadDegradesToBufferWhenAgentDies) {
  // The RAM-disk replica's node crashes: reads must fall back to the KV
  // buffer transparently.
  Cluster cluster(small_config(bb::Scheme::kLocal));
  bool verified = false;
  cluster.sim().spawn([](Cluster& c, bool& ok) -> Task<void> {
    fs::FileSystem& fs = c.filesystem(FsKind::kBurstBuffer);
    auto writer = co_await fs.create("/f", 2);
    CO_ASSERT(writer.is_ok());
    CO_ASSERT_OK(co_await writer.value()->append(
        make_bytes(pattern_bytes(3, 0, 8 * MiB))));
    CO_ASSERT_OK(co_await writer.value()->close());
    c.agent(2).crash();  // RAM disk contents gone, agent unreachable
    auto reader = co_await fs.open("/f", 1);
    CO_ASSERT(reader.is_ok());
    auto data = co_await reader.value()->read(0, 8 * MiB);
    CO_ASSERT(data.is_ok());
    ok = verify_pattern(3, 0, data.value());
  }(cluster, verified));
  cluster.sim().run();
  EXPECT_TRUE(verified);
}

TEST(FailureTest, MapReduceSurvivesKvCrashAfterFlush) {
  // Input written through the BB, fully flushed, then the whole KV tier
  // crashes: a MapReduce job over that input must still succeed by reading
  // from Lustre.
  Cluster cluster(small_config(bb::Scheme::kAsync));
  std::uint64_t matches = ~0ull;
  cluster.sim().spawn([](Cluster& c, std::uint64_t& out) -> Task<void> {
    const auto kind = FsKind::kBurstBuffer;
    mapred::GenerateParams gen;
    gen.files = 4;
    gen.records_per_file = 50000;
    auto generated = co_await mapred::generate_records_input(
        c.filesystem(kind), c.hub_for(kind), c.compute_nodes(), gen);
    CO_ASSERT(generated.is_ok());
    co_await c.bb_master().wait_all_flushed();
    for (std::uint32_t i = 0; i < c.kv_server_count(); ++i) {
      c.kv_server(i).crash();
    }
    auto runner = c.make_runner(kind);
    mapred::GrepJob job;
    std::vector<std::string> inputs;
    for (std::uint32_t i = 0; i < 4; ++i) {
      inputs.push_back(gen.dir + "/part-" + std::to_string(i));
    }
    auto stats = co_await runner->run(job, inputs, "/out/grep");
    // Note: the job OUTPUT also goes through the BB, whose servers are
    // down — so the run as a whole must fail cleanly, not hang or corrupt.
    CO_ASSERT(!stats.is_ok());
    out = 0;
  }(cluster, matches));
  cluster.sim().run();
  EXPECT_EQ(matches, 0u);
}

TEST(FailureTest, MapReduceReadsFlushedInputAfterKvRestart) {
  // Same as above but the KV tier restarts (empty) before the job: input
  // reads miss the buffer and fall back to Lustre; output writes go into
  // the fresh buffer. End-to-end success with verified results.
  Cluster cluster(small_config(bb::Scheme::kAsync));
  std::uint64_t input_checksum = 1, output_checksum = 2;
  cluster.sim().spawn([](Cluster& c, std::uint64_t& in_sum,
                         std::uint64_t& out_sum) -> Task<void> {
    const auto kind = FsKind::kBurstBuffer;
    mapred::GenerateParams gen;
    gen.files = 4;
    gen.records_per_file = 50000;
    auto generated = co_await mapred::generate_records_input(
        c.filesystem(kind), c.hub_for(kind), c.compute_nodes(), gen);
    CO_ASSERT(generated.is_ok());
    in_sum = generated.value().checksum;
    co_await c.bb_master().wait_all_flushed();
    for (std::uint32_t i = 0; i < c.kv_server_count(); ++i) {
      c.kv_server(i).crash();
      c.kv_server(i).restart();
    }
    auto runner = c.make_runner(kind);
    mapred::SortJob job(4);
    std::vector<std::string> inputs;
    for (std::uint32_t i = 0; i < 4; ++i) {
      inputs.push_back(gen.dir + "/part-" + std::to_string(i));
    }
    auto stats = co_await runner->run(job, inputs, "/out/sort");
    CO_ASSERT(stats.is_ok());
    Bytes all;
    for (std::uint32_t r = 0; r < 4; ++r) {
      auto reader = co_await c.filesystem(kind).open(
          "/out/sort/part-" + std::to_string(r), 0);
      CO_ASSERT(reader.is_ok());
      auto data = co_await reader.value()->read(0, reader.value()->size());
      CO_ASSERT(data.is_ok());
      all.insert(all.end(), data.value().begin(), data.value().end());
    }
    CO_ASSERT(mapred::records_sorted(all));
    out_sum = mapred::records_checksum(all);
  }(cluster, input_checksum, output_checksum));
  cluster.sim().run();
  EXPECT_EQ(input_checksum, output_checksum);
}

TEST(FailureTest, HdfsDoubleDataNodeLossStillReadable) {
  // Two of four DataNodes die; with 3x replication at least one replica of
  // every block survives, and sequential re-replication restores health.
  Cluster cluster(small_config(bb::Scheme::kAsync));
  bool verified = false;
  cluster.sim().spawn([](Cluster& c, bool& ok) -> Task<void> {
    fs::FileSystem& fs = c.filesystem(FsKind::kHdfs);
    auto writer = co_await fs.create("/f", 0);
    CO_ASSERT(writer.is_ok());
    CO_ASSERT_OK(co_await writer.value()->append(
        make_bytes(pattern_bytes(4, 0, 24 * MiB))));
    CO_ASSERT_OK(co_await writer.value()->close());
    c.datanode(0).crash();
    (void)c.namenode().mark_datanode_dead(0);
    co_await c.sim().delay(1 * sec);  // let re-replication finish
    c.datanode(1).crash();
    (void)c.namenode().mark_datanode_dead(1);
    co_await c.sim().delay(1 * sec);
    auto reader = co_await fs.open("/f", 2);
    CO_ASSERT(reader.is_ok());
    auto data = co_await reader.value()->read(0, 24 * MiB);
    CO_ASSERT(data.is_ok());
    ok = verify_pattern(4, 0, data.value());
  }(cluster, verified));
  cluster.sim().run();
  EXPECT_TRUE(verified);
}

TEST(FailureTest, SyncSchemeToleratesTotalBufferLossMidStream) {
  // BB-Sync: the KV tier dies between two files; the first file (durable
  // on Lustre at ack) remains fully readable.
  Cluster cluster(small_config(bb::Scheme::kSync));
  bool first_ok = false;
  StatusCode second{};
  cluster.sim().spawn([](Cluster& c, bool& ok, StatusCode& snd) -> Task<void> {
    fs::FileSystem& fs = c.filesystem(FsKind::kBurstBuffer);
    auto w1 = co_await fs.create("/f1", 0);
    CO_ASSERT(w1.is_ok());
    CO_ASSERT_OK(co_await w1.value()->append(
        make_bytes(pattern_bytes(5, 0, 8 * MiB))));
    CO_ASSERT_OK(co_await w1.value()->close());
    for (std::uint32_t i = 0; i < c.kv_server_count(); ++i) {
      c.kv_server(i).crash();
    }
    // New writes now fail (buffer tier is the write path). Chunk stores are
    // windowed, so the error may only surface at close().
    auto w2 = co_await fs.create("/f2", 1);
    if (w2.is_ok()) {
      Status st = co_await w2.value()->append(
          make_bytes(pattern_bytes(6, 0, 1 * MiB)));
      if (st.is_ok()) st = co_await w2.value()->close();
      snd = st.code();
    }
    // ...but the durable file reads fine from Lustre.
    auto reader = co_await fs.open("/f1", 2);
    CO_ASSERT(reader.is_ok());
    auto data = co_await reader.value()->read(0, 8 * MiB);
    CO_ASSERT(data.is_ok());
    ok = verify_pattern(5, 0, data.value());
  }(cluster, first_ok, second));
  cluster.sim().run();
  EXPECT_TRUE(first_ok);
  EXPECT_EQ(second, StatusCode::kUnavailable);
}

}  // namespace
}  // namespace hpcbb
