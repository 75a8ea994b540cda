// End-to-end MapReduce tests on a full simulated cluster, across all five
// storage configurations (HDFS, Lustre, BB x three schemes).
#include <gtest/gtest.h>

#include "testing/co_assert.h"
#include "common/units.h"
#include "cluster/cluster.h"
#include "mapred/workloads.h"
#include "sim/sync.h"

namespace hpcbb::mapred {
namespace {

using namespace hpcbb::duration;  // NOLINT
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::FsKind;
using net::NodeId;
using sim::Task;

ClusterConfig small_config(bb::Scheme scheme = bb::Scheme::kAsync) {
  ClusterConfig config;
  config.compute_nodes = 4;
  config.kv_servers = 2;
  config.oss_count = 2;
  config.block_size = 8 * MiB;
  config.kv_memory_per_server = 128 * MiB;
  config.scheme = scheme;
  return config;
}

struct FsCase {
  FsKind kind;
  bb::Scheme scheme;
  // Held inline, not as a pointer: gtest prints the parameter's raw bytes
  // into each test's name, and a pointer would make that name depend on
  // where the binary happens to be loaded.
  char label[8];
};

class MapredFsTest : public ::testing::TestWithParam<FsCase> {};

INSTANTIATE_TEST_SUITE_P(
    AllFs, MapredFsTest,
    ::testing::Values(
        FsCase{FsKind::kHdfs, bb::Scheme::kAsync, "HDFS"},
        FsCase{FsKind::kLustre, bb::Scheme::kAsync, "Lustre"},
        FsCase{FsKind::kBurstBuffer, bb::Scheme::kAsync, "BBAsync"},
        FsCase{FsKind::kBurstBuffer, bb::Scheme::kSync, "BBSync"},
        FsCase{FsKind::kBurstBuffer, bb::Scheme::kLocal, "BBLocal"}),
    [](const auto& param_info) { return param_info.param.label; });

TEST_P(MapredFsTest, DfsioWriteReadRoundTrip) {
  Cluster cluster(small_config(GetParam().scheme));
  fs::FileSystem& fs = cluster.filesystem(GetParam().kind);
  net::RpcHub& hub = cluster.hub_for(GetParam().kind);

  DfsioParams params;
  params.files = 4;
  params.file_size = 16 * MiB;
  DfsioResult write_result, read_result;
  cluster.sim().spawn([](fs::FileSystem& f, net::RpcHub& h,
                         std::vector<NodeId> nodes, DfsioParams p,
                         DfsioResult& wout, DfsioResult& rout) -> Task<void> {
    auto w = co_await dfsio_write(f, h, nodes, p);
    CO_ASSERT_OK(w);
    wout = w.value();
    auto r = co_await dfsio_read(f, h, nodes, p);
    CO_ASSERT_OK(r);
    rout = r.value();
  }(fs, hub, cluster.compute_nodes(), params, write_result, read_result));
  cluster.sim().run();

  EXPECT_EQ(write_result.bytes, 4 * 16 * MiB);
  EXPECT_EQ(read_result.bytes, 4 * 16 * MiB);
  EXPECT_GT(write_result.aggregate_mbps, 0.0);
  EXPECT_GT(read_result.aggregate_mbps, 0.0);
}

TEST_P(MapredFsTest, SortProducesGloballySortedOutput) {
  Cluster cluster(small_config(GetParam().scheme));
  fs::FileSystem& fs = cluster.filesystem(GetParam().kind);
  net::RpcHub& hub = cluster.hub_for(GetParam().kind);
  auto runner = cluster.make_runner(GetParam().kind);

  GenerateParams gen;
  gen.files = 4;
  gen.records_per_file = 120000;  // 12 MB/file => 48 MB total
  std::uint64_t input_checksum = 0;
  JobStats stats;
  Bytes all_sorted;

  cluster.sim().spawn([](Cluster& c, fs::FileSystem& f, net::RpcHub& h,
                         mapred::JobRunner& r, GenerateParams g,
                         std::uint64_t& checksum, JobStats& st,
                         Bytes& sorted_out) -> Task<void> {
    auto gen_result =
        co_await generate_records_input(f, h, c.compute_nodes(), g);
    CO_ASSERT_OK(gen_result);
    checksum = gen_result.value().checksum;

    SortJob job(8);
    std::vector<std::string> inputs;
    for (std::uint32_t i = 0; i < g.files; ++i) {
      inputs.push_back(g.dir + "/part-" + std::to_string(i));
    }
    auto job_result = co_await r.run(job, inputs, "/out/sort");
    CO_ASSERT_OK(job_result);
    st = job_result.value();

    // Concatenated part files must be globally sorted with the same record
    // multiset as the input.
    for (std::uint32_t part = 0; part < 8; ++part) {
      auto reader =
          co_await f.open("/out/sort/part-" + std::to_string(part), 0);
      CO_ASSERT_OK(reader);
      auto data = co_await reader.value()->read(0, reader.value()->size());
      CO_ASSERT_OK(data);
      sorted_out.insert(sorted_out.end(), data.value().begin(),
                        data.value().end());
    }
  }(cluster, fs, hub, *runner, gen, input_checksum, stats, all_sorted));
  cluster.sim().run();

  const std::uint64_t total_bytes = 4ull * 120000 * kRecordSize;
  ASSERT_EQ(all_sorted.size(), total_bytes);
  EXPECT_TRUE(records_sorted(all_sorted));
  EXPECT_EQ(records_checksum(all_sorted), input_checksum);
  EXPECT_EQ(stats.input_bytes, total_bytes);
  EXPECT_EQ(stats.output_bytes, total_bytes);
  EXPECT_EQ(stats.shuffle_bytes, total_bytes);
  EXPECT_GT(stats.maps_total, 0u);
}

TEST_P(MapredFsTest, GrepCountsConsistently) {
  Cluster cluster(small_config(GetParam().scheme));
  fs::FileSystem& fs = cluster.filesystem(GetParam().kind);
  net::RpcHub& hub = cluster.hub_for(GetParam().kind);
  auto runner = cluster.make_runner(GetParam().kind);

  std::uint64_t matches = 0;
  cluster.sim().spawn([](Cluster& c, fs::FileSystem& f, net::RpcHub& h,
                         mapred::JobRunner& r, std::uint64_t& out) -> Task<void> {
    GenerateParams gen;
    gen.files = 2;
    gen.records_per_file = 100000;
    auto gen_result =
        co_await generate_records_input(f, h, c.compute_nodes(), gen);
    CO_ASSERT_OK(gen_result);

    GrepJob job;
    const std::vector<std::string> inputs{gen.dir + "/part-0",
                                          gen.dir + "/part-1"};
    auto result = co_await r.run(job, inputs, "/out/grep");
    CO_ASSERT_OK(result);
    out = job.total_matches();
  }(cluster, fs, hub, *runner, matches));
  cluster.sim().run();
  // A 2-byte marker in 20 MB of uniform data: expect roughly 20e6/65536.
  EXPECT_GT(matches, 150u);
  EXPECT_LT(matches, 500u);
}

TEST(MapredLocalityTest, HdfsMapsAreMostlyNodeLocal) {
  Cluster cluster(small_config());
  auto runner = cluster.make_runner(FsKind::kHdfs);
  JobStats stats;
  cluster.sim().spawn([](Cluster& c, mapred::JobRunner& r,
                         JobStats& out) -> Task<void> {
    GenerateParams gen;
    gen.files = 4;
    gen.records_per_file = 160000;
    auto g = co_await generate_records_input(c.filesystem(FsKind::kHdfs),
                                             c.hub_for(FsKind::kHdfs),
                                             c.compute_nodes(), gen);
    CO_ASSERT_OK(g);
    SortJob job(4);
    std::vector<std::string> inputs;
    for (std::uint32_t i = 0; i < 4; ++i) {
      inputs.push_back(gen.dir + "/part-" + std::to_string(i));
    }
    auto result = co_await r.run(job, inputs, "/out");
    CO_ASSERT_OK(result);
    out = result.value();
  }(cluster, *runner, stats));
  cluster.sim().run();
  // 3-way replication over 4 nodes: nearly every split has a local replica.
  EXPECT_GT(stats.locality_fraction(), 0.7);
}

TEST(MapredLocalityTest, LustreHasNoLocality) {
  Cluster cluster(small_config());
  auto runner = cluster.make_runner(FsKind::kLustre);
  JobStats stats;
  cluster.sim().spawn([](Cluster& c, mapred::JobRunner& r,
                         JobStats& out) -> Task<void> {
    GenerateParams gen;
    gen.files = 2;
    gen.records_per_file = 100000;
    auto g = co_await generate_records_input(c.filesystem(FsKind::kLustre),
                                             c.hub_for(FsKind::kLustre),
                                             c.compute_nodes(), gen);
    CO_ASSERT_OK(g);
    SortJob job(4);
    const std::vector<std::string> inputs{gen.dir + "/part-0",
                                          gen.dir + "/part-1"};
    auto result = co_await r.run(job, inputs, "/out");
    CO_ASSERT_OK(result);
    out = result.value();
  }(cluster, *runner, stats));
  cluster.sim().run();
  EXPECT_DOUBLE_EQ(stats.locality_fraction(), 0.0);
}

TEST(MapredLocalityTest, BbLocalSchemeRestoresLocality) {
  Cluster cluster(small_config(bb::Scheme::kLocal));
  auto runner = cluster.make_runner(FsKind::kBurstBuffer);
  JobStats stats;
  cluster.sim().spawn([](Cluster& c, mapred::JobRunner& r,
                         JobStats& out) -> Task<void> {
    GenerateParams gen;
    gen.files = 4;
    gen.records_per_file = 100000;
    auto g = co_await generate_records_input(
        c.filesystem(FsKind::kBurstBuffer), c.hub_for(FsKind::kBurstBuffer),
        c.compute_nodes(), gen);
    CO_ASSERT_OK(g);
    SortJob job(4);
    std::vector<std::string> inputs;
    for (std::uint32_t i = 0; i < 4; ++i) {
      inputs.push_back(gen.dir + "/part-" + std::to_string(i));
    }
    auto result = co_await r.run(job, inputs, "/out");
    CO_ASSERT_OK(result);
    out = result.value();
  }(cluster, *runner, stats));
  cluster.sim().run();
  // One local replica per block, written round-robin by its generator node.
  EXPECT_GT(stats.locality_fraction(), 0.7);
}

TEST(ClusterTest, LocalStorageAccounting) {
  // HDFS consumes 3x dataset of node-local storage; BB-Async none.
  const std::uint64_t dataset = 4 * 16 * MiB;
  DfsioParams params;
  params.files = 4;
  params.file_size = 16 * MiB;

  Cluster hdfs_cluster(small_config());
  hdfs_cluster.sim().spawn([](Cluster& c, DfsioParams p) -> Task<void> {
    auto r = co_await dfsio_write(c.filesystem(FsKind::kHdfs),
                                  c.hub_for(FsKind::kHdfs),
                                  c.compute_nodes(), p);
    CO_ASSERT_OK(r);
  }(hdfs_cluster, params));
  hdfs_cluster.sim().run();
  EXPECT_EQ(hdfs_cluster.total_local_bytes_used(), 3 * dataset);

  Cluster bb_cluster(small_config(bb::Scheme::kAsync));
  bb_cluster.sim().spawn([](Cluster& c, DfsioParams p) -> Task<void> {
    auto r = co_await dfsio_write(c.filesystem(FsKind::kBurstBuffer),
                                  c.hub_for(FsKind::kBurstBuffer),
                                  c.compute_nodes(), p);
    CO_ASSERT_OK(r);
  }(bb_cluster, params));
  bb_cluster.sim().run();
  EXPECT_EQ(bb_cluster.total_local_bytes_used(), 0u);

  Cluster local_cluster(small_config(bb::Scheme::kLocal));
  local_cluster.sim().spawn([](Cluster& c, DfsioParams p) -> Task<void> {
    auto r = co_await dfsio_write(c.filesystem(FsKind::kBurstBuffer),
                                  c.hub_for(FsKind::kBurstBuffer),
                                  c.compute_nodes(), p);
    CO_ASSERT_OK(r);
  }(local_cluster, params));
  local_cluster.sim().run();
  // One RAM-disk replica: 1x dataset, i.e. a third of HDFS.
  EXPECT_EQ(local_cluster.total_local_bytes_used(), dataset);
}

TEST(ClusterTest, PaperHeadlineShapes) {
  // The abstract's three headline claims, at reduced scale: BB write beats
  // HDFS and Lustre; BB buffered reads beat both by a wide margin.
  DfsioParams params;
  params.files = 4;
  params.file_size = 32 * MiB;

  struct Numbers {
    double write_mbps, read_mbps;
  };
  auto measure = [&params](FsKind kind, bb::Scheme scheme) {
    // The buffer tier must out-provision the PFS for the paper's write
    // gains (SSD-journaled ingest is ~600 MB/s per KV server).
    ClusterConfig config = small_config(scheme);
    config.kv_servers = 3;
    Cluster cluster(config);
    Numbers numbers{};
    cluster.sim().spawn([](Cluster& c, FsKind k, DfsioParams p,
                           Numbers& out) -> Task<void> {
      auto w = co_await dfsio_write(c.filesystem(k), c.hub_for(k),
                                    c.compute_nodes(), p);
      CO_ASSERT_OK(w);
      out.write_mbps = w.value().aggregate_mbps;
      auto r = co_await dfsio_read(c.filesystem(k), c.hub_for(k),
                                   c.compute_nodes(), p);
      CO_ASSERT_OK(r);
      out.read_mbps = r.value().aggregate_mbps;
    }(cluster, kind, params, numbers));
    cluster.sim().run();
    return numbers;
  };

  const Numbers hdfs = measure(FsKind::kHdfs, bb::Scheme::kAsync);
  const Numbers lustre = measure(FsKind::kLustre, bb::Scheme::kAsync);
  const Numbers bb = measure(FsKind::kBurstBuffer, bb::Scheme::kAsync);

  EXPECT_GT(bb.write_mbps, 1.4 * hdfs.write_mbps);
  EXPECT_GT(bb.write_mbps, 1.1 * lustre.write_mbps);
  EXPECT_GT(bb.read_mbps, 3.0 * hdfs.read_mbps);
  EXPECT_GT(bb.read_mbps, 2.0 * lustre.read_mbps);
}

}  // namespace
}  // namespace hpcbb::mapred
