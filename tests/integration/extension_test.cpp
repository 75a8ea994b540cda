// Tests for the design extensions beyond the paper's base system: read
// promotion (buffer as read cache) and the ByteHistogram (WordCount-class)
// workload.
#include <gtest/gtest.h>

#include <array>

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
using sim::SimTime;
using sim::Task;

ClusterConfig promo_config(bool promote) {
  ClusterConfig config;
  config.compute_nodes = 4;
  config.kv_servers = 2;
  config.oss_count = 2;
  config.block_size = 8 * MiB;
  config.kv_memory_per_server = 128 * MiB;
  config.bb_promote_on_read = promote;
  return config;
}

// Write a file, flush, wipe the buffer (crash+restart), then read twice.
// With promotion on, the second read must be served from the buffer and be
// substantially faster than the first (which paid the Lustre price).
TEST(ReadPromotionTest, SecondReadHitsBuffer) {
  Cluster cluster(promo_config(true));
  SimTime first_read = 0, second_read = 0;
  cluster.sim().spawn([](Cluster& c, SimTime& first, SimTime& second)
                          -> Task<void> {
    fs::FileSystem& fs = c.filesystem(FsKind::kBurstBuffer);
    auto writer = co_await fs.create("/f", 0);
    CO_ASSERT(writer.is_ok());
    CO_ASSERT_OK(co_await writer.value()->append(
        make_bytes(pattern_bytes(1, 0, 32 * MiB))));
    CO_ASSERT_OK(co_await writer.value()->close());
    co_await c.bb_master().wait_all_flushed();
    for (std::uint32_t i = 0; i < c.kv_server_count(); ++i) {
      c.kv_server(i).crash();
      c.kv_server(i).restart();  // buffer now empty; data only on Lustre
    }

    auto reader = co_await fs.open("/f", 1);
    CO_ASSERT(reader.is_ok());
    SimTime t0 = c.sim().now();
    auto data1 = co_await reader.value()->read(0, 32 * MiB);
    CO_ASSERT(data1.is_ok());
    CO_ASSERT(verify_pattern(1, 0, data1.value()));
    first = c.sim().now() - t0;

    // Let detached promotion stores land.
    co_await c.sim().delay(100 * duration::ms);

    t0 = c.sim().now();
    auto data2 = co_await reader.value()->read(0, 32 * MiB);
    CO_ASSERT(data2.is_ok());
    CO_ASSERT(verify_pattern(1, 0, data2.value()));
    second = c.sim().now() - t0;
  }(cluster, first_read, second_read));
  cluster.sim().run();
  EXPECT_GT(static_cast<double>(first_read),
            2.0 * static_cast<double>(second_read))
      << "first=" << first_read << " second=" << second_read;
  // And the promoted chunks are real items in the stores.
  std::uint64_t items = 0;
  for (std::uint32_t i = 0; i < cluster.kv_server_count(); ++i) {
    items += cluster.kv_server(i).store().stats().items;
  }
  EXPECT_EQ(items, 32u);  // 32 MiB / 1 MiB chunks
}

TEST(ReadPromotionTest, OffByDefaultNoRepopulation) {
  Cluster cluster(promo_config(false));
  cluster.sim().spawn([](Cluster& c) -> Task<void> {
    fs::FileSystem& fs = c.filesystem(FsKind::kBurstBuffer);
    auto writer = co_await fs.create("/f", 0);
    CO_ASSERT(writer.is_ok());
    CO_ASSERT_OK(co_await writer.value()->append(
        make_bytes(pattern_bytes(2, 0, 8 * MiB))));
    CO_ASSERT_OK(co_await writer.value()->close());
    co_await c.bb_master().wait_all_flushed();
    for (std::uint32_t i = 0; i < c.kv_server_count(); ++i) {
      c.kv_server(i).crash();
      c.kv_server(i).restart();
    }
    auto reader = co_await fs.open("/f", 1);
    CO_ASSERT(reader.is_ok());
    auto data = co_await reader.value()->read(0, 8 * MiB);
    CO_ASSERT(data.is_ok());
  }(cluster));
  cluster.sim().run();
  std::uint64_t items = 0;
  for (std::uint32_t i = 0; i < cluster.kv_server_count(); ++i) {
    items += cluster.kv_server(i).store().stats().items;
  }
  EXPECT_EQ(items, 0u);
}

TEST(ReadPromotionTest, PromotedDataSurvivesChecksumValidation) {
  // Full-block reads of promoted (padded, then trimmed) chunks must pass
  // the end-to-end CRC — exercising the pad/trim interplay.
  Cluster cluster(promo_config(true));
  cluster.sim().spawn([](Cluster& c) -> Task<void> {
    fs::FileSystem& fs = c.filesystem(FsKind::kBurstBuffer);
    const std::uint64_t size = 13 * MiB + 777;  // partial last block+chunk
    auto writer = co_await fs.create("/f", 0);
    CO_ASSERT(writer.is_ok());
    CO_ASSERT_OK(co_await writer.value()->append(
        make_bytes(pattern_bytes(3, 0, size))));
    CO_ASSERT_OK(co_await writer.value()->close());
    co_await c.bb_master().wait_all_flushed();
    for (std::uint32_t i = 0; i < c.kv_server_count(); ++i) {
      c.kv_server(i).crash();
      c.kv_server(i).restart();
    }
    auto reader = co_await fs.open("/f", 1);
    CO_ASSERT(reader.is_ok());
    auto first = co_await reader.value()->read(0, size);
    CO_ASSERT(first.is_ok());
    co_await c.sim().delay(100 * duration::ms);
    auto second = co_await reader.value()->read(0, size);
    CO_ASSERT(second.is_ok());
    CO_ASSERT(verify_pattern(3, 0, second.value()));
  }(cluster));
  cluster.sim().run();
}

TEST(ByteHistogramTest, CountsEveryInputByte) {
  Cluster cluster(promo_config(false));
  std::uint64_t total = 0, expect = 0;
  cluster.sim().spawn([](Cluster& c, std::uint64_t& out,
                         std::uint64_t& want) -> Task<void> {
    const auto kind = FsKind::kBurstBuffer;
    mapred::GenerateParams gen;
    gen.files = 4;
    gen.records_per_file = 60000;
    auto generated = co_await mapred::generate_records_input(
        c.filesystem(kind), c.hub_for(kind), c.compute_nodes(), gen);
    CO_ASSERT(generated.is_ok());
    want = generated.value().bytes;

    auto runner = c.make_runner(kind);
    mapred::ByteHistogramJob job(4);
    std::vector<std::string> inputs;
    for (std::uint32_t i = 0; i < 4; ++i) {
      inputs.push_back(gen.dir + "/part-" + std::to_string(i));
    }
    auto stats = co_await runner->run(job, inputs, "/out/hist");
    CO_ASSERT(stats.is_ok());
    out = job.total_count();
    // Combiner effect: shuffle is orders of magnitude below input.
    CO_ASSERT(stats.value().shuffle_bytes <
              stats.value().input_bytes / 100);
  }(cluster, total, expect));
  cluster.sim().run();
  EXPECT_EQ(total, expect);
  EXPECT_GT(expect, 0u);
}

TEST(ByteHistogramTest, ReducerCountsDontOverlap) {
  // Partitioned bins: with 3 reducers the ranges [0,86) [86,172) [172,256)
  // must cover all 256 values exactly once — verified by total == input.
  Cluster cluster(promo_config(false));
  std::uint64_t total = 0, expect = 0;
  cluster.sim().spawn([](Cluster& c, std::uint64_t& out,
                         std::uint64_t& want) -> Task<void> {
    const auto kind = FsKind::kHdfs;
    mapred::GenerateParams gen;
    gen.files = 2;
    gen.records_per_file = 40000;
    auto generated = co_await mapred::generate_records_input(
        c.filesystem(kind), c.hub_for(kind), c.compute_nodes(), gen);
    CO_ASSERT(generated.is_ok());
    want = generated.value().bytes;
    auto runner = c.make_runner(kind);
    mapred::ByteHistogramJob job(3);  // uneven split of 256 bins
    const std::vector<std::string> inputs{gen.dir + "/part-0",
                                          gen.dir + "/part-1"};
    auto stats = co_await runner->run(job, inputs, "/out/hist");
    CO_ASSERT(stats.is_ok());
    out = job.total_count();
  }(cluster, total, expect));
  cluster.sim().run();
  EXPECT_EQ(total, expect);
}

TEST(ByteHistogramTest, ConcurrentReducesTotalTheInput) {
  // Sixteen reducers over eight nodes run up to 16 reduces at once, on
  // however many host threads the runner has; each bin and the grand
  // total must still come out exact. Under ThreadSanitizer, a total the
  // reduces shared would be reported as a race.
  ClusterConfig config = promo_config(false);
  config.compute_nodes = 8;
  // Small chunks give each reducer one partial histogram per chunk, enough
  // work that the reduces run at the same time on different threads.
  config.mapred.io_chunk_bytes = 4 * KiB;
  Cluster cluster(config);
  std::uint64_t total = 0, expect = 0;
  std::array<std::uint64_t, 256> want{}, got{};
  cluster.sim().spawn([](Cluster& c, std::uint64_t& out, std::uint64_t& in,
                         std::array<std::uint64_t, 256>& want_bins,
                         std::array<std::uint64_t, 256>& got_bins)
                          -> Task<void> {
    const auto kind = FsKind::kBurstBuffer;
    mapred::GenerateParams gen;
    gen.files = 8;
    gen.records_per_file = 40000;
    auto generated = co_await mapred::generate_records_input(
        c.filesystem(kind), c.hub_for(kind), c.compute_nodes(), gen);
    CO_ASSERT(generated.is_ok());
    in = generated.value().bytes;
    std::vector<std::string> inputs;
    for (std::uint32_t i = 0; i < gen.files; ++i) {
      inputs.push_back(gen.dir + "/part-" + std::to_string(i));
      auto reader = co_await c.filesystem(kind).open(inputs.back(), 0);
      CO_ASSERT(reader.is_ok());
      auto data = co_await reader.value()->read(0, reader.value()->size());
      CO_ASSERT(data.is_ok());
      for (const std::uint8_t byte : data.value()) ++want_bins[byte];
    }
    auto runner = c.make_runner(kind);
    mapred::ByteHistogramJob job(16);
    auto stats = co_await runner->run(job, inputs, "/out/hist");
    CO_ASSERT(stats.is_ok());
    out = job.total_count();
    for (std::uint32_t r = 0; r < 16; ++r) {
      auto reader = co_await c.filesystem(kind).open(
          "/out/hist/part-" + std::to_string(r), 0);
      CO_ASSERT(reader.is_ok());
      auto data = co_await reader.value()->read(0, reader.value()->size());
      CO_ASSERT(data.is_ok());
      const std::string text(data.value().begin(), data.value().end());
      std::size_t line = 0;
      while (line < text.size()) {
        const std::size_t tab = text.find('\t', line);
        const std::size_t end = text.find('\n', tab);
        got_bins[std::stoul(text.substr(line, tab - line))] +=
            std::stoull(text.substr(tab + 1, end - tab - 1));
        line = end + 1;
      }
    }
  }(cluster, total, expect, want, got));
  cluster.sim().run();
  EXPECT_GT(expect, 0u);
  EXPECT_EQ(total, expect);
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace hpcbb
