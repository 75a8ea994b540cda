// JobRunner runs map_chunk and reduce on host threads. These tests check
// that doing so changes nothing a run produces: outputs and JobStats equal
// a serial fold of the same input, a repeated run is event-for-event
// identical, map reads into stale spare buffers change nothing, and a run
// torn down mid-map waits for its host tasks.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "testing/co_assert.h"
#include "cluster/cluster.h"
#include "common/byte_pool.h"
#include "mapred/workloads.h"

namespace hpcbb::mapred {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::FsKind;
using sim::Task;

ClusterConfig runner_config() {
  ClusterConfig config;
  config.compute_nodes = 4;
  config.kv_servers = 2;
  config.oss_count = 2;
  config.block_size = 8 * MiB;
  config.kv_memory_per_server = 128 * MiB;
  // Neither is a multiple of the 100-byte record, so split starts and chunk
  // ends are aligned by the engine.
  config.mapred.split_size = 1 * MiB + 7;
  config.mapred.io_chunk_bytes = 256 * KiB + 3;
  return config;
}

// What a run leaves behind: one output per reducer, and its stats.
struct RunOutput {
  std::vector<Bytes> inputs;
  std::vector<Bytes> parts;
  JobStats stats;
  std::uint64_t events = 0;
};

// Generates `files` x `records` on `kind`, runs `job` over them and reads
// every input file and output part back.
RunOutput run_job(Job& job, FsKind kind, std::uint32_t files,
                  std::uint64_t records,
                  const ClusterConfig& config = runner_config()) {
  Cluster cluster(config);
  auto runner = cluster.make_runner(kind);
  RunOutput out;
  cluster.sim().spawn([](Cluster& c, FsKind k, JobRunner& r, Job& j,
                         std::uint32_t nfiles, std::uint64_t nrecords,
                         RunOutput& res) -> Task<void> {
    GenerateParams gen;
    gen.files = nfiles;
    gen.records_per_file = nrecords;
    auto generated = co_await generate_records_input(
        c.filesystem(k), c.hub_for(k), c.compute_nodes(), gen);
    CO_ASSERT_OK(generated);
    std::vector<std::string> paths;
    for (std::uint32_t i = 0; i < nfiles; ++i) {
      paths.push_back(gen.dir + "/part-" + std::to_string(i));
    }
    auto stats = co_await r.run(j, paths, "/out");
    CO_ASSERT_OK(stats);
    res.stats = stats.value();
    for (std::uint32_t i = 0; i < j.num_reducers(); ++i) {
      paths.push_back("/out/part-" + std::to_string(i));
    }
    for (std::size_t i = 0; i < paths.size(); ++i) {
      auto reader = co_await c.filesystem(k).open(paths[i], 0);
      CO_ASSERT_OK(reader);
      auto data = co_await reader.value()->read(0, reader.value()->size());
      CO_ASSERT_OK(data);
      (i < nfiles ? res.inputs : res.parts).push_back(std::move(data).value());
    }
  }(cluster, kind, *runner, job, files, records, out));
  cluster.sim().run();
  out.events = cluster.sim().events_processed();
  return out;
}

// The run folded serially: the same splits and record-aligned chunks the
// engine reads, each split mapped into fresh partitions, each reducer
// reducing its non-empty partitions in split order.
RunOutput serial_reference(Job& job, const std::vector<Bytes>& inputs,
                           const MrParams& params) {
  const std::uint64_t rs = std::max<std::uint64_t>(1, job.input_record_size());
  const auto align_up = [rs](std::uint64_t v) { return (v + rs - 1) / rs * rs; };
  const std::uint64_t chunk_bytes =
      std::max(rs, params.io_chunk_bytes / rs * rs);
  const std::uint32_t nparts = std::max(1u, job.num_reducers());
  RunOutput out;
  std::vector<std::vector<BytesPtr>> by_reducer(nparts);
  for (const Bytes& file : inputs) {
    out.stats.input_bytes += file.size();
    for (std::uint64_t off = 0; off < file.size(); off += params.split_size) {
      InputSplit split;
      split.offset = align_up(off);
      const std::uint64_t end = std::min<std::uint64_t>(
          align_up(std::min<std::uint64_t>(off + params.split_size,
                                           file.size())),
          file.size());
      if (end <= split.offset) continue;
      split.length = end - split.offset;
      ++out.stats.maps_total;
      std::vector<Bytes> partitions(nparts);
      job.begin_split(split, partitions);
      for (std::uint64_t c = 0; c < split.length; c += chunk_bytes) {
        const std::uint64_t len = std::min(chunk_bytes, split.length - c);
        job.map_chunk(split,
                      std::span<const std::uint8_t>(
                          file.data() + split.offset + c, len),
                      partitions);
      }
      for (std::uint32_t p = 0; p < nparts; ++p) {
        if (partitions[p].empty()) continue;
        out.stats.shuffle_bytes += partitions[p].size();
        by_reducer[p].push_back(make_bytes(std::move(partitions[p])));
      }
    }
  }
  out.stats.reducers = job.num_reducers();
  for (std::uint32_t r = 0; r < job.num_reducers(); ++r) {
    auto folded = job.reduce(r, by_reducer[r]);
    EXPECT_TRUE(folded.is_ok()) << folded.status().to_string();
    if (!folded.is_ok()) return out;
    out.stats.output_bytes += folded.value().size();
    out.parts.push_back(std::move(folded).value());
  }
  return out;
}

template <typename MakeJob>
void expect_runner_matches_serial(
    MakeJob make_job, std::uint32_t files, std::uint64_t records,
    FsKind kind = FsKind::kLustre,
    const ClusterConfig& config = runner_config()) {
  auto pooled_job = make_job();
  const RunOutput pooled = run_job(pooled_job, kind, files, records, config);
  ASSERT_EQ(pooled.inputs.size(), files);
  auto serial_job = make_job();
  const RunOutput serial =
      serial_reference(serial_job, pooled.inputs, config.mapred);
  ASSERT_EQ(pooled.parts.size(), serial.parts.size());
  for (std::size_t r = 0; r < serial.parts.size(); ++r) {
    EXPECT_EQ(pooled.parts[r], serial.parts[r]) << "part " << r;
  }
  EXPECT_EQ(pooled.stats.input_bytes, serial.stats.input_bytes);
  EXPECT_EQ(pooled.stats.shuffle_bytes, serial.stats.shuffle_bytes);
  EXPECT_EQ(pooled.stats.output_bytes, serial.stats.output_bytes);
  EXPECT_EQ(pooled.stats.maps_total, serial.stats.maps_total);
  EXPECT_EQ(pooled.stats.reducers, serial.stats.reducers);
}

TEST(JobRunnerDifferentialTest, SortMatchesSerialFold) {
  for (const std::uint32_t reducers : {1u, 3u, 8u}) {
    for (const std::uint64_t records : {900ull, 24000ull}) {
      SCOPED_TRACE("reducers=" + std::to_string(reducers) +
                   " records=" + std::to_string(records));
      expect_runner_matches_serial([reducers] { return SortJob(reducers); },
                                   3, records);
    }
  }
}

// BB-Local with map chunks of 2 MiB: each map read is large enough to fill
// a spare buffer that an earlier map gave back (common/byte_pool.h).
ClusterConfig large_chunk_config() {
  ClusterConfig config = runner_config();
  config.scheme = bb::Scheme::kLocal;
  config.mapred.split_size = 4 * MiB + 7;
  config.mapred.io_chunk_bytes = 2 * MiB + 3;
  return config;
}

TEST(JobRunnerDifferentialTest, BbLocalSortInLargeChunksMatchesSerialFold) {
  const std::uint64_t reuses = buffer_reuses();
  expect_runner_matches_serial([] { return SortJob(3); }, 3, 50000,
                               FsKind::kBurstBuffer, large_chunk_config());
  EXPECT_GT(buffer_reuses(), reuses);
  EXPECT_EQ(spare_count(), 0u);  // dropped when the map phase ended
}

TEST(JobRunnerSpareTest, StaleSparesChangeNothing) {
  drop_spares();
  const ClusterConfig config = large_chunk_config();
  std::uint64_t reuses = buffer_reuses();
  SortJob plain_job(3);
  const RunOutput plain =
      run_job(plain_job, FsKind::kBurstBuffer, 3, 50000, config);
  const std::uint64_t plain_reuses = buffer_reuses() - reuses;
  // Spares that fit a map read, filled with a byte no record holds there.
  for (std::size_t i = 0; i < kMaxSpares; ++i) {
    give_back(Bytes(3 * MiB, 0xA5));
  }
  reuses = buffer_reuses();
  SortJob spared_job(3);
  const RunOutput spared =
      run_job(spared_job, FsKind::kBurstBuffer, 3, 50000, config);
  // The first map reads drew the stale spares.
  EXPECT_GT(buffer_reuses() - reuses, plain_reuses);
  EXPECT_EQ(spare_count(), 0u);
  EXPECT_EQ(spared.inputs, plain.inputs);
  EXPECT_EQ(spared.parts, plain.parts);
  EXPECT_EQ(spared.events, plain.events);
  const JobStats& a = plain.stats;
  const JobStats& b = spared.stats;
  EXPECT_EQ(a.makespan_ns, b.makespan_ns);
  EXPECT_EQ(a.map_phase_ns, b.map_phase_ns);
  EXPECT_EQ(a.reduce_phase_ns, b.reduce_phase_ns);
  EXPECT_EQ(a.maps_total, b.maps_total);
  EXPECT_EQ(a.maps_node_local, b.maps_node_local);
  EXPECT_EQ(a.reducers, b.reducers);
  EXPECT_EQ(a.input_bytes, b.input_bytes);
  EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes);
  EXPECT_EQ(a.output_bytes, b.output_bytes);
}

TEST(JobRunnerDifferentialTest, GrepMatchesSerialFold) {
  for (const std::uint64_t records : {900ull, 24000ull}) {
    SCOPED_TRACE("records=" + std::to_string(records));
    expect_runner_matches_serial([] { return GrepJob(); }, 3, records);
  }
}

TEST(JobRunnerDifferentialTest, ByteHistogramMatchesSerialFold) {
  for (const std::uint32_t reducers : {1u, 3u, 8u}) {
    for (const std::uint64_t records : {900ull, 24000ull}) {
      SCOPED_TRACE("reducers=" + std::to_string(reducers) +
                   " records=" + std::to_string(records));
      expect_runner_matches_serial(
          [reducers] { return ByteHistogramJob(reducers); }, 3, records);
    }
  }
}

TEST(JobRunnerRepeatTest, SameSortTwiceIsIdentical) {
  SortJob first_job(8), second_job(8);
  const RunOutput first = run_job(first_job, FsKind::kBurstBuffer, 4, 20000);
  const RunOutput second =
      run_job(second_job, FsKind::kBurstBuffer, 4, 20000);
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.parts, second.parts);
  EXPECT_EQ(first.stats.makespan_ns, second.stats.makespan_ns);
  EXPECT_EQ(first.stats.map_phase_ns, second.stats.map_phase_ns);
  EXPECT_EQ(first.stats.reduce_phase_ns, second.stats.reduce_phase_ns);
}

// Maps block until released and charge so much compute that a run stopped
// after a few simulated seconds has every map worker inside its charge,
// with host tasks queued or running.
class GatedJob final : public Job {
 public:
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  std::atomic<bool> release{false};

  [[nodiscard]] std::string name() const override { return "Gated"; }
  [[nodiscard]] std::uint32_t num_reducers() const override { return 2; }
  void map_chunk(const InputSplit&, std::span<const std::uint8_t> data,
                 std::vector<Bytes>& out) override {
    ++started;
    while (!release) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    out[0].insert(out[0].end(), data.begin(), data.end());
    ++finished;
  }
  Result<Bytes> reduce(std::uint32_t, std::span<const BytesPtr>) override {
    return Bytes{};
  }
  [[nodiscard]] std::uint64_t map_cpu_ns(std::uint64_t) const override {
    return 1000 * duration::sec;
  }
};

// Stops the run mid-map and tears the cluster down while host tasks run.
// `runner_outlives_cluster` picks who goes first: the runner, which owns no
// thread, or the cluster with the map workers' frames. Either way each
// frame waits for its task, queued or running on the process-wide pool,
// before freeing the chunk and partitions the task uses.
void tear_down_mid_map(bool runner_outlives_cluster) {
  GatedJob job;
  std::thread releaser;
  {
    std::optional<JobRunner> outliving;
    Cluster cluster(runner_config());
    std::unique_ptr<JobRunner> owned;
    JobRunner* runner = nullptr;
    if (runner_outlives_cluster) {
      runner = &outliving.emplace(cluster.hub_for(FsKind::kLustre),
                                  cluster.filesystem(FsKind::kLustre),
                                  cluster.compute_nodes(),
                                  cluster.config().mapred);
    } else {
      owned = cluster.make_runner(FsKind::kLustre);
      runner = owned.get();
    }
    cluster.sim().spawn([](Cluster& c, JobRunner& r, Job& j) -> Task<void> {
      GenerateParams gen;
      gen.files = 2;
      gen.records_per_file = 30000;
      auto generated = co_await generate_records_input(
          c.filesystem(FsKind::kLustre), c.hub_for(FsKind::kLustre),
          c.compute_nodes(), gen);
      CO_ASSERT_OK(generated);
      const std::vector<std::string> inputs{gen.dir + "/part-0",
                                            gen.dir + "/part-1"};
      auto stats = co_await r.run(j, inputs, "/out");
      ADD_FAILURE() << "the run was meant to be stopped mid-map: "
                    << stats.status().to_string();
    }(cluster, *runner, job));
    cluster.sim().run_until(5 * duration::sec);
    while (job.started == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    releaser = std::thread([&job] {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      job.release = true;
    });
  }
  releaser.join();
  EXPECT_GT(job.started, 0);
  EXPECT_EQ(job.started, job.finished);
}

TEST(JobRunnerTeardownTest, FramesWaitForTheirMapsWhenTheRunnerGoesFirst) {
  tear_down_mid_map(false);
}

TEST(JobRunnerTeardownTest, FramesWaitForTheirMapsWhenTheClusterGoesFirst) {
  tear_down_mid_map(true);
}

}  // namespace
}  // namespace hpcbb::mapred
