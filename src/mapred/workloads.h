// The paper's evaluation workloads: TestDFSIO (write/read), Sort, and a
// Grep-style I/O-intensive scan, plus the record-file generator
// (RandomWriter/TeraGen equivalent) that produces Sort/Grep input.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mapred/job.h"
#include "mapred/records.h"

namespace hpcbb::mapred {

// ---- TestDFSIO -------------------------------------------------------------

struct DfsioParams {
  std::uint32_t files = 8;
  std::uint64_t file_size = 128 * MiB;
  std::uint64_t io_chunk = 4 * MiB;
  std::string dir = "/benchmarks/TestDFSIO";
  bool verify_on_read = true;
};

struct DfsioResult {
  sim::SimTime elapsed_ns = 0;
  std::uint64_t bytes = 0;
  // Hadoop TestDFSIO reports the mean of per-task throughputs ("Average IO
  // rate") and the aggregate (total bytes / makespan).
  double aggregate_mbps = 0.0;
  double mean_task_mbps = 0.0;
};

// Each "map task" writes one file of `file_size` from compute node
// nodes[i % nodes.size()], all concurrently (the burst).
sim::Task<Result<DfsioResult>> dfsio_write(fs::FileSystem& fs,
                                           net::RpcHub& hub,
                                           std::vector<net::NodeId> nodes,
                                           const DfsioParams& params);

// Each task reads back one file (written by dfsio_write), from a *different*
// node than wrote it (i+1 rotation), defeating accidental locality the way
// TestDFSIO-read's scheduling usually does.
sim::Task<Result<DfsioResult>> dfsio_read(fs::FileSystem& fs,
                                          net::RpcHub& hub,
                                          std::vector<net::NodeId> nodes,
                                          const DfsioParams& params);

// ---- Record-file generator (RandomWriter / TeraGen equivalent) -------------

struct GenerateParams {
  std::uint32_t files = 8;
  std::uint64_t records_per_file = 1 << 20;
  std::uint64_t io_chunk_records = 10240;  // ~1 MiB batches
  std::string dir = "/data/records";
  std::uint64_t seed = 42;
};

struct GenerateResult {
  sim::SimTime elapsed_ns = 0;
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;  // order-independent record multiset checksum
};

sim::Task<Result<GenerateResult>> generate_records_input(
    fs::FileSystem& fs, net::RpcHub& hub, std::vector<net::NodeId> nodes,
    const GenerateParams& params);

// ---- Sort ------------------------------------------------------------------

// TeraSort-shaped job: identity map partitioned by key range, reducers sort
// their range. Output part files concatenate to a globally sorted order, and
// each part is a stable sort of its reducer's partitions in map-output order.
class SortJob final : public Job {
 public:
  // cpu_scale calibrates the compute fraction: 2015-era Hadoop sort spends
  // roughly half its time in JVM compute/spill paths, which dilutes the I/O
  // speedup to the paper's ~20-30% end-to-end gains (EXPERIMENTS.md F5).
  explicit SortJob(std::uint32_t reducers, double cpu_scale = 1.0)
      : reducers_(reducers), cpu_scale_(cpu_scale) {}

  [[nodiscard]] std::string name() const override { return "Sort"; }
  [[nodiscard]] std::uint32_t num_reducers() const override {
    return reducers_;
  }
  void map_chunk(const InputSplit& split, std::span<const std::uint8_t> data,
                 std::vector<Bytes>& out) override;
  Result<Bytes> reduce(std::uint32_t reducer,
                       std::span<const BytesPtr> parts) override;

  [[nodiscard]] std::uint64_t input_record_size() const override {
    return kRecordSize;
  }
  [[nodiscard]] std::uint64_t map_cpu_ns(std::uint64_t bytes) const override {
    return static_cast<std::uint64_t>(cpu_scale_ *
                                      static_cast<double>(bytes) / 2.0);
  }
  [[nodiscard]] std::uint64_t reduce_cpu_ns(
      std::uint64_t bytes) const override;

 private:
  std::uint32_t reducers_;
  double cpu_scale_;
};

// ---- Grep (I/O-intensive scan) ----------------------------------------------

// Scans every input byte for a marker byte-pair, emitting per-split counts;
// one reducer totals them. Output is tiny: the job is read-dominated, the
// "I/O-intensive workload" class the abstract highlights.
class GrepJob final : public Job {
 public:
  explicit GrepJob(std::uint8_t b0 = 0xAB, std::uint8_t b1 = 0xCD)
      : b0_(b0), b1_(b1) {}

  [[nodiscard]] std::string name() const override { return "Grep"; }
  [[nodiscard]] std::uint32_t num_reducers() const override { return 1; }
  void map_chunk(const InputSplit& split, std::span<const std::uint8_t> data,
                 std::vector<Bytes>& out) override;
  Result<Bytes> reduce(std::uint32_t reducer,
                       std::span<const BytesPtr> parts) override;

  [[nodiscard]] std::uint64_t total_matches() const noexcept {
    return total_matches_;
  }

 private:
  std::uint8_t b0_, b1_;
  std::uint64_t total_matches_ = 0;
};

// ---- ByteHistogram (WordCount-class aggregation) -----------------------------

// Counts byte-value occurrences across the input — the WordCount shape:
// map with combiner-style pre-aggregation (one 256-bin histogram per split,
// not per byte), range-partitioned reducers summing their bins. Shuffle is
// tiny relative to input; the job is read- plus CPU-bound.
class ByteHistogramJob final : public Job {
 public:
  explicit ByteHistogramJob(std::uint32_t reducers = 4)
      : reducers_(reducers) {}

  [[nodiscard]] std::string name() const override { return "ByteHistogram"; }
  [[nodiscard]] std::uint32_t num_reducers() const override {
    return reducers_;
  }
  void map_chunk(const InputSplit& split, std::span<const std::uint8_t> data,
                 std::vector<Bytes>& out) override;
  Result<Bytes> reduce(std::uint32_t reducer,
                       std::span<const BytesPtr> parts) override;

  // Grand total across all reducers (each reduce() adds its bins).
  [[nodiscard]] std::uint64_t total_count() const noexcept {
    return total_count_;
  }

 private:
  // Bins [first, last] handled by a reducer.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> bin_range(
      std::uint32_t reducer) const noexcept {
    const std::uint32_t per = 256 / reducers_ + (256 % reducers_ != 0);
    const std::uint32_t first = reducer * per;
    return {first, std::min(first + per, 256u)};
  }

  std::uint32_t reducers_;
  std::uint64_t total_count_ = 0;
};

}  // namespace hpcbb::mapred
