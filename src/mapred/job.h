// MapReduce engine over the fs::FileSystem abstraction.
//
// The engine runs real data through user-defined map/reduce functions:
// locality-aware map scheduling, a network-charged shuffle, and reduce
// outputs written back through the file system — the I/O pattern whose cost
// the paper's burst buffer attacks.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/rpc.h"
#include "sim/sync.h"
#include "storage/filesystem.h"

namespace hpcbb::mapred {

struct InputSplit {
  std::uint32_t index = 0;
  std::string path;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::vector<net::NodeId> preferred;  // nodes with a local copy
};

// A MapReduce job: chunk-streamed map with partitioned output, and a
// per-partition reduce. Map-only jobs return num_reducers() == 0.
class Job {
 public:
  virtual ~Job() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::uint32_t num_reducers() const = 0;

  // Consume one chunk of a split; append emitted bytes to out[partition].
  virtual void map_chunk(const InputSplit& split,
                         std::span<const std::uint8_t> data,
                         std::vector<Bytes>& out) = 0;

  // Fold one reducer's map partitions into the final bytes written to
  // <output>/part-<r>. `parts` are the non-empty partitions in map-output
  // order, shared read-only with the map side; the engine frees them once
  // the reduce returns.
  virtual Result<Bytes> reduce(std::uint32_t reducer,
                               std::span<const BytesPtr> parts) = 0;

  // Fixed input record size (1 = byte stream). The engine aligns split and
  // chunk boundaries to it so no record is ever torn between two map tasks.
  [[nodiscard]] virtual std::uint64_t input_record_size() const { return 1; }

  // CPU cost models (simulated nanoseconds of compute).
  [[nodiscard]] virtual std::uint64_t map_cpu_ns(std::uint64_t bytes) const {
    return bytes / 2;  // ~2 bytes/ns scan rate
  }
  [[nodiscard]] virtual std::uint64_t reduce_cpu_ns(std::uint64_t bytes) const {
    return bytes;  // ~1 byte/ns
  }
};

struct MrParams {
  std::uint32_t map_slots_per_node = 4;
  std::uint32_t reduce_slots_per_node = 2;
  std::uint64_t io_chunk_bytes = 4 * MiB;
  std::uint64_t split_size = 0;  // 0 = the input file's block size
  std::uint64_t cores_per_node = 16;
  // Delay scheduling (Zaharia et al., as in Hadoop's fair scheduler): a
  // worker without node-local work waits this long, up to `rounds` times,
  // before running a remote split — preserving locality for the owners.
  sim::SimTime locality_delay_ns = 1 * duration::ms;
  std::uint32_t locality_delay_rounds = 2;
};

struct JobStats {
  sim::SimTime makespan_ns = 0;
  sim::SimTime map_phase_ns = 0;
  sim::SimTime reduce_phase_ns = 0;
  std::uint64_t maps_total = 0;
  std::uint64_t maps_node_local = 0;
  std::uint64_t reducers = 0;
  std::uint64_t input_bytes = 0;
  std::uint64_t shuffle_bytes = 0;
  std::uint64_t output_bytes = 0;

  [[nodiscard]] double locality_fraction() const {
    return maps_total == 0 ? 0.0
                           : static_cast<double>(maps_node_local) /
                                 static_cast<double>(maps_total);
  }
};

class JobRunner {
 public:
  JobRunner(net::RpcHub& hub, fs::FileSystem& filesystem,
            std::vector<net::NodeId> compute_nodes, const MrParams& params);

  // Runs `job` over `inputs`; reduce outputs land at <output_prefix>/part-<r>.
  sim::Task<Result<JobStats>> run(Job& job,
                                  const std::vector<std::string>& inputs,
                                  const std::string& output_prefix);

  [[nodiscard]] const MrParams& params() const noexcept { return params_; }

 private:
  struct MapOutput {
    net::NodeId node = 0;          // where the map ran (shuffle source)
    std::vector<BytesPtr> parts;   // one per reducer, dropped once it ran
  };
  struct RunState {
    std::vector<InputSplit> pending;
    std::vector<MapOutput> outputs;  // by split index
    JobStats stats;
    Status first_error;
  };

  sim::Task<Status> build_splits(const std::vector<std::string>& inputs,
                                 std::vector<InputSplit>& out,
                                 net::NodeId client,
                                 std::uint64_t record_size);
  sim::Task<void> map_worker(Job& job, RunState& state, net::NodeId node);
  sim::Task<void> reduce_task(Job& job, RunState& state, std::uint32_t reducer,
                              net::NodeId node,
                              const std::string& output_prefix);
  sim::Task<void> charge_compute(net::NodeId node, std::uint64_t cpu_ns);

  net::RpcHub* hub_;
  fs::FileSystem* fs_;
  std::vector<net::NodeId> nodes_;
  MrParams params_;
  // Per-node compute capacity: a work-conserving queue at cores x 1 ns/ns.
  std::map<net::NodeId, std::unique_ptr<sim::BandwidthQueue>> compute_;
};

}  // namespace hpcbb::mapred
