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
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/host_pool.h"
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
//
// map_chunk and reduce run on the runner's host threads, concurrently with
// other calls of the same job and with the simulation. They must touch
// neither the simulation, nor the metrics, nor job members another call
// shares: a call reads its arguments and writes its `out` or its result,
// plus at most state that belongs to its own reducer. The engine joins each
// call before it uses the result, at the simulated instant a serial run
// would have made the call. Every other member runs on the simulation
// thread.
class Job {
 public:
  virtual ~Job() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::uint32_t num_reducers() const = 0;

  // Called with a split's empty partitions before its first map_chunk. A
  // job whose output grows with its input reserves the partitions here:
  // memory the simulation thread allocates returns to its own malloc arena
  // once the reduces free it, where the simulation's writes reuse it, while
  // a host thread's allocations stay in that thread's arena.
  virtual void begin_split(const InputSplit& split, std::vector<Bytes>& out) {
    (void)split;
    (void)out;
  }

  // Consume one chunk of a split; append emitted bytes to out[partition].
  virtual void map_chunk(const InputSplit& split,
                         std::span<const std::uint8_t> data,
                         std::vector<Bytes>& out) = 0;

  // Fold one reducer's map partitions into the final bytes written to
  // <output>/part-<r>. `parts` are the non-empty partitions in map-output
  // order, read-only; the engine frees them as soon as the reduce returns.
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
  // One reducer's fold on the host: its map parts until it starts, then
  // the pool task that owns them until the simulation joins it at
  // `join_at`, the end of its compute charge.
  struct HostReduce {
    std::vector<BytesPtr> parts;
    std::uint64_t bytes = 0;  // of the parts
    sim::SimTime join_at = 0;
    std::optional<HostTask<Result<Bytes>>> task;
  };
  struct RunState {
    std::vector<InputSplit> pending;
    std::vector<MapOutput> outputs;  // by split index
    JobStats stats;
    Status first_error;
    // A started reduce holds its whole output until it is joined, so the
    // reduces running ahead of the simulation are bounded by their input
    // bytes. The others wait here and start in the order the simulation
    // will join them.
    std::vector<HostReduce> reduces;  // by reducer
    std::set<std::pair<sim::SimTime, std::uint32_t>> waiting;
    std::uint64_t bytes_ahead = 0;
  };

  sim::Task<Status> build_splits(const std::vector<std::string>& inputs,
                                 std::vector<InputSplit>& out,
                                 net::NodeId client,
                                 std::uint64_t record_size);
  sim::Task<void> map_worker(Job& job, RunState& state, net::NodeId node);
  sim::Task<void> reduce_task(Job& job, RunState& state, std::uint32_t reducer,
                              net::NodeId node,
                              const std::string& output_prefix);
  void start_reduce(Job& job, RunState& state, std::uint32_t reducer);
  void start_waiting_reduces(Job& job, RunState& state);
  // Queues `cpu_ns` of work on the node's cores; returns when it ends.
  sim::SimTime reserve_compute(net::NodeId node, std::uint64_t cpu_ns);
  sim::Simulation& simulation() const {
    return hub_->transport().fabric().simulation();
  }

  net::RpcHub* hub_;
  fs::FileSystem* fs_;
  std::vector<net::NodeId> nodes_;
  MrParams params_;
  // Per-node compute capacity: a work-conserving queue at cores x 1 ns/ns.
  std::map<net::NodeId, sim::ResourceQueue> compute_;
  // Runs map_chunk and reduce calls off the simulation thread. Declared
  // last, so it is joined before anything else of the runner goes.
  HostPool pool_;
};

}  // namespace hpcbb::mapred
