#include "mapred/job.h"

#include <algorithm>

#include "common/byte_pool.h"
#include "common/metrics.h"
#include "sim/trace.h"

namespace hpcbb::mapred {

namespace {

// Reduce input the host may fold ahead of the simulation. A started reduce
// holds its output, about its input's size for a sort, until the
// simulation joins it; past this budget, reduces wait to start.
constexpr std::uint64_t kReduceBytesAhead = 256 * MiB;

}  // namespace

JobRunner::JobRunner(net::RpcHub& hub, fs::FileSystem& filesystem,
                     std::vector<net::NodeId> compute_nodes,
                     const MrParams& params)
    : hub_(&hub),
      fs_(&filesystem),
      nodes_(std::move(compute_nodes)),
      params_(params) {
  for (const net::NodeId node : nodes_) compute_.try_emplace(node);
}

sim::SimTime JobRunner::reserve_compute(net::NodeId node,
                                        std::uint64_t cpu_ns) {
  const sim::SimTime service =
      transfer_time_ns(cpu_ns, params_.cores_per_node * duration::sec);
  return compute_.at(node).reserve(simulation().now(), service) + service;
}

sim::Task<Status> JobRunner::build_splits(
    const std::vector<std::string>& inputs, std::vector<InputSplit>& out,
    net::NodeId client, std::uint64_t record_size) {
  const auto align_up = [record_size](std::uint64_t v) {
    return record_size <= 1 ? v
                            : (v + record_size - 1) / record_size * record_size;
  };
  std::uint32_t index = 0;
  for (const std::string& path : inputs) {
    auto info = co_await fs_->stat(path, client);
    if (!info.is_ok()) co_return info.status();
    auto locations = co_await fs_->block_locations(path, client);
    if (!locations.is_ok()) co_return locations.status();

    const std::uint64_t block_size = info.value().block_size;
    const std::uint64_t split_size =
        params_.split_size == 0 ? block_size : params_.split_size;
    const std::uint64_t file_size = info.value().size;
    for (std::uint64_t off = 0; off < file_size; off += split_size) {
      InputSplit split;
      split.index = index++;
      split.path = path;
      // Record alignment: a split owns the records that *start* within
      // [off, off+split_size), reading past the nominal end if a record
      // straddles it (Hadoop's input-split boundary rule).
      split.offset = align_up(off);
      const std::uint64_t nominal_end =
          std::min(off + split_size, file_size);
      const std::uint64_t end =
          std::min(align_up(nominal_end), file_size);
      if (end <= split.offset) {
        --index;
        continue;
      }
      split.length = end - split.offset;
      // Preferred nodes come from the block containing the split start.
      const std::size_t block = static_cast<std::size_t>(off / block_size);
      if (block < locations.value().size()) {
        split.preferred = locations.value()[block];
      }
      out.push_back(std::move(split));
    }
  }
  co_return Status::ok();
}

sim::Task<void> JobRunner::map_worker(Job& job, RunState& state,
                                      net::NodeId node) {
  std::vector<Bytes> partitions;
  std::uint32_t delay_rounds_left = params_.locality_delay_rounds;
  for (;;) {
    if (!state.first_error.is_ok() || state.pending.empty()) co_return;
    // Locality-aware pick: a split with a replica on this node; otherwise a
    // split nobody prefers (no local placement anywhere); otherwise — after
    // the delay-scheduling grace period — steal any split.
    std::size_t pick = state.pending.size();
    bool local = false;
    for (std::size_t i = 0; i < state.pending.size(); ++i) {
      const auto& preferred = state.pending[i].preferred;
      if (std::find(preferred.begin(), preferred.end(), node) !=
          preferred.end()) {
        pick = i;
        local = true;
        break;
      }
      if (pick == state.pending.size() && preferred.empty()) pick = i;
    }
    if (pick == state.pending.size()) {
      if (delay_rounds_left > 0) {
        --delay_rounds_left;
        co_await simulation().delay(params_.locality_delay_ns);
        continue;
      }
      pick = 0;  // give up on locality, steal the head split
    } else if (local) {
      delay_rounds_left = params_.locality_delay_rounds;
    }
    InputSplit split = std::move(state.pending[pick]);
    state.pending.erase(state.pending.begin() +
                        static_cast<std::ptrdiff_t>(pick));
    ++state.stats.maps_total;
    if (local) ++state.stats.maps_node_local;

    auto reader = co_await fs_->open(split.path, node);
    if (!reader.is_ok()) {
      if (state.first_error.is_ok()) state.first_error = reader.status();
      co_return;
    }

    const std::uint32_t nparts = std::max(1u, job.num_reducers());
    // Chunk reads are record-aligned so map_chunk never sees a torn record.
    const std::uint64_t rs = std::max<std::uint64_t>(1, job.input_record_size());
    const std::uint64_t chunk_bytes =
        std::max(rs, params_.io_chunk_bytes / rs * rs);
    partitions.assign(nparts, Bytes{});
    job.begin_split(split, partitions);
    for (std::uint64_t off = 0; off < split.length; off += chunk_bytes) {
      const std::uint64_t len = std::min(chunk_bytes, split.length - off);
      auto chunk = co_await reader.value()->read(split.offset + off, len);
      if (!chunk.is_ok()) {
        if (state.first_error.is_ok()) state.first_error = chunk.status();
        co_return;
      }
      // The chunk is mapped on the pool while its compute is charged, and
      // the partitions are touched again only after the join.
      HostTask<void> mapped = pool_.submit([&job, &split, &chunk, &partitions] {
        job.map_chunk(split, chunk.value(), partitions);
      });
      co_await simulation().delay_until(
          reserve_compute(node, job.map_cpu_ns(len)));
      mapped.join();
      // The next read can fill the chunk's pages instead of new ones.
      give_back(std::move(chunk).value());
      state.stats.input_bytes += len;
    }

    MapOutput& output = state.outputs[split.index];
    output.node = node;
    output.parts.reserve(nparts);
    for (auto& part : partitions) {
      output.parts.push_back(make_bytes(std::move(part)));
    }
  }
}

void JobRunner::start_reduce(Job& job, RunState& state,
                             std::uint32_t reducer) {
  HostReduce& host = state.reduces[reducer];
  state.waiting.erase({host.join_at, reducer});
  state.bytes_ahead += host.bytes;
  // The task holds the only references to the reducer's parts and drops
  // them as soon as the reduce returns, so its input is freed on the host
  // as soon as it is folded.
  host.task.emplace(pool_.submit(
      [&job, reducer, parts = std::move(host.parts)]() mutable {
        Result<Bytes> folded = job.reduce(reducer, parts);
        parts = {};
        return folded;
      }));
}

void JobRunner::start_waiting_reduces(Job& job, RunState& state) {
  while (!state.waiting.empty()) {
    const std::uint32_t next = state.waiting.begin()->second;
    if (state.bytes_ahead > 0 &&
        state.bytes_ahead + state.reduces[next].bytes > kReduceBytesAhead) {
      return;
    }
    start_reduce(job, state, next);
  }
}

sim::Task<void> JobRunner::reduce_task(Job& job, RunState& state,
                                       std::uint32_t reducer, net::NodeId node,
                                       const std::string& output_prefix) {
  // Shuffle: pull this reducer's partition from every map output. The
  // fetch is charged on the fabric as map-node -> reduce-node transfers;
  // the reduce then reads the partitions where the maps left them.
  std::vector<BytesPtr> parts;
  std::uint64_t input_bytes = 0;
  for (const MapOutput& output : state.outputs) {
    if (reducer >= output.parts.size()) continue;
    const BytesPtr& part = output.parts[reducer];
    if (part->empty()) continue;
    Status st = co_await hub_->transport().send(output.node, node,
                                                part->size());
    if (!st.is_ok()) {
      if (state.first_error.is_ok()) state.first_error = st;
      co_return;
    }
    state.stats.shuffle_bytes += part->size();
    input_bytes += part->size();
    parts.push_back(part);
  }

  // The reduce runs on the pool while its compute is charged, and the
  // simulation joins it when the charge ends.
  HostReduce& host = state.reduces[reducer];
  host.parts = std::move(parts);
  host.bytes = input_bytes;
  host.join_at = reserve_compute(node, job.reduce_cpu_ns(input_bytes));
  state.waiting.emplace(host.join_at, reducer);
  start_waiting_reduces(job, state);
  for (MapOutput& output : state.outputs) {
    if (reducer < output.parts.size()) output.parts[reducer].reset();
  }
  co_await simulation().delay_until(host.join_at);
  if (!host.task) start_reduce(job, state, reducer);
  Result<Bytes> folded = host.task->join();
  host.task.reset();
  state.bytes_ahead -= host.bytes;
  start_waiting_reduces(job, state);
  if (!folded.is_ok()) {
    if (state.first_error.is_ok()) state.first_error = folded.status();
    co_return;
  }

  const std::string out_path =
      output_prefix + "/part-" + std::to_string(reducer);
  auto writer = co_await fs_->create(out_path, node);
  if (!writer.is_ok()) {
    if (state.first_error.is_ok()) state.first_error = writer.status();
    co_return;
  }
  state.stats.output_bytes += folded.value().size();
  Status st = co_await writer.value()->append(
      make_bytes(std::move(folded).value()));
  if (st.is_ok()) st = co_await writer.value()->close();
  if (!st.is_ok() && state.first_error.is_ok()) state.first_error = st;
}

sim::Task<Result<JobStats>> JobRunner::run(
    Job& job, const std::vector<std::string>& inputs,
    const std::string& output_prefix) {
  sim::Simulation& sim = simulation();
  RunState state;
  const sim::SimTime started = sim.now();

  if (Status st = co_await build_splits(inputs, state.pending, nodes_.front(),
                                        job.input_record_size());
      !st.is_ok()) {
    co_return st;
  }
  state.outputs.resize(state.pending.size());

  // One causal op per job: both phase spans share it, so the whole job can
  // be picked out of a trace by a single id.
  const std::uint64_t op_id = sim.next_op_id();

  // Map phase: slots-per-node workers drain the split queue.
  std::size_t map_span = 0;
  if (sim.trace() != nullptr) {
    map_span = sim.trace()->begin("map_phase", "mapred", 0, op_id);
  }
  std::vector<sim::Task<void>> workers;
  for (const net::NodeId node : nodes_) {
    for (std::uint32_t s = 0; s < params_.map_slots_per_node; ++s) {
      workers.push_back(map_worker(job, state, node));
    }
  }
  co_await sim::parallel(sim, std::move(workers));
  // The reduce phase reads no map input: its spares would only add to the
  // reduce-phase peak.
  drop_spares();
  if (sim.trace() != nullptr) sim.trace()->end(map_span);
  if (!state.first_error.is_ok()) co_return state.first_error;
  state.stats.map_phase_ns = sim.now() - started;
  sim.metrics().histogram("mapred.map_phase_ns").record(state.stats.map_phase_ns);

  // Reduce phase: reducers round-robin over nodes, bounded per-node slots.
  const std::uint32_t reducers = job.num_reducers();
  state.stats.reducers = reducers;
  if (reducers > 0) {
    const sim::SimTime reduce_started = sim.now();
    state.reduces.resize(reducers);
    std::size_t reduce_span = 0;
    if (sim.trace() != nullptr) {
      reduce_span = sim.trace()->begin("reduce_phase", "mapred", 0, op_id);
    }
    std::map<net::NodeId, std::unique_ptr<sim::Semaphore>> slots;
    for (const net::NodeId node : nodes_) {
      slots.emplace(node, std::make_unique<sim::Semaphore>(
                              sim, params_.reduce_slots_per_node));
    }
    std::vector<sim::Task<void>> tasks;
    for (std::uint32_t r = 0; r < reducers; ++r) {
      const net::NodeId node = nodes_[r % nodes_.size()];
      tasks.push_back([](JobRunner& runner, Job& j, RunState& st,
                         std::uint32_t red, net::NodeId n,
                         sim::Semaphore& slot,
                         std::string prefix) -> sim::Task<void> {
        co_await slot.acquire();
        sim::SemaphoreGuard guard(slot);
        co_await runner.reduce_task(j, st, red, n, prefix);
      }(*this, job, state, r, node, *slots.at(node), output_prefix));
    }
    co_await sim::parallel(sim, std::move(tasks));
    if (sim.trace() != nullptr) sim.trace()->end(reduce_span);
    if (!state.first_error.is_ok()) co_return state.first_error;
    state.stats.reduce_phase_ns = sim.now() - reduce_started;
    sim.metrics()
        .histogram("mapred.reduce_phase_ns")
        .record(state.stats.reduce_phase_ns);
  }

  state.stats.makespan_ns = sim.now() - started;
  {
    auto& metrics = sim.metrics();
    metrics.counter("mapred.input_bytes").add(state.stats.input_bytes);
    metrics.counter("mapred.shuffle_bytes").add(state.stats.shuffle_bytes);
    metrics.counter("mapred.output_bytes").add(state.stats.output_bytes);
    metrics.counter("mapred.jobs").add();
  }
  co_return state.stats;
}

}  // namespace hpcbb::mapred
