// Replication recovery: the control loop that keeps R live copies of every
// burst-buffer chunk in the KV store across server crashes and rejoins.
//
// The write path (kv::Client fan-out) establishes R copies; this subsystem
// restores the invariant when membership changes:
//
//   * on `dead` — re-replicate every chunk whose replica set contains the
//     dead server, copying from a surviving replica to the first live
//     server outside the set (the same full-ring successor order failover
//     reads walk, so repaired copies are immediately findable);
//   * on `rejoined` — anti-entropy: a restarted server comes back empty, so
//     its key ranges are streamed back from the surviving holders before it
//     is eligible for placement again. Copies that overflowed past the
//     replica set during repair migrate home (copy + erase).
//
// Recovery traffic is paced through the owner's flowctl credits: each chunk
// copy holds an admission credit for its footprint while in flight, so
// repair competes with (and yields to) foreground writers instead of
// starving them.
//
// Telemetry (simulation MetricRegistry): kv.repl.repair_* and
// kv.repl.anti_entropy_* counters, the kv.repl.under_replicated gauge
// (blocks currently short of R live copies; high-watermark retained), and
// kv.repl.repair_ns / kv.repl.anti_entropy_ns run-duration histograms.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "flowctl/controller.h"
#include "kvstore/client.h"
#include "kvstore/ring.h"
#include "net/rpc.h"
#include "sim/task.h"

namespace hpcbb::repl {

// One replicated chunk as the metadata owner (the BB master) sees it.
struct ChunkRef {
  std::string key;       // KV key of the chunk
  std::string block;     // owning block id, e.g. "<path>#<index>"
  std::uint64_t bytes = 0;  // buffer footprint (chunk-padded)
  bool pinned = false;   // restore the pin on the repaired copy
};

class RecoveryManager {
 public:
  // Chunk inventory snapshot, taken at the start of every recovery run.
  using ChunkSource = std::function<std::vector<ChunkRef>()>;
  // Is server `i` live (eligible as copy source/destination)?
  using Liveness = std::function<bool(std::uint32_t)>;
  // Is server `i` still in the recovering state (anti-entropy may proceed)?
  using RecoveringCheck = std::function<bool(std::uint32_t)>;
  // Anti-entropy for server `i` finished: it may take placements again.
  using RecoveryDone = std::function<void(std::uint32_t)>;

  RecoveryManager(net::RpcHub& hub, net::NodeId node,
                  std::vector<net::NodeId> kv_servers,
                  const kv::ClientParams& client_params);

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  void set_chunk_source(ChunkSource fn) { chunks_ = std::move(fn); }
  void set_liveness(Liveness fn) { live_ = std::move(fn); }
  void set_recovering_check(RecoveringCheck fn) {
    recovering_ = std::move(fn);
  }
  void set_recovery_done(RecoveryDone fn) { done_ = std::move(fn); }
  // Optional pacing: each in-flight chunk copy holds an admission credit.
  void set_flow_control(flowctl::CapacityController* fc) { flowctl_ = fc; }

  // Failure-detector hooks. Both spawn a background run and return
  // immediately (the detector must keep probing while recovery streams).
  void on_server_dead(std::uint32_t kv_index);
  void on_server_rejoined(std::uint32_t kv_index);

  [[nodiscard]] std::uint32_t active_runs() const noexcept {
    return active_runs_;
  }

  // The key's replica set (primary first) under this manager's factor.
  [[nodiscard]] std::vector<std::uint32_t> replicas(
      const std::string& key) const {
    return ring_.successors(key, replication_factor_);
  }

 private:
  sim::Task<void> repair_after_death(std::uint32_t dead);
  sim::Task<void> anti_entropy(std::uint32_t joined);
  // Read `key` from the first live holder in successor order, skipping
  // `skip`; returns the source index in `source` on success.
  sim::Task<Result<BytesPtr>> read_surviving_copy(std::string key,
                                                  std::uint32_t skip,
                                                  std::uint32_t* source);

  net::RpcHub* hub_;
  std::vector<net::NodeId> servers_;
  kv::HashRing ring_;
  kv::Client kv_;  // explicit set_on/get_from only; no implicit routing
  std::uint32_t replication_factor_;

  ChunkSource chunks_;
  Liveness live_;
  RecoveringCheck recovering_;
  RecoveryDone done_;
  flowctl::CapacityController* flowctl_ = nullptr;
  std::uint32_t active_runs_ = 0;
};

}  // namespace hpcbb::repl
