// Background integrity scrubber: a credit-paced walker that periodically
// re-reads every sealed burst-buffer chunk, verifies it against the
// writer-registered CRC, and drives repair:
//
//   * at R>1 the verified-read client repairs a corrupt replica inline
//     (read-repair, kv.integrity.repaired);
//   * a chunk corrupt on every buffer copy but already durable is re-read
//     from Lustre, re-verified, and written back (kv.scrub.repaired);
//   * a chunk corrupt on every copy and NOT yet durable is unrepairable —
//     the owning block is quarantined so the flusher never persists the
//     corrupt bytes to Lustre (kv.scrub.unrepairable).
//
// Scrub traffic is paced through the owner's flowctl credits exactly like
// replication recovery: each in-flight probe holds an admission credit for
// its footprint, so scrubbing yields to foreground writers.
//
// Telemetry (simulation MetricRegistry): kv.scrub.passes / chunks / bytes /
// repaired / unrepairable counters and the kv.scrub.pass_ns histogram.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "flowctl/controller.h"
#include "kvstore/client.h"
#include "lustre/client.h"
#include "net/rpc.h"
#include "sim/task.h"

namespace hpcbb::integrity {

struct ScrubParams {
  // Delay between scrub passes; 0 disables the scrubber entirely.
  sim::SimTime interval_ns = 0;
  // Optional fixed delay between chunk probes, on top of flowctl credits.
  sim::SimTime chunk_pace_ns = 0;
};

// One scrubbable chunk as the metadata owner (the BB master) sees it.
struct ScrubChunk {
  std::string key;                  // KV key of the chunk
  std::string path;                 // owning file
  std::uint32_t block_index = 0;
  std::uint32_t chunk_index = 0;
  std::uint32_t crc = 0;            // writer-registered CRC (logical bytes)
  std::uint64_t logical_len = 0;    // unpadded length within the block
  std::uint64_t padded_len = 0;     // slab-class footprint (pacing credit)
  std::uint64_t lustre_offset = 0;  // absolute file offset of this chunk
  bool durable = false;             // block is kFlushed: Lustre can repair
};

// The pass loop joins the ambient task scope of start(). An owner that
// drops the scrubber while the loop is suspended (a crashing master) must
// cancel that scope first: the loop then unwinds at its next wakeup without
// touching the scrubber again.
class Scrubber {
 public:
  // Chunk inventory snapshot, taken at the start of every pass.
  using Inventory = std::function<std::vector<ScrubChunk>()>;
  // An unrepairable, not-yet-durable block: quarantine it.
  using Quarantine =
      std::function<void(const std::string& path, std::uint32_t block_index)>;

  Scrubber(net::RpcHub& hub, net::NodeId node,
           std::vector<net::NodeId> kv_servers, net::NodeId lustre_mds,
           const kv::ClientParams& client_params, const ScrubParams& params,
           std::string lustre_prefix);

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  void set_inventory(Inventory fn) { inventory_ = std::move(fn); }
  void set_quarantine(Quarantine fn) { quarantine_ = std::move(fn); }
  // Optional pacing: each in-flight probe holds an admission credit.
  void set_flow_control(flowctl::CapacityController* fc) { flowctl_ = fc; }

  // Spawns the periodic pass loop (no-op when interval is 0 or no
  // inventory is wired).
  void start();
  // Ends the loop; like the master's heartbeat, it wakes at most once more.
  void stop() noexcept { stop_ = true; }

  [[nodiscard]] std::uint64_t passes() const noexcept { return passes_; }

 private:
  sim::Task<void> run();
  sim::Task<void> scrub_pass();
  // Re-read the chunk's logical bytes from Lustre, verify, write back to
  // the buffer (unpinned: the block is durable). False if Lustre cannot
  // produce a verified copy.
  sim::Task<bool> repair_from_lustre(ScrubChunk chunk);

  net::RpcHub* hub_;
  net::NodeId node_;
  kv::Client kv_;
  lustre::LustreClient lustre_;
  ScrubParams params_;
  std::string lustre_prefix_;

  Inventory inventory_;
  Quarantine quarantine_;
  flowctl::CapacityController* flowctl_ = nullptr;
  bool stop_ = false;
  std::uint64_t passes_ = 0;
};

}  // namespace hpcbb::integrity
