// Burst-buffer master: metadata for buffered files, the flush pipeline that
// drains dirty blocks from the KV burst buffer to Lustre, and loss
// accounting. This is the control plane of the paper's design; the data
// plane is the RDMA KV store itself.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "burstbuffer/mdlog.h"
#include "burstbuffer/protocol.h"
#include "flowctl/controller.h"
#include "integrity/scrubber.h"
#include "kvstore/client.h"
#include "lustre/client.h"
#include "net/rpc.h"
#include "repl/recovery.h"
#include "sim/sync.h"
#include "sim/trace.h"

namespace hpcbb::bb {

struct MasterParams {
  std::uint64_t block_size = 128 * MiB;
  std::uint64_t chunk_size = 1 * MiB;
  std::uint32_t flusher_count = 4;
  sim::SimTime md_op_ns = 15 * duration::us;
  std::string lustre_prefix = "/bb";
  // Flow control: total KV buffer memory (0 disables the subsystem). The
  // CapacityController gates block admission by watermarks over
  // dirty+clean+reserved bytes, escalates the flushers under pressure, and
  // evicts flushed (clean) blocks before ever delaying a writer — see
  // flowctl/controller.h. `flowctl.capacity_bytes` is overridden by
  // `buffer_capacity_bytes` at construction.
  std::uint64_t buffer_capacity_bytes = 0;
  flowctl::FlowControlParams flowctl;
  // Heartbeat failure detector over the KV servers (0 interval = off, the
  // seed behaviour). `suspect_after`/`dead_after` are consecutive missed
  // probes; a suspect peer already triggers degraded mode.
  sim::SimTime heartbeat_interval_ns = 0;
  std::uint32_t suspect_after = 2;
  std::uint32_t dead_after = 4;
  // Client config for the flush workers (ring failover during outages).
  // `kv_client.replication_factor > 1` also turns on the replication
  // recovery subsystem: the master tracks per-block replica sets and runs a
  // repl::RecoveryManager off the failure detector (re-replication on
  // death, anti-entropy on rejoin).
  kv::ClientParams kv_client;
  // Background integrity scrubber over the sealed buffer-resident chunks
  // (interval 0 = off, the seed behaviour). See integrity/scrubber.h.
  integrity::ScrubParams scrub;
  // Metadata durability: write-ahead journal + checkpoints in the KV tier's
  // reserved `!md:` range, enabling crash()/restart() with zero metadata
  // loss. Off by default (the seed behaviour, zero extra events). See
  // burstbuffer/mdlog.h.
  MdParams md;
};

// Failure-detector verdict for one KV server. kRecovering: the server
// rejoined after a restart but anti-entropy has not finished restoring its
// key ranges — it counts as non-live (degraded mode stays on, and it takes
// no placements as a repair source/destination) until recovery completes.
enum class PeerState { kLive, kSuspect, kDead, kRecovering };

// Scheme-aware flow-control policy: BB-Sync never accumulates dirty bytes
// (durability is established on the write path), so its dirty-credit gate
// is lifted to the critical watermark and background pacing is moot.
flowctl::FlowControlParams scheme_policy(flowctl::FlowControlParams params,
                                         Scheme scheme) noexcept;

class Master {
 public:
  // Flush workers are placed round-robin on the KV server nodes: in the
  // paper's deployment the burst-buffer servers persist data to Lustre.
  Master(net::RpcHub& hub, net::NodeId node,
         std::vector<net::NodeId> kv_servers, net::NodeId lustre_mds,
         Scheme scheme, const MasterParams& params);
  ~Master();

  Master(const Master&) = delete;
  Master& operator=(const Master&) = delete;

  [[nodiscard]] net::NodeId node() const noexcept { return node_; }
  [[nodiscard]] Scheme scheme() const noexcept { return scheme_; }
  [[nodiscard]] const MasterParams& params() const noexcept { return params_; }

  [[nodiscard]] std::string lustre_path(const std::string& path) const {
    return params_.lustre_prefix + path;
  }

  // Flush/durability telemetry (harness-side observability).
  [[nodiscard]] std::uint64_t dirty_blocks() const noexcept {
    return dirty_or_flushing_;
  }
  [[nodiscard]] std::uint64_t flushed_blocks() const noexcept {
    return flushed_blocks_;
  }
  [[nodiscard]] std::uint64_t flushed_bytes() const noexcept {
    return flushed_bytes_;
  }
  [[nodiscard]] std::uint64_t lost_blocks() const noexcept {
    return lost_blocks_;
  }
  [[nodiscard]] std::uint64_t recovered_blocks() const noexcept {
    return recovered_blocks_;
  }
  [[nodiscard]] std::uint64_t quarantined_blocks() const noexcept {
    return quarantined_blocks_;
  }
  [[nodiscard]] std::uint64_t flush_queue_depth() const noexcept {
    return flush_queue_depth_;
  }

  // Blocks until no block is dirty or mid-flush (the durability window has
  // closed). Used by benchmarks and failure experiments.
  sim::Task<void> wait_all_flushed();

  // ---- crash-restart (metadata durability) ----
  // Crash the master process: unbind every RPC port, drop all volatile
  // state (file map, flush queue, flow-control accounting, counters), and
  // retire the worker coroutines. With journaling on, restart() recovers
  // everything from the KV-resident checkpoint + journal tail; with it off
  // this models the seed's unrecoverable single point of failure. Driven by
  // the fault injector (faults.master.* schedule) or directly by tests.
  void crash();
  // Spawn the recovery task: load checkpoint, replay the journal tail,
  // reconcile against the live chunk inventory, re-arm flow control, rebind
  // ports, and respawn flushers/detector/scrubber. No-op unless crashed.
  void restart();
  [[nodiscard]] bool crashed() const noexcept { return crashed_; }
  // Resolves once the master is serving again (immediately if not crashed).
  sim::Task<void> wait_recovered();
  // Recovery telemetry (cumulative over all restarts this run).
  [[nodiscard]] std::uint64_t replayed_records() const noexcept {
    return replayed_records_;
  }
  [[nodiscard]] std::uint64_t recovered_files() const noexcept {
    return recovered_files_;
  }
  [[nodiscard]] std::uint64_t restarts() const noexcept { return restarts_; }
  [[nodiscard]] MetadataJournal* journal() noexcept { return journal_.get(); }

  // Failure-detector introspection. With the detector off every peer reads
  // kLive and the master never enters degraded mode.
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }
  [[nodiscard]] PeerState peer_state(std::uint32_t kv_index) const {
    return peer_health_[kv_index].state;
  }
  [[nodiscard]] std::uint32_t live_kv_count() const noexcept;
  [[nodiscard]] std::uint32_t suspect_kv_count() const noexcept;
  // Stop the periodic prober, the integrity scrubber, and the checkpoint
  // timer (each wakes at most once more). Harnesses call this when the
  // measured phase ends so the simulation can run to quiescence — otherwise
  // the periodic timers keep the event queue alive.
  void stop_heartbeat() noexcept {
    heartbeat_stop_ = true;
    if (scrubber_ != nullptr) scrubber_->stop();
  }

  // Quarantine a dirty block whose data is corrupt on every copy: the
  // flusher will never persist it to Lustre, and reads fail with kDataLoss
  // instead of silently serving garbage. No-op unless the block is kDirty.
  void quarantine_block(const std::string& path, std::uint32_t block_index);

  // Background integrity scrubber (null unless scrub.interval_ns > 0).
  [[nodiscard]] integrity::Scrubber* scrubber() noexcept {
    return scrubber_.get();
  }

  // Memory-pressure management (watermarks, eviction, writer backpressure).
  [[nodiscard]] flowctl::CapacityController& flow_control() noexcept {
    return flowctl_;
  }

  // Replication recovery (null unless kv_client.replication_factor > 1).
  [[nodiscard]] repl::RecoveryManager* recovery() noexcept {
    return recovery_.get();
  }

  // Optional span tracing of the flush pipeline ("bb" category), the
  // flow-control subsystem ("flowctl" category), and the metadata journal
  // ("md" category — its own attribution layer).
  void set_trace(sim::TraceRecorder* recorder) noexcept {
    trace_ = recorder;
    flowctl_.set_trace(recorder);
    if (journal_ != nullptr) journal_->set_trace(recorder);
  }

 private:
  struct FileMeta {
    std::vector<BbBlockInfo> blocks;
    lustre::FileLayout lustre_layout;
    std::uint64_t size = 0;
    std::uint64_t create_token = 0;  // idempotency token of the create
    bool closed = false;
  };
  struct PeerHealth {
    PeerState state = PeerState::kLive;
    std::uint32_t missed = 0;       // consecutive failed probes
    std::uint64_t incarnation = 0;  // last seen; 0 = never probed
  };
  struct FlushItem {
    std::string path;
    std::uint32_t block_index = 0;
    std::uint64_t op_id = 0;  // causal trace id from the writer
    // Buffer-read retries so far: with replication armed a failed chunk
    // read during an outage is requeued (replica writes and repair may
    // still be in flight) instead of immediately declaring the block lost.
    std::uint32_t attempts = 0;
    // Lustre-write retries so far; sets the backoff before the next one.
    // Kept apart from `attempts` so a Lustre outage does not use up the
    // buffer-read grace window.
    std::uint32_t lustre_retries = 0;
    // Stamped by enqueue_flush; the flush worker records the enqueue -> pace
    // dwell as a "wait.flush_queue" span so latency attribution can split
    // the flush pipeline into queueing and service time.
    sim::SimTime enqueued_ns = 0;
  };

  sim::Task<net::RpcResponse> handle_create(
      std::shared_ptr<const BbCreateRequest>);
  sim::Task<net::RpcResponse> handle_add_block(
      std::shared_ptr<const BbAddBlockRequest>);
  sim::Task<net::RpcResponse> handle_complete_block(
      std::shared_ptr<const BbCompleteBlockRequest>);
  sim::Task<net::RpcResponse> handle_close(
      std::shared_ptr<const BbCloseRequest>);
  sim::Task<net::RpcResponse> handle_locations(
      std::shared_ptr<const BbLocationsRequest>);
  sim::Task<net::RpcResponse> handle_delete(
      std::shared_ptr<const BbDeleteRequest>);
  sim::Task<net::RpcResponse> handle_list(std::shared_ptr<const BbListRequest>);

  sim::Task<void> charge_md_op();
  // Periodic liveness probing of every KV server; drives the
  // suspect -> dead -> rejoined lifecycle and degraded-mode transitions.
  // `generation` retires the worker after a crash (see crash()).
  sim::Task<void> heartbeat_worker(std::uint64_t generation);
  void apply_probe_result(std::uint32_t kv_index, bool reachable,
                          std::uint64_t incarnation);
  void update_health_mode();
  // Anti-entropy finished: the recovering server becomes live again.
  void on_recovery_complete(std::uint32_t kv_index);
  // Inventory of buffer-resident replicated chunks for the recovery
  // manager (every sealed block's chunk keys, with pin state).
  [[nodiscard]] std::vector<repl::ChunkRef> replicated_chunks() const;
  // Inventory of scrubbable chunks (every chunk of a dirty or flushed block).
  [[nodiscard]] std::vector<integrity::ScrubChunk> scrub_inventory() const;
  sim::Task<void> flush_worker(std::uint64_t generation,
                               std::uint32_t worker_index);
  sim::Task<Status> flush_block(std::uint64_t generation,
                                std::uint32_t worker_index,
                                const FlushItem& item);
  sim::Task<void> evict_worker(std::uint64_t generation);

  // ---- metadata durability internals ----
  void bind_ports();
  void unbind_ports();
  // Spawn the flush/evict/heartbeat/checkpoint workers for generation_.
  void spawn_workers();
  // (Re)create and start the integrity scrubber; a stopped Scrubber cannot
  // be restarted, so restart builds a fresh one.
  void make_scrubber();
  // Durable journal append for the acknowledge path (returns kUnavailable
  // on crash — the caller must not ack); the async variant is for
  // background mutations nothing acknowledges against.
  sim::Task<Status> journal_append(MdRecord record);
  void journal_append_async(MdRecord record);
  void maybe_trigger_checkpoint();
  sim::Task<void> checkpoint_worker(std::uint64_t generation);
  sim::Task<void> run_checkpoint(std::uint64_t generation);
  // Recovery pipeline (restart()): journal load -> checkpoint install ->
  // record replay -> inventory reconciliation -> worker respawn.
  sim::Task<void> restart_task();
  [[nodiscard]] MdCheckpoint make_checkpoint() const;
  void install_checkpoint(MdCheckpoint&& checkpoint);
  void apply_record(const MdRecord& record);
  sim::Task<void> reconcile(std::uint64_t generation);
  void finish_block(const std::string& path, BbBlockInfo& block,
                    BlockState state);
  void release_reservation(BbBlockInfo& block);
  // Buffer-resident footprint of a sealed block: chunks are padded to
  // chunk_size, so the block occupies a whole number of chunks.
  [[nodiscard]] std::uint64_t block_footprint(std::uint64_t size) const {
    return (size + params_.chunk_size - 1) / params_.chunk_size *
           params_.chunk_size;
  }
  // The seal invariant every reader relies on: one writer CRC per chunk.
  [[nodiscard]] bool one_crc_per_chunk(
      std::uint64_t size, const std::vector<std::uint32_t>& crcs) const {
    return crcs.size() == block_footprint(size) / params_.chunk_size;
  }

  net::RpcHub* hub_;
  net::NodeId node_;
  std::vector<net::NodeId> kv_servers_;
  net::NodeId lustre_mds_;
  Scheme scheme_;
  MasterParams params_;
  lustre::LustreClient lustre_;
  flowctl::CapacityController flowctl_;

  std::map<std::string, FileMeta> files_;
  sim::Channel<FlushItem> flush_queue_;
  sim::Condition flush_done_;
  std::vector<std::unique_ptr<kv::Client>> flusher_clients_;
  std::unique_ptr<kv::Client> probe_client_;  // heartbeat pings, from node_
  std::vector<PeerHealth> peer_health_;
  std::unique_ptr<repl::RecoveryManager> recovery_;
  std::unique_ptr<integrity::Scrubber> scrubber_;
  std::unique_ptr<MetadataJournal> journal_;
  bool heartbeat_stop_ = false;
  bool degraded_ = false;
  sim::SimTime degraded_since_ = 0;

  // Crash-restart machinery: every worker coroutine captures generation_
  // at spawn and retires when it no longer matches (crash() bumps it), so
  // stale coroutines resumed across a restart can never mutate recovered
  // state. `bound_` makes port teardown idempotent between crash() and the
  // destructor.
  std::uint64_t generation_ = 0;
  bool crashed_ = false;
  bool bound_ = false;
  bool checkpoint_running_ = false;
  sim::Condition recovered_cond_;
  std::uint64_t restarts_ = 0;
  std::uint64_t replayed_records_ = 0;
  std::uint64_t recovered_files_ = 0;

  // Enqueue/dequeue wrapper keeping the depth counter and the
  // `bb.flush_queue_depth` gauge in lock-step with flush_queue_.
  void enqueue_flush(FlushItem item);

  sim::TraceRecorder* trace_ = nullptr;
  std::uint64_t flush_queue_depth_ = 0;
  std::uint64_t dirty_or_flushing_ = 0;
  std::uint64_t flushed_blocks_ = 0;
  std::uint64_t flushed_bytes_ = 0;
  std::uint64_t lost_blocks_ = 0;
  std::uint64_t recovered_blocks_ = 0;
  std::uint64_t quarantined_blocks_ = 0;
};

}  // namespace hpcbb::bb
