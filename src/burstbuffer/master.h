// Burst-buffer master: metadata for buffered files and crash/restart. This
// is the control plane of the paper's design; the data plane is the RDMA KV
// store itself. Each handler applies a mutation to the metadata and then
// appends its record; the MetadataJournal (burstbuffer/mdlog.h) owns the
// rest of metadata durability: checkpoints, their policy, and replay.
// Draining dirty blocks to Lustre is the FlushPipeline's job
// (burstbuffer/flush.h), and KV-server liveness the PeerMonitor's
// (burstbuffer/peer_monitor.h).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "burstbuffer/flush.h"
#include "burstbuffer/peer_monitor.h"
#include "integrity/scrubber.h"
#include "repl/recovery.h"

namespace hpcbb::bb {

struct MasterParams {
  sim::SimTime md_op_ns = 15 * duration::us;
  // Flow control over the total KV buffer memory, flowctl.capacity_bytes
  // (0 disables the subsystem). The CapacityController gates block
  // admission by watermarks over dirty+clean+reserved bytes, escalates the
  // flushers under pressure, and evicts flushed (clean) blocks before ever
  // delaying a writer — see flowctl/controller.h.
  flowctl::FlowControlParams flowctl;
  // Heartbeat failure detector over the KV servers (0 interval = off, the
  // seed behaviour). `suspect_after`/`dead_after` are consecutive missed
  // probes; a suspect peer already triggers degraded mode.
  sim::SimTime heartbeat_interval_ns = 0;
  std::uint32_t suspect_after = 2;
  std::uint32_t dead_after = 4;
  // Background integrity scrubber over the sealed buffer-resident chunks
  // (interval 0 = off, the seed behaviour). See integrity/scrubber.h.
  integrity::ScrubParams scrub;
  // Metadata durability: write-ahead journal + checkpoints in the KV tier's
  // reserved `!md:` range, enabling crash()/restart() with zero metadata
  // loss. Off by default (the seed behaviour, zero extra events). See
  // burstbuffer/mdlog.h.
  MdParams md;
};

// Scheme-aware flow-control policy: BB-Sync never accumulates dirty bytes
// (durability is established on the write path), so its dirty-credit gate
// is lifted to the critical watermark and background pacing is moot.
flowctl::FlowControlParams scheme_policy(flowctl::FlowControlParams params,
                                         Scheme scheme) noexcept;

class Master {
 public:
  // `common` must be the same CommonParams the file system clients get.
  Master(net::RpcHub& hub, net::NodeId node,
         std::vector<net::NodeId> kv_servers, net::NodeId lustre_mds,
         const CommonParams& common, const MasterParams& params);
  ~Master();

  Master(const Master&) = delete;
  Master& operator=(const Master&) = delete;

  [[nodiscard]] net::NodeId node() const noexcept { return node_; }
  [[nodiscard]] const CommonParams& common() const noexcept { return common_; }
  [[nodiscard]] const MasterParams& params() const noexcept { return params_; }

  [[nodiscard]] std::string lustre_path(const std::string& path) const {
    return common_.lustre_prefix + path;
  }

  // Flush/durability telemetry (harness-side observability).
  [[nodiscard]] std::uint64_t dirty_blocks() const noexcept {
    return flush_.dirty_blocks();
  }
  [[nodiscard]] std::uint64_t flushed_blocks() const noexcept {
    return md_.flushed_blocks;
  }
  [[nodiscard]] std::uint64_t flushed_bytes() const noexcept {
    return md_.flushed_bytes;
  }
  [[nodiscard]] std::uint64_t lost_blocks() const noexcept {
    return md_.lost_blocks;
  }
  [[nodiscard]] std::uint64_t recovered_blocks() const noexcept {
    return md_.recovered_blocks;
  }
  [[nodiscard]] std::uint64_t quarantined_blocks() const noexcept {
    return md_.quarantined_blocks;
  }
  [[nodiscard]] std::uint64_t flush_queue_depth() const noexcept {
    return flush_.queue_depth();
  }

  // Blocks until no block is dirty or mid-flush (the durability window has
  // closed). Used by benchmarks and failure experiments.
  sim::Task<void> wait_all_flushed() { return flush_.wait_all_flushed(); }

  // ---- crash-restart (metadata durability) ----
  // Crash the master process: cancel this incarnation's task scope, unbind
  // every RPC port, and drop all volatile state (file map, flush queue,
  // flow-control accounting, counters). With journaling on, restart() recovers
  // everything from the KV-resident checkpoint + journal tail; with it off
  // this models the seed's unrecoverable single point of failure. Driven by
  // the fault injector (faults.master.* schedule) or directly by tests.
  void crash();
  // Spawn the recovery task: the journal loads the checkpoint and replays
  // its tail; then reconcile against the live chunk inventory, re-arm flow
  // control, rebind ports, and respawn flushers/detector/scrubber. No-op
  // unless crashed.
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

  // Failure-detector introspection. With the detector off every peer reads
  // kLive and the master never enters degraded mode.
  [[nodiscard]] bool degraded() const noexcept { return monitor_.degraded(); }
  [[nodiscard]] PeerState peer_state(std::uint32_t kv_index) const {
    return monitor_.state(kv_index);
  }
  [[nodiscard]] std::uint32_t live_kv_count() const noexcept {
    return monitor_.count(PeerState::kLive);
  }
  [[nodiscard]] std::uint32_t suspect_kv_count() const noexcept {
    return monitor_.count(PeerState::kSuspect);
  }
  // Stop the periodic prober, the integrity scrubber, and the checkpoint
  // timer (each wakes at most once more); no size-triggered checkpoint
  // starts either. Harnesses call this when the measured phase ends so the
  // simulation can run to quiescence — otherwise the periodic timers keep
  // the event queue alive.
  void stop_heartbeat() noexcept {
    heartbeat_stop_ = true;
    if (scrubber_ != nullptr) scrubber_->stop();
    if (journal_ != nullptr) journal_->stop();
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

  // Optional span tracing of the flush pipeline and the failure detector
  // ("bb" category), the flow-control subsystem ("flowctl" category), and
  // the metadata journal ("md" category — its own attribution layer).
  void set_trace(sim::TraceRecorder* recorder) noexcept {
    trace_ = recorder;
    flush_.set_trace(recorder);
    monitor_.set_trace(recorder);
    flowctl_.set_trace(recorder);
    if (journal_ != nullptr) journal_->set_trace(recorder);
  }

 private:
  [[nodiscard]] sim::Simulation& sim() const noexcept {
    return hub_->transport().fabric().simulation();
  }

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
  // Serves `port` with one of the handlers above.
  template <typename Req>
  void bind(net::Port port, sim::Task<net::RpcResponse> (Master::*handler)(
                                std::shared_ptr<const Req>)) {
    hub_->bind(node_, port, net::typed_handler<Req>([this, handler](auto req) {
      return (this->*handler)(std::move(req));
    }));
  }

  sim::Task<void> charge_md_op();
  // Periodic liveness probing of every KV server, fed to monitor_; acts on
  // the transitions it reports.
  sim::Task<void> heartbeat_worker();
  // Inventory of buffer-resident replicated chunks for the recovery
  // manager (every sealed block's chunk keys, with pin state).
  [[nodiscard]] std::vector<repl::ChunkRef> replicated_chunks() const;
  // Inventory of scrubbable chunks (every chunk of a dirty or flushed block).
  [[nodiscard]] std::vector<integrity::ScrubChunk> scrub_inventory() const;

  // ---- metadata durability internals ----
  void bind_ports();
  void unbind_ports();
  // Spawn the flush/evict/heartbeat/checkpoint workers into the ambient
  // scope, which is the incarnation's.
  void spawn_workers();
  // (Re)create and start the integrity scrubber; a stopped Scrubber cannot
  // be restarted, so restart builds a fresh one.
  void make_scrubber();
  // Durable journal append for the acknowledge path (a crash unwinds the
  // waiting handler, so the mutation is never acked); returns at once when
  // journaling is off.
  sim::Task<void> journal_append(MdRecord record);
  // Recovery pipeline (restart()): journal recovery (checkpoint + tail
  // replay) -> inventory reconciliation -> worker respawn.
  sim::Task<void> restart_task();
  sim::Task<void> reconcile();
  [[nodiscard]] std::uint32_t chunk_count(std::uint64_t size) const {
    return bb::chunk_count(size, common_.chunk_size);
  }

  net::RpcHub* hub_;
  net::NodeId node_;
  std::vector<net::NodeId> kv_servers_;
  net::NodeId lustre_mds_;
  CommonParams common_;
  MasterParams params_;
  lustre::LustreClient lustre_;
  flowctl::CapacityController flowctl_;

  // File and block metadata. Every journaled transition is md_.apply().
  MdState md_;
  FlushPipeline flush_;
  PeerMonitor monitor_;
  std::unique_ptr<kv::Client> probe_client_;  // heartbeat pings, from node_
  std::unique_ptr<repl::RecoveryManager> recovery_;
  std::unique_ptr<integrity::Scrubber> scrubber_;
  std::unique_ptr<MetadataJournal> journal_;
  bool heartbeat_stop_ = false;

  // Crash-restart machinery. The incarnation's scope holds every task of
  // this master process: the flush and evict workers, the heartbeat worker,
  // restart_task, the journal writer and its checkpoints, the scrubber loop
  // and the RPC handlers. crash() cancels it and opens the next, so no task
  // of a dead incarnation runs another step. `bound_` makes port teardown
  // idempotent between crash() and the destructor.
  sim::Scope* incarnation_ = &sim().open_scope();
  bool crashed_ = false;
  bool bound_ = false;
  sim::Condition recovered_cond_;
  std::uint64_t restarts_ = 0;
  std::uint64_t replayed_records_ = 0;
  std::uint64_t recovered_files_ = 0;
  MetricHandle<Gauge> master_up_{sim().metrics(), "bb.master_up"};
  MetricHandle<Counter> crashes_{sim().metrics(), "bb.md.crashes"};
  MetricHandle<Counter> restart_count_{sim().metrics(), "bb.md.restarts"};
  MetricHandle<Counter> replayed_{sim().metrics(), "bb.md.replayed_records"};
  MetricHandle<Counter> recovered_{sim().metrics(), "bb.md.recovered_files"};
  MetricHandle<Histogram> recovery_ns_{sim().metrics(), "bb.md.recovery_ns"};

  sim::TraceRecorder* trace_ = nullptr;
};

}  // namespace hpcbb::bb
