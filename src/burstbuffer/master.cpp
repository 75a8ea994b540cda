#include "burstbuffer/master.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "common/metrics.h"

namespace hpcbb::bb {

flowctl::FlowControlParams scheme_policy(flowctl::FlowControlParams params,
                                         Scheme scheme) noexcept {
  if (scheme == Scheme::kSync) {
    // Write-through: data is durable at ack, so there is no dirty backlog
    // to bound — only total residency matters. Lift the dirty gate to the
    // critical watermark and drop pacing (the flush queue stays empty).
    params.high_watermark = params.critical_watermark;
    params.background_pace_ns = 0;
  }
  return params;
}

namespace {
// Longest wait between flush retries while Lustre is unreachable: bounds
// how late a flush resumes after Lustre returns.
constexpr sim::SimTime kMaxFlushRetryBackoff = 500 * duration::ms;
}  // namespace

Master::Master(net::RpcHub& hub, net::NodeId node,
               std::vector<net::NodeId> kv_servers, net::NodeId lustre_mds,
               Scheme scheme, const MasterParams& params)
    : hub_(&hub),
      node_(node),
      kv_servers_(std::move(kv_servers)),
      lustre_mds_(lustre_mds),
      scheme_(scheme),
      params_(params),
      lustre_(hub, lustre_mds),
      flowctl_(hub.transport().fabric().simulation(),
               scheme_policy(params.flowctl, scheme),
               static_cast<std::uint32_t>(node)),
      md_{.chunk_size = params.chunk_size},
      flush_queue_(hub.transport().fabric().simulation()),
      flush_done_(hub.transport().fabric().simulation()),
      recovered_cond_(hub.transport().fabric().simulation()) {
  assert(!kv_servers_.empty());
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  for (std::uint32_t w = 0; w < params_.flusher_count; ++w) {
    // Each worker acts from a KV server node (burst-buffer servers persist
    // their data to Lustre in the paper's deployment).
    flusher_clients_.push_back(std::make_unique<kv::Client>(
        *hub_, kv_servers_[w % kv_servers_.size()], kv_servers_,
        params_.kv_client));
  }

  peer_health_.resize(kv_servers_.size());
  if (params_.heartbeat_interval_ns > 0) {
    probe_client_ = std::make_unique<kv::Client>(*hub_, node_, kv_servers_,
                                                 params_.kv_client);
    sim.metrics().gauge("bb.kv_live")
        .set(static_cast<std::uint64_t>(kv_servers_.size()));
  }
  if (params_.kv_client.replication_factor > 1) {
    recovery_ = std::make_unique<repl::RecoveryManager>(
        *hub_, node_, kv_servers_,
        repl::RecoveryParams{params_.kv_client.replication_factor},
        params_.kv_client);
    recovery_->set_chunk_source([this] { return replicated_chunks(); });
    recovery_->set_liveness([this](std::uint32_t i) {
      return peer_health_[i].state == PeerState::kLive;
    });
    recovery_->set_recovering_check([this](std::uint32_t i) {
      return peer_health_[i].state == PeerState::kRecovering;
    });
    recovery_->set_recovery_done(
        [this](std::uint32_t i) { on_recovery_complete(i); });
    recovery_->set_flow_control(&flowctl_);
  }
  if (params_.md.journal) {
    journal_ = std::make_unique<MetadataJournal>(
        *hub_, node_, kv_servers_, params_.kv_client, params_.md);
    journal_->start();
  }
  bind_ports();
  spawn_workers();
  make_scrubber();
  // Liveness gauge for the SLO engine (slo.master_up_min): 1 while the
  // master serves, 0 between crash() and a completed restart.
  sim.metrics().gauge("bb.master_up").set(1);
}

Master::~Master() { unbind_ports(); }

void Master::bind_ports() {
  hub_->bind(node_, kBbCreate, net::typed_handler<BbCreateRequest>([this](
      auto req) { return handle_create(req); }));
  hub_->bind(node_, kBbAddBlock, net::typed_handler<BbAddBlockRequest>([this](
      auto req) { return handle_add_block(req); }));
  hub_->bind(node_, kBbCompleteBlock,
             net::typed_handler<BbCompleteBlockRequest>(
                 [this](auto req) { return handle_complete_block(req); }));
  hub_->bind(node_, kBbClose, net::typed_handler<BbCloseRequest>([this](
      auto req) { return handle_close(req); }));
  hub_->bind(node_, kBbLocations, net::typed_handler<BbLocationsRequest>(
      [this](auto req) { return handle_locations(req); }));
  hub_->bind(node_, kBbDelete, net::typed_handler<BbDeleteRequest>([this](
      auto req) { return handle_delete(req); }));
  hub_->bind(node_, kBbList, net::typed_handler<BbListRequest>([this](
      auto req) { return handle_list(req); }));
  bound_ = true;
}

void Master::unbind_ports() {
  if (!bound_) return;
  for (const net::Port port : {kBbCreate, kBbAddBlock, kBbCompleteBlock,
                               kBbClose, kBbLocations, kBbDelete, kBbList}) {
    hub_->unbind(node_, port);
  }
  bound_ = false;
}

void Master::spawn_workers() {
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  for (std::uint32_t w = 0; w < params_.flusher_count; ++w) {
    sim.spawn(flush_worker(generation_, w));
  }
  sim.spawn(evict_worker(generation_));
  if (probe_client_ != nullptr && !heartbeat_stop_) {
    sim.spawn(heartbeat_worker(generation_));
  }
  if (journal_ != nullptr && params_.md.checkpoint_interval_ns > 0 &&
      !heartbeat_stop_) {
    sim.spawn(checkpoint_worker(generation_));
  }
}

void Master::make_scrubber() {
  if (params_.scrub.interval_ns == 0 || heartbeat_stop_) return;
  scrubber_ = std::make_unique<integrity::Scrubber>(
      *hub_, node_, kv_servers_, lustre_mds_, params_.kv_client,
      params_.scrub, params_.lustre_prefix);
  scrubber_->set_inventory([this] { return scrub_inventory(); });
  scrubber_->set_quarantine(
      [this](const std::string& path, std::uint32_t block_index) {
        quarantine_block(path, block_index);
      });
  scrubber_->set_flow_control(&flowctl_);
  scrubber_->start();
}

sim::Task<void> Master::charge_md_op() {
  return hub_->transport().fabric().charge_cpu(node_, params_.md_op_ns);
}

std::uint32_t Master::live_kv_count() const noexcept {
  std::uint32_t live = 0;
  for (const PeerHealth& h : peer_health_) live += h.state == PeerState::kLive;
  return live;
}

std::uint32_t Master::suspect_kv_count() const noexcept {
  std::uint32_t suspect = 0;
  for (const PeerHealth& h : peer_health_) {
    suspect += h.state == PeerState::kSuspect;
  }
  return suspect;
}

sim::Task<void> Master::heartbeat_worker(std::uint64_t generation) {
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  for (;;) {
    co_await sim.delay(params_.heartbeat_interval_ns);
    if (heartbeat_stop_ || generation != generation_) co_return;
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(kv_servers_.size()); ++i) {
      auto pong = co_await probe_client_->ping(kv_servers_[i]);
      // A crash mid-probe retires this detector; the restarted master runs
      // its own with fresh peer state.
      if (heartbeat_stop_ || generation != generation_) co_return;
      apply_probe_result(i, pong.is_ok(),
                         pong.is_ok() ? pong.value().incarnation : 0);
    }
    update_health_mode();
  }
}

void Master::apply_probe_result(std::uint32_t kv_index, bool reachable,
                                std::uint64_t incarnation) {
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  PeerHealth& health = peer_health_[kv_index];
  if (reachable) {
    // An incarnation bump means the server restarted empty: it rejoins the
    // ring, but everything it held before the crash is gone.
    const bool restarted =
        health.incarnation != 0 && incarnation != health.incarnation;
    if (health.state == PeerState::kRecovering && !restarted) {
      // Anti-entropy still streaming; reachable but not yet eligible.
      health.incarnation = incarnation;
      health.missed = 0;
      return;
    }
    if (restarted || health.state == PeerState::kDead) {
      sim.metrics().counter("bb.detector.rejoined").add();
      if (trace_ != nullptr) {
        trace_->record("rejoin.kv" + std::to_string(kv_index), "bb",
                       static_cast<std::uint32_t>(node_), sim.now(),
                       sim.now());
      }
      if (recovery_ != nullptr) {
        // Placement-eligibility gate: the restarted server is empty, so it
        // holds kRecovering (non-live: degraded mode and write-through stay
        // on) until anti-entropy re-fills its key ranges.
        health.incarnation = incarnation;
        health.missed = 0;
        health.state = PeerState::kRecovering;
        sim.metrics().counter("bb.detector.recovering").add();
        recovery_->on_server_rejoined(kv_index);
        return;
      }
    }
    health.incarnation = incarnation;
    health.missed = 0;
    health.state = PeerState::kLive;
    return;
  }
  ++health.missed;
  if ((health.state == PeerState::kLive ||
       health.state == PeerState::kRecovering) &&
      health.missed >= params_.suspect_after) {
    health.state = PeerState::kSuspect;
    sim.metrics().counter("bb.detector.suspected").add();
    if (trace_ != nullptr) {
      trace_->record("detector.suspect.kv" + std::to_string(kv_index),
                     "detector", static_cast<std::uint32_t>(node_), sim.now(),
                     sim.now());
    }
  }
  if (health.state == PeerState::kSuspect &&
      health.missed >= params_.dead_after) {
    health.state = PeerState::kDead;
    sim.metrics().counter("bb.detector.dead").add();
    if (trace_ != nullptr) {
      trace_->record("detector.dead.kv" + std::to_string(kv_index),
                     "detector", static_cast<std::uint32_t>(node_), sim.now(),
                     sim.now());
    }
    // Restore the replication factor for everything the dead server held.
    if (recovery_ != nullptr) recovery_->on_server_dead(kv_index);
  }
}

void Master::on_recovery_complete(std::uint32_t kv_index) {
  if (peer_health_[kv_index].state != PeerState::kRecovering) return;
  peer_health_[kv_index].state = PeerState::kLive;
  hub_->transport().fabric().simulation().metrics()
      .counter("bb.detector.recovered").add();
  update_health_mode();
}

std::vector<repl::ChunkRef> Master::replicated_chunks() const {
  std::vector<repl::ChunkRef> out;
  for (const auto& [path, meta] : md_.files) {
    for (const BbBlockInfo& block : meta.blocks) {
      if (block.size == 0) continue;
      if (block.state != BlockState::kDirty &&
          block.state != BlockState::kFlushing &&
          block.state != BlockState::kFlushed) {
        continue;
      }
      const std::uint32_t chunks = chunk_count(block.size);
      // Dirty chunks stay pinned until their flush completes.
      const bool pinned = block.state != BlockState::kFlushed;
      const std::string block_id = local_object(path, block.index);
      for (std::uint32_t c = 0; c < chunks; ++c) {
        out.push_back(repl::ChunkRef{chunk_key(path, block.index, c),
                                     block_id, params_.chunk_size, pinned});
      }
    }
  }
  return out;
}

void Master::update_health_mode() {
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  const std::uint32_t live = live_kv_count();
  sim.metrics().gauge("bb.kv_live").set(live);
  sim.metrics().gauge("bb.kv_suspect").set(suspect_kv_count());
  const bool now_degraded =
      live < static_cast<std::uint32_t>(kv_servers_.size());
  if (now_degraded == degraded_) return;
  degraded_ = now_degraded;
  // Level gauges for the SLO engine (slo.degraded_window_max_ns measures an
  // *open* window as now - bb.degraded_since_ns while bb.degraded is 1).
  sim.metrics().gauge("bb.degraded").set(degraded_ ? 1 : 0);
  sim.metrics().gauge("bb.degraded_since_ns").set(degraded_ ? sim.now() : 0);
  if (degraded_) {
    degraded_since_ = sim.now();
    sim.metrics().counter("bb.degraded.entered").add();
    // At-risk dirty blocks must reach Lustre before another server fails:
    // drop all flush pacing until the cluster is healthy again.
    flowctl_.force_urgent(true);
  } else {
    // Recovery time: from first suspicion to all peers live again.
    sim.metrics().histogram("bb.degraded_window_ns")
        .record(sim.now() - degraded_since_);
    flowctl_.force_urgent(false);
  }
  if (trace_ != nullptr) {
    trace_->record(degraded_ ? "degraded.enter" : "degraded.exit", "bb",
                   static_cast<std::uint32_t>(node_), sim.now(), sim.now());
  }
}

sim::Task<net::RpcResponse> Master::handle_create(
    std::shared_ptr<const BbCreateRequest> req) {
  co_await charge_md_op();
  if (const auto it = md_.files.find(req->path); it != md_.files.end()) {
    if (req->token != 0 && it->second.create_token == req->token) {
      // Retransmitted create whose first reply was lost: already done.
      co_return net::RpcResponse{Status::ok(), nullptr, kHeaderBytes};
    }
    co_return net::rpc_error(
        error(StatusCode::kAlreadyExists, "file exists: " + req->path));
  }
  // Create the Lustre backing file up front: flushers and write-through
  // writers need its layout immediately.
  Result<lustre::FileLayout> layout =
      co_await lustre_.create(node_, lustre_path(req->path));
  if (!layout.is_ok()) co_return net::rpc_error(layout.status());
  // Apply-then-journal-then-ack: the mutation and its sequence number are
  // allocated in the same synchronous segment, so any checkpoint snapshot
  // covers exactly the journaled prefix. The token rides along so create
  // retransmissions stay idempotent across a restart.
  MdRecord record{.type = MdRecordType::kFileCreate,
                  .path = req->path,
                  .token = req->token};
  (void)md_.apply(record);
  md_.files.at(req->path).lustre_layout = std::move(layout).value();
  if (Status st = co_await journal_append(std::move(record)); !st.is_ok()) {
    co_return net::rpc_error(std::move(st));
  }
  co_return net::RpcResponse{Status::ok(), nullptr, kHeaderBytes};
}

sim::Task<net::RpcResponse> Master::handle_add_block(
    std::shared_ptr<const BbAddBlockRequest> req) {
  co_await charge_md_op();
  const auto it = md_.files.find(req->path);
  if (it == md_.files.end()) {
    co_return net::rpc_error(
        error(StatusCode::kNotFound, "no such file: " + req->path));
  }
  if (it->second.closed) {
    co_return net::rpc_error(
        error(StatusCode::kFailedPrecondition, "file is closed"));
  }
  if (req->expected_index != kAnyBlockIndex &&
      req->expected_index < it->second.blocks.size()) {
    // The writer expects an index this (single-writer) file already has:
    // a retransmitted AddBlock. Return the existing block — allocating a
    // fresh one would orphan a hole in the middle of the file.
    auto reply = std::make_shared<BbAddBlockReply>();
    reply->block_index = req->expected_index;
    reply->write_through = degraded_ && scheme_ != Scheme::kSync;
    const std::uint64_t wire = reply->wire_size();
    co_return net::rpc_ok<BbAddBlockReply>(std::move(reply), wire);
  }
  // Credit-based admission: may evict clean blocks, may stall (but never
  // reject) under memory pressure.
  (void)co_await flowctl_.admit(params_.block_size, req->op_id);
  // Re-find: the admission wait suspends, and the file may change meanwhile.
  const auto it2 = md_.files.find(req->path);
  if (it2 == md_.files.end()) {
    flowctl_.release_reservation(params_.block_size);
    co_return net::rpc_error(
        error(StatusCode::kNotFound, "file deleted while admitting block"));
  }
  auto reply = std::make_shared<BbAddBlockReply>();
  reply->block_index = static_cast<std::uint32_t>(it2->second.blocks.size());
  // Suspect/dead KV servers: have the writer establish durability on the
  // write path instead of trusting the buffer to survive until flush.
  reply->write_through = degraded_ && scheme_ != Scheme::kSync;
  MdRecord record{.type = MdRecordType::kBlockAdd,
                  .path = req->path,
                  .block_index = reply->block_index,
                  .op_id = req->op_id};
  (void)md_.apply(record);
  it2->second.blocks.back().reservation_held = flowctl_.enabled();
  if (Status st = co_await journal_append(std::move(record)); !st.is_ok()) {
    co_return net::rpc_error(std::move(st));
  }
  const std::uint64_t wire = reply->wire_size();
  co_return net::rpc_ok<BbAddBlockReply>(std::move(reply), wire);
}

sim::Task<net::RpcResponse> Master::handle_complete_block(
    std::shared_ptr<const BbCompleteBlockRequest> req) {
  co_await charge_md_op();
  const auto it = md_.files.find(req->path);
  if (it == md_.files.end()) {
    co_return net::rpc_error(
        error(StatusCode::kNotFound, "no such file: " + req->path));
  }
  if (req->block_index >= it->second.blocks.size()) {
    co_return net::rpc_error(error(StatusCode::kNotFound, "no such block"));
  }
  BbBlockInfo& block = it->second.blocks[req->block_index];
  if (block.state != BlockState::kOpen) {
    // Only CompleteBlock moves a block out of kOpen, so this is a
    // retransmission — the first one already settled the accounting.
    co_return net::RpcResponse{Status::ok(), nullptr, kHeaderBytes};
  }
  // The seal is the record that makes acknowledged data recoverable: it
  // carries everything a restarted master needs to re-flush (CRCs, local
  // replica, replica set).
  MdRecord record{.type = MdRecordType::kBlockSeal,
                  .path = req->path,
                  .block_index = req->block_index,
                  .size = req->size,
                  .chunk_crcs = req->chunk_crcs,
                  .already_durable = req->already_durable,
                  .has_local_node = req->local_node.has_value(),
                  .local_node = static_cast<std::uint32_t>(
                      req->local_node.value_or(0)),
                  .op_id = req->op_id};
  if (recovery_ != nullptr && req->size > 0) {
    // Record where the block's chunks live: the union of the chunks' ring
    // replica sets (deterministic, so clients and recovery agree).
    std::vector<std::uint32_t>& replicas = record.replicas;
    for (std::uint32_t c = 0; c < chunk_count(req->size); ++c) {
      for (const std::uint32_t s :
           recovery_->replicas(chunk_key(req->path, block.index, c))) {
        if (std::find(replicas.begin(), replicas.end(), s) ==
            replicas.end()) {
          replicas.push_back(s);
        }
      }
    }
    std::sort(replicas.begin(), replicas.end());
  }
  if (Status st = md_.apply(record); !st.is_ok()) {
    co_return net::rpc_error(std::move(st));
  }
  const std::uint64_t reserved =
      block.reservation_held ? params_.block_size : 0;
  block.reservation_held = false;
  if (req->already_durable) {
    flowctl_.reservation_to_clean(reserved,
                                  local_object(req->path, block.index),
                                  block_footprint(req->size));
  } else {
    flowctl_.reservation_to_dirty(reserved, block_footprint(req->size));
    ++dirty_or_flushing_;
    enqueue_flush(FlushItem{req->path, req->block_index, req->op_id});
  }
  if (Status st = co_await journal_append(std::move(record)); !st.is_ok()) {
    co_return net::rpc_error(std::move(st));
  }
  co_return net::RpcResponse{Status::ok(), nullptr, kHeaderBytes};
}

sim::Task<net::RpcResponse> Master::handle_close(
    std::shared_ptr<const BbCloseRequest> req) {
  co_await charge_md_op();
  if (!md_.files.contains(req->path)) {
    co_return net::rpc_error(
        error(StatusCode::kNotFound, "no such file: " + req->path));
  }
  MdRecord record{.type = MdRecordType::kFileClose,
                  .path = req->path,
                  .size = req->size};
  (void)md_.apply(record);
  if (Status st = co_await journal_append(std::move(record)); !st.is_ok()) {
    co_return net::rpc_error(std::move(st));
  }
  // Record the logical size on Lustre now; block data lands as flushes
  // complete (MDS set-size keeps the max).
  Status st = co_await lustre_.set_size(node_, lustre_path(req->path),
                                        req->size);
  if (!st.is_ok()) co_return net::rpc_error(std::move(st));
  co_return net::RpcResponse{Status::ok(), nullptr, kHeaderBytes};
}

sim::Task<net::RpcResponse> Master::handle_locations(
    std::shared_ptr<const BbLocationsRequest> req) {
  co_await charge_md_op();
  const auto it = md_.files.find(req->path);
  if (it == md_.files.end()) {
    co_return net::rpc_error(
        error(StatusCode::kNotFound, "no such file: " + req->path));
  }
  // Opening for read marks the file's flushed blocks recently used, so the
  // eviction LRU prefers cold files.
  for (const BbBlockInfo& block : it->second.blocks) {
    if (block.state == BlockState::kFlushed) {
      flowctl_.touch_clean(local_object(req->path, block.index));
    }
  }
  auto reply = std::make_shared<BbLocationsReply>();
  reply->file_size = it->second.size;
  reply->block_size = params_.block_size;
  reply->closed = it->second.closed;
  reply->blocks = it->second.blocks;
  const std::uint64_t wire = reply->wire_size();
  co_return net::rpc_ok<BbLocationsReply>(std::move(reply), wire);
}

sim::Task<net::RpcResponse> Master::handle_delete(
    std::shared_ptr<const BbDeleteRequest> req) {
  co_await charge_md_op();
  const auto it = md_.files.find(req->path);
  if (it == md_.files.end()) {
    co_return net::rpc_error(
        error(StatusCode::kNotFound, "no such file: " + req->path));
  }
  // Capture the blocks and delete first so queued flushes see the file as
  // gone; settle all the (synchronous) accounting before the first
  // suspension so the metadata map never holds a half-deleted file across a
  // scheduling point.
  std::vector<BbBlockInfo> blocks = std::move(it->second.blocks);
  MdRecord record{.type = MdRecordType::kFileDelete, .path = req->path};
  (void)md_.apply(record);
  for (BbBlockInfo& block : blocks) {
    switch (block.state) {
      case BlockState::kDirty:
      case BlockState::kFlushing:
        // Its flush item will find the file gone and skip; settle the
        // accounting here: the dirty bytes simply leave the buffer.
        flowctl_.drop_dirty(block_footprint(block.size));
        assert(dirty_or_flushing_ > 0);
        --dirty_or_flushing_;
        if (dirty_or_flushing_ == 0) flush_done_.notify_all();
        break;
      case BlockState::kFlushed:
        flowctl_.forget_clean(local_object(req->path, block.index));
        break;
      case BlockState::kOpen:
      case BlockState::kLost:
      case BlockState::kQuarantined:  // accounting settled when quarantined
        release_reservation(block);   // e.g. added but never sealed
        break;
    }
  }
  if (Status st = co_await journal_append(std::move(record)); !st.is_ok()) {
    co_return net::rpc_error(std::move(st));
  }
  for (const BbBlockInfo& block : blocks) {
    co_await erase_chunks(*flusher_clients_.front(), req->path, block.index,
                          chunk_count(block.size));
  }
  Status st = co_await lustre_.unlink(node_, lustre_path(req->path));
  if (!st.is_ok() && st.code() != StatusCode::kNotFound) {
    co_return net::rpc_error(std::move(st));
  }
  co_return net::RpcResponse{Status::ok(), nullptr, kHeaderBytes};
}

sim::Task<net::RpcResponse> Master::handle_list(
    std::shared_ptr<const BbListRequest> req) {
  co_await charge_md_op();
  auto reply = std::make_shared<BbListReply>();
  for (const auto& [path, meta] : md_.files) {
    if (path.starts_with(req->prefix)) reply->paths.push_back(path);
  }
  const std::uint64_t wire = reply->wire_size();
  co_return net::rpc_ok<BbListReply>(std::move(reply), wire);
}

void Master::enqueue_flush(FlushItem item) {
  ++flush_queue_depth_;
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  item.enqueued_ns = sim.now();
  sim.metrics().gauge("bb.flush_queue_depth").add();
  flush_queue_.push(std::move(item));
}

void Master::release_reservation(BbBlockInfo& block) {
  if (!block.reservation_held) return;
  block.reservation_held = false;
  flowctl_.release_reservation(params_.block_size);
}

void Master::finish_block(const std::string& path, BbBlockInfo& block,
                          BlockState state) {
  release_reservation(block);
  MdRecord record{
      .type = state == BlockState::kFlushed ? MdRecordType::kFlushComplete
              : state == BlockState::kLost  ? MdRecordType::kBlockLost
                                            : MdRecordType::kQuarantine,
      .path = path,
      .block_index = block.index,
      .size = block.size,
      .op_id = block.op_id};
  (void)md_.apply(record);
  assert(dirty_or_flushing_ > 0);
  --dirty_or_flushing_;
  if (state == BlockState::kFlushed) {
    // Durable and still buffer-resident: the block becomes clean, evictable
    // cache data.
    flowctl_.dirty_to_clean(local_object(path, block.index),
                            block_footprint(block.size));
  } else {
    // Lost, or corrupt on every copy before it could be flushed: the dirty
    // bytes leave the buffer accounting, and the flusher never writes them.
    flowctl_.drop_dirty(block_footprint(block.size));
    if (state == BlockState::kQuarantined) {
      hub_->transport().fabric().simulation().metrics()
          .counter("bb.quarantined_blocks").add();
    }
  }
  // Flush outcomes have no client waiting for an ack, so they journal
  // asynchronously: the worst a crash costs is a re-flush of an
  // already-durable block (idempotent — Lustre writes are absolute-offset).
  journal_append_async(std::move(record));
  if (dirty_or_flushing_ == 0) flush_done_.notify_all();
}

void Master::quarantine_block(const std::string& path,
                              std::uint32_t block_index) {
  BbBlockInfo* block = md_.block(path, block_index);
  if (block == nullptr || block->state != BlockState::kDirty) return;
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  if (trace_ != nullptr) {
    trace_->record("quarantine." + local_object(path, block_index), "bb",
                   static_cast<std::uint32_t>(node_), sim.now(), sim.now());
  }
  // The queued flush item finds the block no longer kDirty and skips it.
  finish_block(path, *block, BlockState::kQuarantined);
}

std::vector<integrity::ScrubChunk> Master::scrub_inventory() const {
  std::vector<integrity::ScrubChunk> out;
  for (const auto& [path, meta] : md_.files) {
    for (const BbBlockInfo& block : meta.blocks) {
      if (block.size == 0) continue;
      // kFlushing is skipped: the flusher is mid-read and verifies every
      // chunk of the block itself before writing Lustre.
      if (block.state != BlockState::kDirty &&
          block.state != BlockState::kFlushed) {
        continue;
      }
      const std::uint32_t chunks = chunk_count(block.size);
      const bool durable = block.state == BlockState::kFlushed;
      for (std::uint32_t c = 0; c < chunks; ++c) {
        const std::uint64_t c_start =
            static_cast<std::uint64_t>(c) * params_.chunk_size;
        integrity::ScrubChunk chunk;
        chunk.key = chunk_key(path, block.index, c);
        chunk.path = path;
        chunk.block_index = block.index;
        chunk.chunk_index = c;
        chunk.crc = block.chunk_crcs[c];
        chunk.logical_len = std::min(params_.chunk_size, block.size - c_start);
        chunk.padded_len = params_.chunk_size;
        chunk.lustre_offset =
            static_cast<std::uint64_t>(block.index) * params_.block_size +
            c_start;
        chunk.durable = durable;
        chunk.pinned = !durable;
        out.push_back(std::move(chunk));
      }
    }
  }
  return out;
}

sim::Task<void> Master::wait_all_flushed() {
  while (dirty_or_flushing_ > 0) co_await flush_done_.wait();
}

sim::Task<void> Master::flush_worker(std::uint64_t generation,
                                     std::uint32_t worker_index) {
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  for (;;) {
    FlushItem item = co_await flush_queue_.recv();
    if (generation != generation_) {
      // Superseded by a restart: hand the item back to the live
      // generation's workers and retire.
      flush_queue_.push(std::move(item));
      co_return;
    }
    // A flusher whose home node is down can reach nothing — every RPC
    // fails at the source, and because a pushed-back item is popped
    // synchronously by the pusher's own next recv, this worker would
    // starve the live ones and burn the block's retry budget (or wedge a
    // degraded cluster) on failures that say nothing about the data. Park:
    // delay first so a live-node worker wins the item, and only fall
    // through when no other KV node is up — then the read failure itself
    // must run the loss accounting (seed semantics for a full-tier crash).
    {
      net::Fabric& fabric = hub_->transport().fabric();
      const net::NodeId home = flusher_clients_[worker_index]->self();
      bool peer_up = false;
      for (const net::NodeId peer : kv_servers_) {
        if (peer != home && fabric.is_up(peer)) {
          peer_up = true;
          break;
        }
      }
      if (!fabric.is_up(home) && peer_up) {
        flush_queue_.push(std::move(item));
        co_await sim.delay(duration::ms);
        if (generation != generation_) co_return;
        continue;
      }
    }
    assert(flush_queue_depth_ > 0);
    --flush_queue_depth_;
    sim.metrics().gauge("bb.flush_queue_depth").sub();
    // Watermark-driven escalation: drain gently in the background while
    // pressure is low, flat out once dirty bytes cross the high watermark.
    if (const sim::SimTime pace = flowctl_.flush_pace(); pace > 0) {
      co_await sim.delay(pace);
      // Crash during the pacing delay: the item died with the old master;
      // recovery re-enqueues the block from its journaled seal record.
      if (generation != generation_) co_return;
    }
    std::size_t span = 0;
    if (trace_ != nullptr) {
      // Queue dwell plus pacing delay: time the sealed block waited before a
      // flusher started serving it. Attribution counts it as queueing.
      trace_->record("wait.flush_queue", "bb", worker_index, item.enqueued_ns,
                     sim.now(), item.op_id);
      span = trace_->begin(
          "flush.block_" + std::to_string(item.block_index), "bb",
          worker_index, item.op_id);
    }
    const sim::SimTime start = sim.now();
    (void)co_await flush_block(generation, worker_index, item);
    sim.metrics().histogram("bb.flush_ns").record(sim.now() - start);
    if (trace_ != nullptr) trace_->end(span);
    if (generation != generation_) co_return;
  }
}

// Erases the chunks of blocks the flow controller evicted (clean blocks:
// flushed to Lustre, so this only reclaims buffer memory, never loses data).
sim::Task<void> Master::evict_worker(std::uint64_t generation) {
  for (;;) {
    flowctl::CleanBlock victim = co_await flowctl_.evictions().recv();
    if (generation != generation_) {
      // A victim meant for the live generation: hand it back and retire.
      flowctl_.evictions().push(std::move(victim));
      co_return;
    }
    std::size_t span = 0;
    if (trace_ != nullptr) {
      span = trace_->begin("flowctl.evict." + victim.id, "flowctl",
                           static_cast<std::uint32_t>(node_));
    }
    // id is "<path>#<block_index>"; the footprint is chunk-padded, so the
    // chunk count falls out of the byte count.
    const std::size_t sep = victim.id.rfind('#');
    if (sep != std::string::npos) {
      co_await erase_chunks(
          *flusher_clients_.front(), victim.id.substr(0, sep),
          static_cast<std::uint32_t>(
              std::strtoul(victim.id.c_str() + sep + 1, nullptr, 10)),
          static_cast<std::uint32_t>(victim.bytes / params_.chunk_size));
    }
    if (trace_ != nullptr) trace_->end(span);
  }
}

sim::Task<void> Master::erase_chunks(kv::Client& kv, std::string path,
                                     std::uint32_t block_index,
                                     std::uint32_t chunks) {
  for (std::uint32_t c = 0; c < chunks; ++c) {
    (void)co_await kv.erase(chunk_key(path, block_index, c));
  }
}

sim::Task<Status> Master::flush_block(std::uint64_t generation,
                                      std::uint32_t worker_index,
                                      const FlushItem& item) {
  // NOTE: references into md_.files must be re-resolved after every
  // co_await — writers add blocks (vector reallocation) and files can be
  // deleted while a flush is in flight. A generation check rides along:
  // after a crash the rebuilt map may hold the same path again, but this
  // flush belongs to the dead master and must not touch the recovered state.
  const auto lookup = [this, &item] {
    return md_.block(item.path, item.block_index);
  };

  BbBlockInfo* block = lookup();
  if (block == nullptr) co_return Status::ok();  // deleted while queued
  if (block->state != BlockState::kDirty) co_return Status::ok();
  flowctl_.note_flush_begin();
  MdRecord record{.type = MdRecordType::kFlushStart,
                  .path = item.path,
                  .block_index = item.block_index,
                  .op_id = item.op_id};
  (void)md_.apply(record);
  journal_append_async(std::move(record));
  const std::uint64_t block_size = block->size;
  const std::uint32_t block_index = block->index;
  const auto local_node = block->local_node;

  kv::Client& kv = *flusher_clients_[worker_index];
  const net::NodeId self = kv.self();
  const std::uint32_t chunks = chunk_count(block_size);

  // Pull the block out of the burst buffer as its chunks, each trimmed to
  // its logical bytes (stored chunks are padded to uniform size), keeping
  // the item CRC each was verified against on the KV server...
  std::vector<ByteSlice> pieces;
  std::vector<std::uint32_t> item_crcs;
  pieces.reserve(chunks);
  item_crcs.reserve(chunks);
  std::uint64_t fetched = 0;
  bool buffer_ok = true;
  bool corrupt = false;
  for (std::uint32_t c = 0; c < chunks && buffer_ok; ++c) {
    auto piece = co_await kv.get_verified(
        chunk_key(item.path, block_index, c), item.op_id);
    if (!piece.is_ok()) {
      buffer_ok = false;
      // The verified-read client only reports kDataLoss once EVERY replica
      // failed its checksum — this chunk will not heal with a retry.
      corrupt = piece.code() == StatusCode::kDataLoss;
      break;
    }
    const std::uint64_t logical = std::min<std::uint64_t>(
        params_.chunk_size, block_size - std::uint64_t{c} * params_.chunk_size);
    const BytesPtr& value = piece.value()->value;
    const std::uint64_t take = std::min<std::uint64_t>(value->size(), logical);
    pieces.push_back(ByteSlice{value, 0, take});
    item_crcs.push_back(piece.value()->value_crc);
    fetched += take;
  }
  if (generation != generation_) co_return Status::ok();

  // ...or recover from the node-local replica (BB-Local's second copy).
  if ((!buffer_ok || fetched != block_size) && local_node.has_value()) {
    auto req = std::make_shared<const AgentReadRequest>(AgentReadRequest{
        local_object(item.path, block_index), 0, block_size});
    auto result = co_await hub_->call<AgentReadReply>(self, *local_node,
                                                      kAgentRead, req);
    if (generation != generation_) co_return Status::ok();
    if (result.is_ok()) {
      pieces = {whole(result.value()->data)};
      item_crcs.clear();
      fetched = pieces.front().length;
      buffer_ok = true;
      ++md_.recovered_blocks;
    }
  }

  block = lookup();
  if (block == nullptr) co_return Status::ok();  // deleted meanwhile

  // Whatever source produced the block — buffer chunks or the node-local
  // replica — it must match the writer-registered CRCs before it may touch
  // Lustre. Never persist corrupt bytes. Each piece is checked where it
  // lies; none is copied. A buffered chunk is checked by its item CRC, the
  // node-local replica (one piece) by hashing.
  if (buffer_ok && fetched == block_size) {
    std::uint64_t at = 0;
    for (std::uint32_t i = 0; i < pieces.size(); ++i) {
      const ByteSlice& piece = pieces[i];
      const Status st =
          item_crcs.empty()
              ? verify_chunks(*block, params_.chunk_size, at, piece.span())
              : verify_buffered_chunk(*block, params_.chunk_size, i,
                                      *piece.bytes, item_crcs[i]);
      if (!st.is_ok()) {
        buffer_ok = false;
        corrupt = true;
        break;
      }
      at += piece.length;
    }
  }
  if (!buffer_ok || fetched != block_size) {
    if (corrupt) {
      // Corruption does not heal with a requeue: every copy failed its
      // checksum. Quarantine the block so the flusher never writes the
      // corrupt bytes, and surface the loss instead of hiding it.
      finish_block(item.path, *block, BlockState::kQuarantined);
      co_return error(StatusCode::kDataLoss,
                      "block " + std::to_string(block_index) +
                          " corrupt on every copy; quarantined before flush");
    }
    // With replication armed, a failed buffer read is not yet loss while
    // the cluster is visibly unhealthy (or within a short grace window the
    // detector has not caught up to): primary-ack replica writes and
    // re-replication may still be in flight. Requeue and retry; the read
    // only fails conclusively once the cluster is healthy again.
    if (params_.kv_client.replication_factor > 1 &&
        (degraded_ || (recovery_ != nullptr && recovery_->active_runs() > 0) ||
         item.attempts < 4)) {
      block->state = BlockState::kDirty;
      co_await hub_->transport().fabric().simulation().delay(
          params_.heartbeat_interval_ns > 0 ? params_.heartbeat_interval_ns
                                            : duration::ms);
      if (generation != generation_) co_return Status::ok();
      block = lookup();
      if (block == nullptr) co_return Status::ok();
      enqueue_flush(FlushItem{item.path, item.block_index, item.op_id,
                              item.attempts + 1});
      co_return error(StatusCode::kUnavailable,
                      "buffer read failed during outage; flush requeued");
    }
    // Acknowledged-but-unflushed data is gone: this is exactly the
    // durability window the BB-Async scheme trades for speed.
    finish_block(item.path, *block, BlockState::kLost);
    co_return error(StatusCode::kDataLoss, "dirty block lost before flush");
  }

  const auto layout = md_.files.find(item.path)->second.lustre_layout;
  Status st = co_await lustre_.write(
      self, layout,
      static_cast<std::uint64_t>(block_index) * params_.block_size,
      std::move(pieces), item.op_id);
  if (generation != generation_) co_return Status::ok();
  block = lookup();
  if (block == nullptr) co_return Status::ok();
  if (!st.is_ok()) {
    // Lustre hiccup: requeue and retry later rather than dropping data.
    // Each retry re-reads the whole block from the KV tier, so back off
    // exponentially (from the heartbeat interval, capped) instead of
    // hammering the buffer for as long as Lustre stays down.
    block->state = BlockState::kDirty;
    sim::Simulation& sim = hub_->transport().fabric().simulation();
    sim.metrics().counter("bb.flush.retries").add();
    const sim::SimTime base = params_.heartbeat_interval_ns > 0
                                  ? params_.heartbeat_interval_ns
                                  : duration::ms;
    co_await sim.delay(std::min(
        base << std::min<std::uint32_t>(item.lustre_retries, 16),
        kMaxFlushRetryBackoff));
    if (generation != generation_) co_return Status::ok();
    if (lookup() == nullptr) co_return Status::ok();
    FlushItem retry = item;
    ++retry.lustre_retries;
    enqueue_flush(std::move(retry));
    co_return st;
  }
  (void)co_await lustre_.set_size(
      self, lustre_path(item.path),
      static_cast<std::uint64_t>(block_index) * params_.block_size +
          block_size);
  if (generation != generation_) co_return Status::ok();

  // Durable: unpin chunks so the cache may evict them under pressure.
  for (std::uint32_t c = 0; c < chunks; ++c) {
    (void)co_await kv.pin(chunk_key(item.path, block_index, c), false);
  }
  if (generation != generation_) co_return Status::ok();
  block = lookup();
  if (block == nullptr) co_return Status::ok();
  finish_block(item.path, *block, BlockState::kFlushed);
  co_return Status::ok();
}

// ---- metadata durability ----

sim::Task<Status> Master::journal_append(MdRecord record) {
  if (journal_ == nullptr) co_return Status::ok();
  // The append task allocates the record's sequence number synchronously at
  // co_await, in the same segment as the mutation the caller just applied —
  // that pairing is what makes checkpoint snapshots consistent.
  std::size_t span = 0;
  const std::uint64_t op_id = record.op_id;
  if (trace_ != nullptr) {
    span = trace_->begin("md.append", "md", static_cast<std::uint32_t>(node_),
                         op_id);
  }
  Status st = co_await journal_->append(std::move(record));
  if (trace_ != nullptr) trace_->end(span);
  maybe_trigger_checkpoint();
  co_return st;
}

void Master::journal_append_async(MdRecord record) {
  if (journal_ == nullptr) return;
  journal_->append_async(std::move(record));
  maybe_trigger_checkpoint();
}

void Master::maybe_trigger_checkpoint() {
  if (journal_ == nullptr || checkpoint_running_ || crashed_) return;
  if (heartbeat_stop_) return;
  if (params_.md.journal_max_bytes == 0) return;
  if (journal_->bytes_since_checkpoint() < params_.md.journal_max_bytes) {
    return;
  }
  hub_->transport().fabric().simulation().spawn(run_checkpoint(generation_));
}

sim::Task<void> Master::checkpoint_worker(std::uint64_t generation) {
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  for (;;) {
    co_await sim.delay(params_.md.checkpoint_interval_ns);
    if (heartbeat_stop_ || generation != generation_) co_return;
    if (journal_->bytes_since_checkpoint() == 0) continue;  // nothing new
    co_await run_checkpoint(generation);
    if (generation != generation_) co_return;
  }
}

sim::Task<void> Master::run_checkpoint(std::uint64_t generation) {
  if (checkpoint_running_ || generation != generation_) co_return;
  checkpoint_running_ = true;
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  const sim::SimTime start = sim.now();
  std::size_t span = 0;
  if (trace_ != nullptr) {
    span = trace_->begin("md.checkpoint", "md",
                         static_cast<std::uint32_t>(node_));
  }
  // Snapshot and watermark in one synchronous segment: the snapshot then
  // reflects exactly the mutations journaled as records [0, upto).
  const std::uint64_t upto = journal_->next_seq();
  Bytes snapshot = encode_checkpoint(md_.checkpoint());
  (void)co_await journal_->write_checkpoint(std::move(snapshot), upto);
  if (trace_ != nullptr) trace_->end(span);
  if (generation != generation_) co_return;  // crashed mid-checkpoint
  checkpoint_running_ = false;
  sim.metrics().histogram("bb.md.checkpoint_ns").record(sim.now() - start);
}

sim::Task<void> Master::reconcile(std::uint64_t generation) {
  // Probe through a client homed on a live KV node: after a correlated
  // master+server crash the front() client's node may still be down, and
  // every inventory probe from it would fail at the source.
  net::Fabric& fabric = hub_->transport().fabric();
  kv::Client* kv_ptr = flusher_clients_.front().get();
  for (const auto& client : flusher_clients_) {
    if (fabric.is_up(client->self())) {
      kv_ptr = client.get();
      break;
    }
  }
  kv::Client& kv = *kv_ptr;
  std::vector<std::string> dropped_files;
  for (auto& [path, meta] : md_.files) {
    // The Lustre MDS survives the master crash: re-resolve each file's
    // backing layout (journal records deliberately don't carry it).
    Result<lustre::FileLayout> layout =
        co_await lustre_.lookup(node_, lustre_path(path));
    if (generation != generation_) co_return;
    if (!layout.is_ok()) {
      // Journaled create whose Lustre file vanished: without a backing file
      // the metadata is useless. Deterministic rule: drop the whole file.
      dropped_files.push_back(path);
      continue;
    }
    meta.lustre_layout = std::move(layout).value();
    // Deterministic discard rule for unjournaled chunk residue: a closed
    // file can have no live writer, so trailing never-sealed blocks
    // (journaled AddBlock whose seal never became durable — the writer was
    // never acked) are dropped and any chunks the dead writer stored for
    // them are erased from the buffer. Open files keep their kOpen tail:
    // the surviving writer re-seals through the idempotent retransmission
    // protocol.
    std::vector<std::uint32_t> discarded;
    while (meta.closed && !meta.blocks.empty() &&
           meta.blocks.back().state == BlockState::kOpen) {
      discarded.push_back(meta.blocks.back().index);
      meta.blocks.pop_back();
    }
    for (const std::uint32_t index : discarded) {
      co_await erase_chunks(kv, path, index, chunk_count(params_.block_size));
      if (generation != generation_) co_return;
    }
    for (BbBlockInfo& block : meta.blocks) {
      block.reservation_held = false;  // admission credits died in the crash
      switch (block.state) {
        case BlockState::kOpen:
          break;
        case BlockState::kDirty:
        case BlockState::kFlushing: {
          // Journaled but not yet durable on Lustre: back into the flush
          // pipeline. Chunks missing from the buffer (journaled-but-lost)
          // route through flush_block's existing requeue/loss path.
          block.state = BlockState::kDirty;
          flowctl_.reservation_to_dirty(0, block_footprint(block.size));
          ++dirty_or_flushing_;
          enqueue_flush(FlushItem{path, block.index, block.op_id});
          break;
        }
        case BlockState::kFlushed: {
          // Durable on Lustre. Still buffer-resident? A no-op unpin probe on
          // the first chunk answers without moving data: present -> rejoin
          // the clean LRU (evictable, RDMA-readable); absent -> already
          // evicted, reads fall back to Lustre.
          if (block.size == 0) break;
          Status resident =
              co_await kv.pin(chunk_key(path, block.index, 0), false);
          if (generation != generation_) co_return;
          if (resident.is_ok()) {
            flowctl_.reservation_to_clean(0, local_object(path, block.index),
                                          block_footprint(block.size));
          }
          break;
        }
        case BlockState::kLost:
        case BlockState::kQuarantined:
          break;
      }
    }
  }
  for (const std::string& path : dropped_files) md_.files.erase(path);
}

void Master::crash() {
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  // Bumping the generation retires every worker coroutine (flushers,
  // evictor, detector, checkpointer, an in-flight restart) at its next
  // scheduling point; nothing from the dead process can touch state again.
  ++generation_;
  crashed_ = true;
  unbind_ports();
  // Queued flush work and the depth gauge die with the process.
  FlushItem dropped;
  while (flush_queue_.try_recv(dropped)) {
    sim.metrics().gauge("bb.flush_queue_depth").sub();
  }
  flush_queue_depth_ = 0;
  md_ = MdState{.chunk_size = params_.chunk_size};
  dirty_or_flushing_ = 0;
  flush_done_.notify_all();
  flowctl_.reset_accounting();
  flowctl_.force_urgent(false);
  degraded_ = false;
  sim.metrics().gauge("bb.master_up").set(0);
  sim.metrics().gauge("bb.degraded").set(0);
  sim.metrics().gauge("bb.degraded_since_ns").set(0);
  checkpoint_running_ = false;
  if (journal_ != nullptr) journal_->crash();
  if (scrubber_ != nullptr) {
    scrubber_->stop();
    scrubber_.reset();
  }
  sim.metrics().counter("bb.md.crashes").add();
  if (trace_ != nullptr) {
    trace_->record("md.crash", "md", static_cast<std::uint32_t>(node_),
                   sim.now(), sim.now());
  }
}

void Master::restart() {
  if (!crashed_) return;
  hub_->transport().fabric().simulation().spawn(restart_task());
}

sim::Task<void> Master::restart_task() {
  const std::uint64_t generation = generation_;
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  const sim::SimTime start = sim.now();
  std::uint64_t replayed = 0;
  if (journal_ != nullptr) {
    MetadataJournal::Recovered recovered = co_await journal_->load();
    if (generation != generation_) co_return;  // crashed again mid-recovery
    if (!recovered.checkpoint.empty()) {
      Result<MdCheckpoint> checkpoint = decode_checkpoint(recovered.checkpoint);
      if (checkpoint.is_ok()) {
        md_.install(std::move(checkpoint).value());
      } else {
        sim.metrics().counter("bb.md.recovery_errors").add();
      }
    }
    for (const MdRecord& record : recovered.tail) {
      if (!md_.apply(record).is_ok()) {
        // The seal handler never journals such a record: this one is
        // damaged, and its block stays open.
        sim.metrics().counter("bb.md.recovery_errors").add();
      }
    }
    replayed = recovered.tail.size();
    co_await reconcile(generation);
    if (generation != generation_) co_return;
    journal_->start();
  }
  ++restarts_;
  replayed_records_ += replayed;
  recovered_files_ += md_.files.size();
  sim.metrics().counter("bb.md.restarts").add();
  sim.metrics().counter("bb.md.replayed_records").add(replayed);
  sim.metrics().counter("bb.md.recovered_files")
      .add(static_cast<std::uint64_t>(md_.files.size()));
  // Fresh detector state: peers re-prove liveness from scratch.
  for (PeerHealth& health : peer_health_) health = PeerHealth{};
  if (probe_client_ != nullptr) {
    sim.metrics().gauge("bb.kv_live")
        .set(static_cast<std::uint64_t>(kv_servers_.size()));
    sim.metrics().gauge("bb.kv_suspect").set(0);
  }
  bind_ports();
  crashed_ = false;
  spawn_workers();
  make_scrubber();
  sim.metrics().gauge("bb.master_up").set(1);
  sim.metrics().histogram("bb.md.recovery_ns").record(sim.now() - start);
  if (trace_ != nullptr) {
    trace_->record("md.recovery", "md", static_cast<std::uint32_t>(node_),
                   start, sim.now());
  }
  recovered_cond_.notify_all();
}

sim::Task<void> Master::wait_recovered() {
  while (crashed_) co_await recovered_cond_.wait();
}

}  // namespace hpcbb::bb
