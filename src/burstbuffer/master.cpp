#include "burstbuffer/master.h"

#include <algorithm>
#include <cassert>

#include "common/metrics.h"
#include "sim/trace.h"

namespace hpcbb::bb {

namespace {
net::RpcResponse no_such_file(const std::string& path) {
  return net::rpc_error(error(StatusCode::kNotFound, "no such file: " + path));
}
}  // namespace

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

Master::Master(net::RpcHub& hub, net::NodeId node,
               std::vector<net::NodeId> kv_servers, net::NodeId lustre_mds,
               const CommonParams& common, const MasterParams& params)
    : hub_(&hub),
      node_(node),
      kv_servers_(std::move(kv_servers)),
      lustre_mds_(lustre_mds),
      common_(common),
      params_(params),
      lustre_(hub, lustre_mds),
      flowctl_(hub.transport().fabric().simulation(),
               scheme_policy(params.flowctl, common.scheme),
               static_cast<std::uint32_t>(node)),
      md_{.chunk_size = common.chunk_size},
      flush_(hub, kv_servers_, common,
             params.heartbeat_interval_ns > 0 ? params.heartbeat_interval_ns
                                              : duration::ms,
             lustre_, flowctl_, md_,
             [this](MdRecord record) {
               if (journal_ != nullptr) {
                 journal_->append_async(std::move(record));
               }
             },
             [this] {
               return monitor_.degraded() ||
                      (recovery_ != nullptr && recovery_->active_runs() > 0);
             },
             static_cast<std::uint32_t>(node)),
      monitor_(hub.transport().fabric().simulation(),
               static_cast<std::uint32_t>(kv_servers_.size()),
               params.suspect_after, params.dead_after,
               common.kv_client.replication_factor > 1,
               params.heartbeat_interval_ns > 0,
               static_cast<std::uint32_t>(node)),
      recovered_cond_(hub.transport().fabric().simulation()) {
  assert(!kv_servers_.empty());
  if (params_.heartbeat_interval_ns > 0) {
    probe_client_ = std::make_unique<kv::Client>(*hub_, node_, kv_servers_,
                                                 common_.kv_client);
  }
  if (common_.kv_client.replication_factor > 1) {
    recovery_ = std::make_unique<repl::RecoveryManager>(
        *hub_, node_, kv_servers_, common_.kv_client);
    recovery_->set_chunk_source([this] { return replicated_chunks(); });
    recovery_->set_liveness([this](std::uint32_t i) {
      return monitor_.state(i) == PeerState::kLive;
    });
    recovery_->set_recovering_check([this](std::uint32_t i) {
      return monitor_.state(i) == PeerState::kRecovering;
    });
    recovery_->set_recovery_done([this](std::uint32_t i) {
      if (monitor_.recovered(i)) flowctl_.force_urgent(monitor_.degraded());
    });
    recovery_->set_flow_control(&flowctl_);
  }
  sim::InScope in(sim(), incarnation_);
  if (params_.md.journal) {
    journal_ = std::make_unique<MetadataJournal>(
        *hub_, node_, kv_servers_, common_.kv_client, params_.md, md_);
    journal_->start();
  }
  bind_ports();
  spawn_workers();
  make_scrubber();
  // Liveness gauge for the SLO engine (slo.master_up_min): 1 while the
  // master serves, 0 between crash() and a completed restart.
  master_up_->set(1);
}

Master::~Master() { unbind_ports(); }

void Master::bind_ports() {
  bind(kBbCreate, &Master::handle_create);
  bind(kBbAddBlock, &Master::handle_add_block);
  bind(kBbCompleteBlock, &Master::handle_complete_block);
  bind(kBbClose, &Master::handle_close);
  bind(kBbLocations, &Master::handle_locations);
  bind(kBbDelete, &Master::handle_delete);
  bind(kBbList, &Master::handle_list);
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
  flush_.start();
  if (probe_client_ != nullptr && !heartbeat_stop_) {
    sim().spawn(heartbeat_worker());
  }
  if (journal_ != nullptr) journal_->start_checkpoints();
}

void Master::make_scrubber() {
  if (params_.scrub.interval_ns == 0 || heartbeat_stop_) return;
  scrubber_ = std::make_unique<integrity::Scrubber>(
      *hub_, node_, kv_servers_, lustre_mds_, common_.kv_client,
      params_.scrub, common_.lustre_prefix);
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

sim::Task<void> Master::heartbeat_worker() {
  for (;;) {
    co_await sim().delay(params_.heartbeat_interval_ns);
    if (heartbeat_stop_) co_return;
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(kv_servers_.size()); ++i) {
      auto pong = co_await probe_client_->ping(kv_servers_[i]);
      if (heartbeat_stop_) co_return;
      const auto moved = monitor_.apply_probe(
          i, pong.is_ok(), pong.is_ok() ? pong.value().incarnation : 0);
      // Death: restore the replication factor for everything it held.
      // Rejoin with recovery on: anti-entropy re-fills its key ranges.
      // Those runs repair the KV tier, so they outlive this incarnation.
      if (recovery_ == nullptr || !moved.has_value()) continue;
      sim::InScope unscoped(sim(), nullptr);
      if (*moved == PeerState::kDead) recovery_->on_server_dead(i);
      if (*moved == PeerState::kRecovering) recovery_->on_server_rejoined(i);
    }
    // Degraded: at-risk dirty blocks must reach Lustre before another
    // server fails, so flushers drop all pacing until the cluster is healthy.
    if (monitor_.update_mode()) flowctl_.force_urgent(monitor_.degraded());
  }
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
                                     block_id, common_.chunk_size, pinned});
      }
    }
  }
  return out;
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
  co_await journal_append(std::move(record));
  co_return net::RpcResponse{Status::ok(), nullptr, kHeaderBytes};
}

sim::Task<net::RpcResponse> Master::handle_add_block(
    std::shared_ptr<const BbAddBlockRequest> req) {
  co_await charge_md_op();
  const auto it = md_.files.find(req->path);
  if (it == md_.files.end()) co_return no_such_file(req->path);
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
    reply->write_through =
        monitor_.degraded() && common_.scheme != Scheme::kSync;
    co_return net::rpc_ok(std::move(reply));
  }
  // Credit-based admission: may evict clean blocks, may stall (but never
  // reject) under memory pressure. The stall is charged to the writer's op.
  (void)co_await flowctl_.admit(common_.block_size);
  // Re-find: the admission wait suspends, and the file may change meanwhile.
  const auto it2 = md_.files.find(req->path);
  if (it2 == md_.files.end()) {
    flowctl_.release_reservation(common_.block_size);
    co_return net::rpc_error(
        error(StatusCode::kNotFound, "file deleted while admitting block"));
  }
  auto reply = std::make_shared<BbAddBlockReply>();
  reply->block_index = static_cast<std::uint32_t>(it2->second.blocks.size());
  // Suspect/dead KV servers: have the writer establish durability on the
  // write path instead of trusting the buffer to survive until flush.
  reply->write_through =
      monitor_.degraded() && common_.scheme != Scheme::kSync;
  MdRecord record{.type = MdRecordType::kBlockAdd,
                  .path = req->path,
                  .block_index = reply->block_index,
                  .op_id = sim().current_op()};
  (void)md_.apply(record);
  it2->second.blocks.back().reservation_held = flowctl_.enabled();
  co_await journal_append(std::move(record));
  co_return net::rpc_ok(std::move(reply));
}

sim::Task<net::RpcResponse> Master::handle_complete_block(
    std::shared_ptr<const BbCompleteBlockRequest> req) {
  co_await charge_md_op();
  const auto it = md_.files.find(req->path);
  if (it == md_.files.end()) co_return no_such_file(req->path);
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
                  .op_id = sim().current_op()};
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
  flush_.add_sealed(req->path, block, req->already_durable);
  co_await journal_append(std::move(record));
  co_return net::RpcResponse{Status::ok(), nullptr, kHeaderBytes};
}

sim::Task<net::RpcResponse> Master::handle_close(
    std::shared_ptr<const BbCloseRequest> req) {
  co_await charge_md_op();
  if (!md_.files.contains(req->path)) co_return no_such_file(req->path);
  MdRecord record{.type = MdRecordType::kFileClose,
                  .path = req->path,
                  .size = req->size};
  (void)md_.apply(record);
  co_await journal_append(std::move(record));
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
  if (it == md_.files.end()) co_return no_such_file(req->path);
  // Opening for read marks the file's flushed blocks recently used, so the
  // eviction LRU prefers cold files.
  for (const BbBlockInfo& block : it->second.blocks) {
    if (block.state == BlockState::kFlushed) {
      flowctl_.touch_clean(local_object(req->path, block.index));
    }
  }
  auto reply = std::make_shared<BbLocationsReply>();
  reply->file_size = it->second.size;
  reply->block_size = common_.block_size;
  reply->closed = it->second.closed;
  reply->blocks = it->second.blocks;
  co_return net::rpc_ok(std::move(reply));
}

sim::Task<net::RpcResponse> Master::handle_delete(
    std::shared_ptr<const BbDeleteRequest> req) {
  co_await charge_md_op();
  const auto it = md_.files.find(req->path);
  if (it == md_.files.end()) co_return no_such_file(req->path);
  // Capture the blocks and delete first so queued flushes see the file as
  // gone; settle all the (synchronous) accounting before the first
  // suspension so the metadata map never holds a half-deleted file across a
  // scheduling point.
  std::vector<BbBlockInfo> blocks = std::move(it->second.blocks);
  MdRecord record{.type = MdRecordType::kFileDelete, .path = req->path};
  (void)md_.apply(record);
  flush_.forget(req->path, blocks);
  co_await journal_append(std::move(record));
  for (const BbBlockInfo& block : blocks) {
    co_await erase_chunks(flush_.client(), req->path, block.index,
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
  co_return net::rpc_ok(std::move(reply));
}

void Master::quarantine_block(const std::string& path,
                              std::uint32_t block_index) {
  BbBlockInfo* block = md_.block(path, block_index);
  if (block == nullptr || block->state != BlockState::kDirty) return;
  if (trace_ != nullptr) {
    trace_->record("quarantine." + local_object(path, block_index), "bb",
                   static_cast<std::uint32_t>(node_), sim().now(),
                   sim().now());
  }
  // The queued flush item finds the block no longer kDirty and skips it.
  flush_.finish_block(path, *block, BlockState::kQuarantined);
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
            static_cast<std::uint64_t>(c) * common_.chunk_size;
        integrity::ScrubChunk chunk;
        chunk.key = chunk_key(path, block.index, c);
        chunk.path = path;
        chunk.block_index = block.index;
        chunk.chunk_index = c;
        chunk.crc = block.chunk_crcs[c];
        chunk.logical_len = std::min(common_.chunk_size, block.size - c_start);
        chunk.padded_len = common_.chunk_size;
        chunk.lustre_offset =
            static_cast<std::uint64_t>(block.index) * common_.block_size +
            c_start;
        chunk.durable = durable;
        out.push_back(std::move(chunk));
      }
    }
  }
  return out;
}

// ---- metadata durability ----

sim::Task<void> Master::journal_append(MdRecord record) {
  if (journal_ != nullptr) co_await journal_->append(std::move(record));
}

sim::Task<void> Master::reconcile() {
  // Probe through a client homed on a live KV node.
  kv::Client& kv = flush_.reachable_client();
  std::vector<std::string> dropped_files;
  for (auto& [path, meta] : md_.files) {
    // The Lustre MDS survives the master crash: re-resolve each file's
    // backing layout (journal records deliberately don't carry it).
    Result<lustre::FileLayout> layout =
        co_await lustre_.lookup(node_, lustre_path(path));
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
      co_await erase_chunks(kv, path, index, chunk_count(common_.block_size));
    }
    for (BbBlockInfo& block : meta.blocks) {
      block.reservation_held = false;  // admission credits died in the crash
      if (block.state == BlockState::kDirty ||
          block.state == BlockState::kFlushing) {
        // Journaled but not yet durable on Lustre: back into the flush
        // pipeline. Chunks missing from the buffer (journaled-but-lost)
        // route through the flusher's requeue/loss path.
        block.state = BlockState::kDirty;
        flush_.add_sealed(path, block, /*already_durable=*/false);
      } else if (block.state == BlockState::kFlushed && block.size > 0) {
        // Durable on Lustre. Still buffer-resident? A no-op unpin probe on
        // the first chunk answers without moving data: present -> rejoin
        // the clean LRU (evictable, RDMA-readable); absent -> already
        // evicted, reads fall back to Lustre.
        Status resident =
            co_await kv.pin(chunk_key(path, block.index, 0), false);
        if (resident.is_ok()) {
          flush_.add_sealed(path, block, /*already_durable=*/true);
        }
      }
    }
  }
  for (const std::string& path : dropped_files) md_.files.erase(path);
}

void Master::crash() {
  // Every task of the dead process (workers, an in-flight restart, the RPC
  // handlers) unwinds at its next wakeup; nothing of it runs another step.
  incarnation_->cancel();
  incarnation_ = &sim().open_scope();
  crashed_ = true;
  unbind_ports();
  // Every volatile component dies with the process.
  md_ = MdState{.chunk_size = common_.chunk_size};
  flush_.reset();
  flowctl_.reset_accounting();
  monitor_.leave_degraded();
  master_up_->set(0);
  if (journal_ != nullptr) journal_->crash();
  scrubber_.reset();
  crashes_->add();
  if (trace_ != nullptr) {
    trace_->record("md.crash", "md", static_cast<std::uint32_t>(node_),
                   sim().now(), sim().now());
  }
}

void Master::restart() {
  if (!crashed_) return;
  sim::InScope in(sim(), incarnation_);
  sim().spawn(restart_task());
}

sim::Task<void> Master::restart_task() {
  sim::Simulation& sim = this->sim();
  const sim::SimTime start = sim.now();
  std::uint64_t replayed = 0;
  if (journal_ != nullptr) {
    replayed = co_await journal_->recover(md_);
    co_await reconcile();
    journal_->start();
  }
  ++restarts_;
  replayed_records_ += replayed;
  recovered_files_ += md_.files.size();
  restart_count_->add();
  replayed_->add(replayed);
  recovered_->add(static_cast<std::uint64_t>(md_.files.size()));
  monitor_.reset();
  bind_ports();
  crashed_ = false;
  spawn_workers();
  make_scrubber();
  master_up_->set(1);
  recovery_ns_->record(sim.now() - start);
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
