#include "burstbuffer/flush.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "common/metrics.h"
#include "sim/trace.h"

namespace hpcbb::bb {

namespace {
// Longest wait between flush retries while Lustre is unreachable: bounds
// how late a flush resumes after Lustre returns.
constexpr sim::SimTime kMaxFlushRetryBackoff = 500 * duration::ms;
}  // namespace

sim::Task<void> erase_chunks(kv::Client& kv, std::string path,
                             std::uint32_t block_index, std::uint32_t chunks) {
  for (std::uint32_t c = 0; c < chunks; ++c) {
    (void)co_await kv.erase(chunk_key(path, block_index, c));
  }
}

FlushPipeline::FlushPipeline(net::RpcHub& hub,
                             const std::vector<net::NodeId>& kv_servers,
                             const CommonParams& common,
                             sim::SimTime retry_base_ns,
                             lustre::LustreClient& lustre,
                             flowctl::CapacityController& flowctl,
                             MdState& md,
                             std::function<void(MdRecord)> journal,
                             std::function<bool()> outage,
                             std::uint32_t trace_track)
    : hub_(&hub),
      kv_servers_(kv_servers),
      common_(common),
      retry_base_ns_(retry_base_ns),
      lustre_(&lustre),
      flowctl_(&flowctl),
      md_(&md),
      journal_(std::move(journal)),
      outage_(std::move(outage)),
      trace_track_(trace_track),
      queue_(hub.transport().fabric().simulation()),
      flush_done_(hub.transport().fabric().simulation()) {
  for (std::uint32_t w = 0; w < kFlusherCount; ++w) {
    clients_.push_back(std::make_unique<kv::Client>(
        hub, kv_servers_[w % kv_servers_.size()], kv_servers_,
        common_.kv_client));
  }
}

void FlushPipeline::start() {
  for (std::uint32_t w = 0; w < kFlusherCount; ++w) {
    sim().spawn(flush_worker(w));
  }
  sim().spawn(evict_worker());
}

void FlushPipeline::reset() {
  FlushItem dropped;
  while (queue_.try_recv(dropped)) queue_depth_->sub();
  dirty_ = 0;
  flush_done_.notify_all();
}

kv::Client& FlushPipeline::reachable_client() noexcept {
  // After a correlated master+server crash the first client's node may
  // still be down, and every request from it would fail at the source.
  for (const auto& client : clients_) {
    if (hub_->transport().fabric().is_up(client->self())) return *client;
  }
  return client();
}

void FlushPipeline::enqueue(FlushItem item) {
  item.enqueued_ns = sim().now();
  queue_depth_->add();
  queue_.push(std::move(item));
}

void FlushPipeline::add_sealed(const std::string& path, BbBlockInfo& block,
                               bool already_durable) {
  const std::uint64_t reserved =
      block.reservation_held ? common_.block_size : 0;
  block.reservation_held = false;
  if (already_durable) {
    flowctl_->reservation_to_clean(reserved, local_object(path, block.index),
                                   footprint(block.size));
    return;
  }
  flowctl_->reservation_to_dirty(reserved, footprint(block.size));
  ++dirty_;
  enqueue(FlushItem{path, block.index, block.op_id});
}

void FlushPipeline::forget(const std::string& path,
                           std::vector<BbBlockInfo>& blocks) {
  for (BbBlockInfo& block : blocks) {
    switch (block.state) {
      case BlockState::kDirty:
      case BlockState::kFlushing:
        // Its queued flush item will find the file gone and skip.
        flowctl_->drop_dirty(footprint(block.size));
        block_left();
        break;
      case BlockState::kFlushed:
        flowctl_->forget_clean(local_object(path, block.index));
        break;
      case BlockState::kOpen:
      case BlockState::kLost:
      case BlockState::kQuarantined:  // accounting settled when quarantined
        release_reservation(block);   // e.g. added but never sealed
        break;
    }
  }
}

void FlushPipeline::release_reservation(BbBlockInfo& block) {
  if (!block.reservation_held) return;
  block.reservation_held = false;
  flowctl_->release_reservation(common_.block_size);
}

void FlushPipeline::block_left() {
  assert(dirty_ > 0);
  if (--dirty_ == 0) flush_done_.notify_all();
}

void FlushPipeline::finish_block(const std::string& path, BbBlockInfo& block,
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
  (void)md_->apply(record);
  if (state == BlockState::kFlushed) {
    // Durable and still buffer-resident: the block becomes clean, evictable
    // cache data.
    flowctl_->dirty_to_clean(local_object(path, block.index),
                             footprint(block.size));
  } else {
    // Lost, or corrupt on every copy before it could be flushed: the dirty
    // bytes leave the buffer accounting, and the flusher never writes them.
    flowctl_->drop_dirty(footprint(block.size));
    if (state == BlockState::kQuarantined) {
      quarantined_->add();
    }
  }
  // Flush outcomes have no client waiting for an ack, so they journal
  // asynchronously: the worst a crash costs is a re-flush of an
  // already-durable block (idempotent — Lustre writes are absolute-offset).
  journal_(std::move(record));
  block_left();
}

sim::Task<void> FlushPipeline::wait_all_flushed() {
  while (dirty_ > 0) co_await flush_done_.wait();
}

sim::Task<void> FlushPipeline::flush_worker(std::uint32_t worker_index) {
  sim::Simulation& sim = this->sim();
  for (;;) {
    FlushItem item = co_await queue_.recv();
    // A flusher whose home node is down can reach nothing — every RPC
    // fails at the source, and because a pushed-back item is popped
    // synchronously by the pusher's own next recv, this worker would
    // starve the live ones and burn the block's retry budget (or wedge a
    // degraded cluster) on failures that say nothing about the data. Park:
    // delay first so a live-node worker wins the item, and only fall
    // through when no other KV node is up — then the read failure itself
    // must run the loss accounting (seed semantics for a full-tier crash).
    const net::Fabric& fabric = hub_->transport().fabric();
    const net::NodeId home = clients_[worker_index]->self();
    if (!fabric.is_up(home) &&
        std::any_of(kv_servers_.begin(), kv_servers_.end(),
                    [&](net::NodeId peer) {
                      return peer != home && fabric.is_up(peer);
                    })) {
      queue_.push(std::move(item));
      co_await sim.delay(duration::ms);
      continue;
    }
    queue_depth_->sub();
    // Watermark-driven escalation: drain gently in the background while
    // pressure is low, flat out once dirty bytes cross the high watermark.
    // A crash during the pacing delay drops the item: recovery re-enqueues
    // the block from its journaled seal record.
    if (const sim::SimTime pace = flowctl_->flush_pace(); pace > 0) {
      co_await sim.delay(pace);
    }
    if (trace_ != nullptr) {
      // Queue dwell plus pacing delay: time the sealed block waited before a
      // flusher started serving it. Attribution counts it as queueing.
      trace_->record("wait.flush_queue", "bb", worker_index, item.enqueued_ns,
                     sim.now(), item.op_id);
    }
    sim::ScopedSpan span(trace_, "flush.block_",
                         std::to_string(item.block_index), "bb", worker_index,
                         item.op_id);
    const sim::SimTime start = sim.now();
    co_await flush_block(worker_index, item);
    flush_ns_->record(sim.now() - start);
  }
}

// Erases the chunks of blocks the flow controller evicted (clean blocks:
// flushed to Lustre, so this only reclaims buffer memory, never loses data).
sim::Task<void> FlushPipeline::evict_worker() {
  for (;;) {
    flowctl::CleanBlock victim = co_await flowctl_->evictions().recv();
    sim::ScopedSpan span(trace_, "flowctl.evict.", victim.id, "flowctl",
                         trace_track_);
    // id is "<path>#<block_index>"; the footprint is chunk-padded, so the
    // chunk count falls out of the byte count.
    const std::size_t sep = victim.id.rfind('#');
    if (sep != std::string::npos) {
      co_await erase_chunks(
          client(), victim.id.substr(0, sep),
          static_cast<std::uint32_t>(
              std::strtoul(victim.id.c_str() + sep + 1, nullptr, 10)),
          static_cast<std::uint32_t>(victim.bytes / common_.chunk_size));
    }
  }
}

sim::Task<void> FlushPipeline::requeue(BbBlockInfo& block, FlushItem next,
                                       sim::SimTime delay) {
  block.state = BlockState::kDirty;
  co_await sim().delay(delay);
  if (md_->block(next.path, next.block_index) == nullptr) co_return;
  enqueue(std::move(next));
}

sim::Task<void> FlushPipeline::flush_block(std::uint32_t worker_index,
                                           const FlushItem& item) {
  // The flush is part of the writing op: adopt the block's stored op.
  sim::OpScope op(sim(), item.op_id);
  // Block pointers do not survive a co_await (writers add blocks, and files
  // can be deleted while a flush is in flight): look the block up again
  // after each one.
  BbBlockInfo* block = md_->block(item.path, item.block_index);
  if (block == nullptr || block->state != BlockState::kDirty) co_return;
  flowctl_->note_flush_begin();
  MdRecord record{.type = MdRecordType::kFlushStart,
                  .path = item.path,
                  .block_index = item.block_index,
                  .op_id = item.op_id};
  (void)md_->apply(record);
  journal_(std::move(record));
  const std::uint64_t block_size = block->size;
  const std::uint32_t block_index = block->index;
  const auto local_node = block->local_node;

  kv::Client& kv = *clients_[worker_index];
  const net::NodeId self = kv.self();
  const std::uint64_t chunk_size = common_.chunk_size;
  const std::uint32_t chunks = chunk_count(block_size, chunk_size);

  // Pull the block out of the burst buffer as its chunks, each trimmed to
  // its logical bytes (stored chunks are padded to uniform size), keeping
  // each reply: the stored slice, untrimmed, and the item CRC the KV server
  // verified it against...
  std::vector<ByteSlice> pieces;
  std::vector<std::shared_ptr<const kv::GetReply>> replies;
  pieces.reserve(chunks);
  replies.reserve(chunks);
  std::uint64_t fetched = 0;
  bool buffer_ok = true;
  bool corrupt = false;
  for (std::uint32_t c = 0; c < chunks && buffer_ok; ++c) {
    auto piece =
        co_await kv.get_verified(chunk_key(item.path, block_index, c));
    if (!piece.is_ok()) {
      buffer_ok = false;
      // The verified-read client only reports kDataLoss once EVERY replica
      // failed its checksum — this chunk will not heal with a retry.
      corrupt = piece.code() == StatusCode::kDataLoss;
      break;
    }
    const std::uint64_t logical = std::min<std::uint64_t>(
        chunk_size, block_size - std::uint64_t{c} * chunk_size);
    const ByteSlice& value = piece.value()->value;
    const std::uint64_t take = std::min<std::uint64_t>(value.length, logical);
    pieces.push_back(ByteSlice{value.bytes, value.offset, take});
    replies.push_back(std::move(piece).value());
    fetched += take;
  }

  // ...or recover from the node-local replica (BB-Local's second copy).
  if ((!buffer_ok || fetched != block_size) && local_node.has_value()) {
    auto req = std::make_shared<const AgentReadRequest>(AgentReadRequest{
        local_object(item.path, block_index), 0, block_size});
    auto result = co_await hub_->call<AgentReadReply>(self, *local_node,
                                                      kAgentRead, req);
    if (result.is_ok()) {
      pieces = result.value()->data;
      replies.clear();
      fetched = total_length(pieces);
      buffer_ok = true;
      ++md_->recovered_blocks;
    }
  }

  block = md_->block(item.path, item.block_index);
  if (block == nullptr) co_return;  // deleted meanwhile

  // Whatever source produced the block — buffer chunks or the node-local
  // replica — it must match the writer-registered CRCs before it may touch
  // Lustre. Never persist corrupt bytes. Each chunk is checked where it
  // lies; none is copied. A buffered chunk is checked by its item CRC (its
  // own stored slice, never the rest of the writer's buffer it lies in),
  // the node-local replica (its page slices) by hashing.
  if (buffer_ok && fetched == block_size) {
    Status st;
    if (replies.empty()) {
      st = verify_chunks(*block, chunk_size, 0, pieces);
    }
    for (std::uint32_t i = 0; i < replies.size() && st.is_ok(); ++i) {
      st = verify_buffered_chunk(*block, chunk_size, i, replies[i]->value,
                                 replies[i]->value_crc);
    }
    if (!st.is_ok()) {
      buffer_ok = false;
      corrupt = true;
    }
  }
  if (!buffer_ok || fetched != block_size) {
    if (corrupt) {
      // Corruption does not heal with a requeue: every copy failed its
      // checksum. Quarantine the block so the flusher never writes the
      // corrupt bytes, and surface the loss instead of hiding it.
      finish_block(item.path, *block, BlockState::kQuarantined);
      co_return;
    }
    // With replication armed, a failed buffer read is not yet loss while
    // the cluster is visibly unhealthy (or within a short grace window the
    // detector has not caught up to): primary-ack replica writes and
    // re-replication may still be in flight. Requeue one retry base later;
    // the read only fails conclusively once the cluster is healthy again.
    if (common_.kv_client.replication_factor > 1 &&
        (outage_() || item.attempts < 4)) {
      // Built in its own statement: GCC 12 frees a braced temporary in a
      // co_await argument list twice.
      FlushItem retry{item.path, item.block_index, item.op_id,
                      item.attempts + 1};
      co_await requeue(*block, std::move(retry), retry_base_ns_);
      co_return;
    }
    // Acknowledged-but-unflushed data is gone: this is exactly the
    // durability window the BB-Async scheme trades for speed.
    finish_block(item.path, *block, BlockState::kLost);
    co_return;
  }

  const auto layout = md_->files.find(item.path)->second.lustre_layout;
  const Status st = co_await lustre_->write(
      self, layout, std::uint64_t{block_index} * common_.block_size,
      std::move(pieces));
  block = md_->block(item.path, item.block_index);
  if (block == nullptr) co_return;
  if (!st.is_ok()) {
    // Lustre hiccup: requeue and retry later rather than dropping data.
    // Each retry re-reads the whole block from the KV tier, so back off
    // exponentially (from the retry base, capped) instead of hammering the
    // buffer for as long as Lustre stays down.
    retries_->add();
    FlushItem retry = item;
    ++retry.lustre_retries;
    co_await requeue(
        *block, std::move(retry),
        std::min(retry_base_ns_ << std::min<std::uint32_t>(
                     item.lustre_retries, 16),
                 kMaxFlushRetryBackoff));
    co_return;
  }
  (void)co_await lustre_->set_size(
      self, common_.lustre_prefix + item.path,
      std::uint64_t{block_index} * common_.block_size + block_size);

  // Durable: unpin chunks so the cache may evict them under pressure.
  for (std::uint32_t c = 0; c < chunks; ++c) {
    (void)co_await kv.pin(chunk_key(item.path, block_index, c), false);
  }
  block = md_->block(item.path, item.block_index);
  if (block == nullptr) co_return;
  finish_block(item.path, *block, BlockState::kFlushed);
}

}  // namespace hpcbb::bb
