#include "burstbuffer/mdlog.h"

#include <algorithm>

#include "common/metrics.h"
#include "kvstore/store.h"

namespace hpcbb::bb {

namespace {

// Checkpoint parts stay well under the KV max value size at any sane slab
// configuration.
constexpr std::uint64_t kCheckpointPartBytes = 64 * KiB;
constexpr std::uint32_t kCheckpointMagic = 0x4D444350;  // "MDCP"

// ---- compact little-endian codec -------------------------------------------

void put_le(Bytes& out, std::uint64_t v, std::size_t n) {
  out.resize(out.size() + n);
  store_le(out.data() + out.size() - n, v, n);
}
void put_u8(Bytes& out, std::uint8_t v) { put_le(out, v, 1); }
void put_u32(Bytes& out, std::uint32_t v) { put_le(out, v, 4); }
void put_u64(Bytes& out, std::uint64_t v) { put_le(out, v, 8); }

void put_string(Bytes& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

void put_u32vec(Bytes& out, const std::vector<std::uint32_t>& v) {
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  for (const std::uint32_t x : v) put_u32(out, x);
}

// Bounds-checked reader; any overrun latches !ok and zero-fills.
struct Cursor {
  const Bytes* bytes;
  std::size_t pos = 0;
  bool ok = true;

  std::uint64_t get_le(std::size_t n) {
    if (pos + n > bytes->size()) {
      ok = false;
      return 0;
    }
    pos += n;
    return load_le(bytes->data() + pos - n, n);
  }
  std::uint8_t get_u8() { return static_cast<std::uint8_t>(get_le(1)); }
  std::uint32_t get_u32() { return static_cast<std::uint32_t>(get_le(4)); }
  std::uint64_t get_u64() { return get_le(8); }
  std::string get_string() {
    const std::uint32_t len = get_u32();
    if (!ok || pos + len > bytes->size()) {
      ok = false;
      return {};
    }
    std::string s(bytes->begin() + static_cast<std::ptrdiff_t>(pos),
                  bytes->begin() + static_cast<std::ptrdiff_t>(pos + len));
    pos += len;
    return s;
  }
  std::vector<std::uint32_t> get_u32vec() {
    const std::uint32_t count = get_u32();
    if (!ok || pos + static_cast<std::uint64_t>(count) * 4 > bytes->size()) {
      ok = false;
      return {};
    }
    std::vector<std::uint32_t> v;
    v.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) v.push_back(get_u32());
    return v;
  }
};

}  // namespace

Bytes encode_record(const MdRecord& record) {
  Bytes out;
  put_u8(out, static_cast<std::uint8_t>(record.type));
  put_string(out, record.path);
  put_u32(out, record.block_index);
  put_u64(out, record.size);
  put_u64(out, record.token);
  const std::uint8_t flags =
      static_cast<std::uint8_t>(record.already_durable ? 1 : 0) |
      static_cast<std::uint8_t>(record.has_local_node ? 2 : 0);
  put_u8(out, flags);
  put_u32(out, record.local_node);
  put_u64(out, record.op_id);
  put_u32vec(out, record.chunk_crcs);
  put_u32vec(out, record.replicas);
  return out;
}

Result<MdRecord> decode_record(const Bytes& bytes) {
  Cursor cur{&bytes};
  MdRecord record;
  record.type = static_cast<MdRecordType>(cur.get_u8());
  record.path = cur.get_string();
  record.block_index = cur.get_u32();
  record.size = cur.get_u64();
  record.token = cur.get_u64();
  const std::uint8_t flags = cur.get_u8();
  record.already_durable = (flags & 1) != 0;
  record.has_local_node = (flags & 2) != 0;
  record.local_node = cur.get_u32();
  record.op_id = cur.get_u64();
  record.chunk_crcs = cur.get_u32vec();
  record.replicas = cur.get_u32vec();
  if (!cur.ok || cur.pos != bytes.size()) {
    return error(StatusCode::kDataLoss, "malformed metadata journal record");
  }
  return record;
}

Bytes encode_checkpoint(const MdState& state) {
  Bytes out;
  put_u32(out, kCheckpointMagic);
  put_u64(out, state.flushed_blocks);
  put_u64(out, state.flushed_bytes);
  put_u64(out, state.lost_blocks);
  put_u64(out, state.recovered_blocks);
  put_u64(out, state.quarantined_blocks);
  put_u64(out, state.files.size());
  for (const auto& [path, file] : state.files) {
    put_string(out, path);
    put_u64(out, file.create_token);
    put_u64(out, file.size);
    put_u8(out, file.closed ? 1 : 0);
    put_u64(out, file.blocks.size());
    for (const BbBlockInfo& block : file.blocks) {
      put_u32(out, block.index);
      put_u64(out, block.size);
      put_u8(out, static_cast<std::uint8_t>(block.state));
      put_u8(out, block.local_node.has_value() ? 1 : 0);
      put_u32(out, block.local_node.value_or(0));
      put_u64(out, block.op_id);
      put_u32vec(out, block.chunk_crcs);
      put_u32vec(out, block.replicas);
    }
  }
  return out;
}

Status decode_checkpoint(const Bytes& bytes, MdState& state) {
  Cursor cur{&bytes};
  if (cur.get_u32() != kCheckpointMagic) {
    return error(StatusCode::kDataLoss, "bad metadata checkpoint magic");
  }
  MdState decoded{.chunk_size = state.chunk_size};
  decoded.flushed_blocks = cur.get_u64();
  decoded.flushed_bytes = cur.get_u64();
  decoded.lost_blocks = cur.get_u64();
  decoded.recovered_blocks = cur.get_u64();
  decoded.quarantined_blocks = cur.get_u64();
  const std::uint64_t file_count = cur.get_u64();
  for (std::uint64_t f = 0; cur.ok && f < file_count; ++f) {
    MdFile& file = decoded.files[cur.get_string()];
    file.create_token = cur.get_u64();
    file.size = cur.get_u64();
    file.closed = cur.get_u8() != 0;
    const std::uint64_t block_count = cur.get_u64();
    for (std::uint64_t b = 0; cur.ok && b < block_count; ++b) {
      BbBlockInfo& block = file.blocks.emplace_back();
      block.index = cur.get_u32();
      block.size = cur.get_u64();
      block.state = static_cast<BlockState>(cur.get_u8());
      const bool has_local_node = cur.get_u8() != 0;
      const net::NodeId local_node = cur.get_u32();
      if (has_local_node) block.local_node = local_node;
      block.op_id = cur.get_u64();
      block.chunk_crcs = cur.get_u32vec();
      block.replicas = cur.get_u32vec();
    }
  }
  if (!cur.ok || cur.pos != bytes.size()) {
    return error(StatusCode::kDataLoss, "malformed metadata checkpoint");
  }
  state = std::move(decoded);
  return Status::ok();
}

// ---- MdState ---------------------------------------------------------------

Status MdState::apply(const MdRecord& record) {
  switch (record.type) {
    case MdRecordType::kFileCreate:
      files[record.path] = MdFile{.create_token = record.token};
      break;
    case MdRecordType::kBlockAdd: {
      const auto it = files.find(record.path);
      // Files are single-writer, so a new block always extends the vector.
      if (it == files.end() ||
          record.block_index != it->second.blocks.size()) {
        break;
      }
      it->second.blocks.emplace_back().index = record.block_index;
      break;
    }
    case MdRecordType::kBlockSeal: {
      BbBlockInfo* b = block(record.path, record.block_index);
      if (b == nullptr || b->state != BlockState::kOpen) break;
      if (!one_crc_per_chunk(record.size, chunk_size, record.chunk_crcs)) {
        // Per-chunk CRCs are a block's only integrity provenance: leave the
        // block open rather than accept unverifiable data.
        return error(StatusCode::kInvalidArgument,
                     "seal must carry one CRC per chunk");
      }
      b->size = record.size;
      b->chunk_crcs = record.chunk_crcs;
      if (record.has_local_node) {
        b->local_node = static_cast<net::NodeId>(record.local_node);
      }
      b->op_id = record.op_id;
      b->replicas = record.replicas;
      if (record.already_durable) {
        // BB-Sync: durable at ack; the buffer copy is immediately clean.
        b->state = BlockState::kFlushed;
        ++flushed_blocks;
        flushed_bytes += record.size;
      } else {
        b->state = BlockState::kDirty;
      }
      break;
    }
    case MdRecordType::kFlushStart: {
      BbBlockInfo* b = block(record.path, record.block_index);
      if (b != nullptr && b->state == BlockState::kDirty) {
        b->state = BlockState::kFlushing;
      }
      break;
    }
    case MdRecordType::kFlushComplete:
    case MdRecordType::kBlockLost:
    case MdRecordType::kQuarantine: {
      BbBlockInfo* b = block(record.path, record.block_index);
      if (b == nullptr || (b->state != BlockState::kDirty &&
                           b->state != BlockState::kFlushing)) {
        break;
      }
      if (record.type == MdRecordType::kFlushComplete) {
        b->state = BlockState::kFlushed;
        ++flushed_blocks;
        flushed_bytes += b->size;
      } else if (record.type == MdRecordType::kBlockLost) {
        b->state = BlockState::kLost;
        ++lost_blocks;
      } else {
        b->state = BlockState::kQuarantined;
        ++quarantined_blocks;
      }
      break;
    }
    case MdRecordType::kFileClose: {
      const auto it = files.find(record.path);
      if (it == files.end()) break;
      it->second.closed = true;
      it->second.size = record.size;
      break;
    }
    case MdRecordType::kFileDelete:
      files.erase(record.path);
      break;
  }
  return Status::ok();
}

BbBlockInfo* MdState::block(const std::string& path, std::uint32_t index) {
  const auto it = files.find(path);
  if (it == files.end() || index >= it->second.blocks.size()) return nullptr;
  return &it->second.blocks[index];
}

// ---- MetadataJournal -------------------------------------------------------

namespace {
kv::ClientParams journal_client_params(kv::ClientParams params) {
  // Never acknowledge primary-only: an append is durable on every replica
  // at ack time. Failover keeps the control plane writable through a KV
  // server outage (the degraded windows are exactly when journaling
  // matters most).
  params.ack = kv::AckMode::kAll;
  params.failover = true;
  return params;
}
}  // namespace

MetadataJournal::MetadataJournal(net::RpcHub& hub, net::NodeId node,
                                 std::vector<net::NodeId> kv_servers,
                                 kv::ClientParams kv_params,
                                 const MdParams& params, const MdState& state)
    : node_(node),
      params_(params),
      state_(&state),
      kv_(std::make_unique<kv::Client>(hub, node, std::move(kv_servers),
                                       journal_client_params(kv_params))),
      sim_(&hub.transport().fabric().simulation()),
      queue_(*sim_),
      durable_(*sim_) {}

std::string MetadataJournal::journal_key(std::uint64_t seq) {
  return std::string(kv::kReservedMetaPrefix) + "bb:j:" + std::to_string(seq);
}

std::string MetadataJournal::ckpt_key(std::uint32_t slot, std::uint32_t part) {
  return std::string(kv::kReservedMetaPrefix) + "bb:ckpt:" +
         std::to_string(slot) + ":" + std::to_string(part);
}

std::string MetadataJournal::ctl_key() {
  return std::string(kv::kReservedMetaPrefix) + "bb:ctl";
}

void MetadataJournal::start() {
  scope_ = sim_->current_scope();
  sim_->spawn(writer_loop());
}

void MetadataJournal::start_checkpoints() {
  if (params_.checkpoint_interval_ns > 0 && !stopped_) {
    sim_->spawn(checkpoint_worker());
  }
}

sim::Task<void> MetadataJournal::writer_loop() {
  for (;;) {
    Pending pending = co_await queue_.recv();
    const sim::SimTime start = sim_->now();
    const std::uint64_t record_bytes = pending.bytes.size();
    const BytesPtr payload = make_bytes(std::move(pending.bytes));
    for (;;) {
      Status st = co_await kv_->set(journal_key(pending.seq), payload,
                                    /*pinned=*/true);
      if (st.is_ok()) break;
      // An allocated record is never dropped while the master lives: a KV
      // hiccup retries, and the blocked appenders hold their acks — no ack
      // without durability.
      retries_->add();
      co_await sim_->delay(duration::ms);
    }
    durable_next_ = pending.seq + 1;
    bytes_since_checkpoint_ += record_bytes;
    if (pending.seq >= horizon_seq_) bytes_past_horizon_ += record_bytes;
    records_->add();
    bytes_->add(record_bytes);
    append_ns_->record(sim_->now() - start);
    // No trace span here: append() records the op-attributed "md.append"
    // span covering queue wait + durability, and two overlapping spans
    // would double-charge the md layer.
    durable_.notify_all();
    maybe_checkpoint();
  }
}

sim::Task<void> MetadataJournal::append(MdRecord record) {
  {
    sim::ScopedSpan span(trace_, "md.append", "", "md",
                         static_cast<std::uint32_t>(node_), record.op_id);
    const std::uint64_t seq = next_seq_++;
    queue_.push(Pending{seq, encode_record(record)});
    while (durable_next_ <= seq) co_await durable_.wait();
  }
}

void MetadataJournal::append_async(MdRecord record) {
  const std::uint64_t seq = next_seq_++;
  queue_.push(Pending{seq, encode_record(record)});
}

void MetadataJournal::crash() {
  Pending dropped;
  while (queue_.try_recv(dropped)) {}
  // Blocked appenders unwind at the crash instant, so their handlers answer
  // kUnavailable and never acknowledge the lost mutations.
  durable_.notify_all();
  checkpoint_running_ = false;
  // Only a running writer adds bytes, so none trigger a checkpoint before
  // the restarted master's start().
  bytes_since_checkpoint_ = 0;
}

void MetadataJournal::maybe_checkpoint() {
  if (checkpoint_running_ || stopped_ || params_.journal_max_bytes == 0 ||
      bytes_since_checkpoint_ < params_.journal_max_bytes) {
    return;
  }
  // Background work of the incarnation, not part of the op whose record
  // filled the journal.
  sim::InScope in(*sim_, scope_);
  sim::OpScope none(*sim_, 0);
  sim_->spawn(run_checkpoint());
}

sim::Task<void> MetadataJournal::checkpoint_worker() {
  for (;;) {
    co_await sim_->delay(params_.checkpoint_interval_ns);
    if (stopped_) co_return;
    if (bytes_since_checkpoint_ == 0) continue;  // nothing new
    co_await run_checkpoint();
  }
}

sim::Task<void> MetadataJournal::run_checkpoint() {
  if (checkpoint_running_) co_return;
  checkpoint_running_ = true;  // a crash mid-checkpoint resets it
  const sim::SimTime start = sim_->now();
  {
    sim::ScopedSpan span(trace_, "md.checkpoint", "", "md",
                         static_cast<std::uint32_t>(node_));
    // Snapshot and watermark in one synchronous segment: the snapshot then
    // reflects exactly the mutations journaled as records [0, upto).
    const std::uint64_t upto = next_seq_;
    horizon_seq_ = upto;
    bytes_past_horizon_ = 0;
    co_await write_checkpoint(encode_checkpoint(*state_), upto);
  }
  checkpoint_running_ = false;
  checkpoint_ns_->record(sim_->now() - start);
  // The records that landed meanwhile may already fill the journal.
  maybe_checkpoint();
}

sim::Task<std::uint64_t> MetadataJournal::recover(MdState& state) {
  Bytes checkpoint;  // stays empty when no checkpoint was ever written
  std::uint64_t replay_from = 0;
  // Control record: absent (kNotFound) simply means no checkpoint was ever
  // written — replay the whole journal. Transient failures retry briefly.
  for (int attempt = 0;; ++attempt) {
    Result<BytesPtr> ctl = co_await kv_->get(ctl_key());
    if (ctl.is_ok()) {
      Cursor cur{ctl.value().get()};
      const std::uint32_t slot = cur.get_u32();
      const std::uint32_t parts = cur.get_u32();
      const std::uint64_t from = cur.get_u64();
      if (!cur.ok) break;  // malformed control record: full replay
      replay_from = from;
      Bytes pieces;
      bool complete = true;
      for (std::uint32_t part = 0; part < parts && complete; ++part) {
        Result<BytesPtr> piece = co_await kv_->get(ckpt_key(slot, part));
        if (!piece.is_ok()) {
          complete = false;
          break;
        }
        pieces.insert(pieces.end(), piece.value()->begin(),
                      piece.value()->end());
      }
      if (complete) {
        checkpoint = std::move(pieces);
        checkpoint_slot_ = slot;
      } else {
        // A checkpoint part vanished (should be impossible under the
        // pinned reserved range): fall back to whatever journal tail
        // remains rather than wedging recovery.
        errors_->add();
      }
      break;
    }
    if (ctl.code() == StatusCode::kNotFound || attempt >= 4) break;
    co_await sim_->delay(duration::ms);
  }

  // Journal tail: the writer serializes appends in seq order, so the first
  // missing key is the end of the durable, hole-free prefix.
  std::vector<MdRecord> tail;
  std::uint64_t tail_bytes = 0;
  for (std::uint64_t seq = replay_from;; ++seq) {
    Result<BytesPtr> raw = co_await kv_->get(journal_key(seq));
    if (!raw.is_ok()) {
      if (raw.code() != StatusCode::kNotFound) errors_->add();
      break;
    }
    Result<MdRecord> record = decode_record(*raw.value());
    if (!record.is_ok()) {
      errors_->add();
      break;
    }
    tail.push_back(std::move(record).value());
    tail_bytes += raw.value()->size();
  }

  if (!checkpoint.empty() && !decode_checkpoint(checkpoint, state).is_ok()) {
    errors_->add();
  }
  for (const MdRecord& record : tail) {
    // The seal handler never journals a record apply() refuses: this one
    // is damaged, and its block stays open.
    if (!state.apply(record).is_ok()) errors_->add();
  }
  next_seq_ = replay_from + tail.size();
  durable_next_ = next_seq_;
  oldest_seq_ = replay_from;
  bytes_since_checkpoint_ = tail_bytes;
  co_return tail.size();
}

sim::Task<void> MetadataJournal::write_checkpoint(Bytes snapshot,
                                                  std::uint64_t upto_seq) {
  const std::uint64_t snapshot_bytes = snapshot.size();
  // Truncation must never race ahead of a pending record's write: wait for
  // the journal to be durable through the snapshot horizon first.
  while (durable_next_ < upto_seq) co_await durable_.wait();
  // Alternate slots: the previous checkpoint and control record stay intact
  // until the new slot is fully written, so a crash at any point here
  // recovers from a consistent snapshot.
  const std::uint32_t slot = checkpoint_slot_ ^ 1u;
  const auto parts = static_cast<std::uint32_t>(
      (snapshot.size() + kCheckpointPartBytes - 1) / kCheckpointPartBytes);
  for (std::uint32_t part = 0; part < parts; ++part) {
    const std::uint64_t begin = part * kCheckpointPartBytes;
    const std::uint64_t end =
        std::min<std::uint64_t>(begin + kCheckpointPartBytes, snapshot.size());
    Bytes piece(snapshot.begin() + static_cast<std::ptrdiff_t>(begin),
                snapshot.begin() + static_cast<std::ptrdiff_t>(end));
    Status st = co_await kv_->set(ckpt_key(slot, part),
                                  make_bytes(std::move(piece)),
                                  /*pinned=*/true);
    if (!st.is_ok()) co_return;  // old checkpoint + journal still intact
  }
  Bytes ctl;
  put_u32(ctl, slot);
  put_u32(ctl, parts);
  put_u64(ctl, upto_seq);
  Status st =
      co_await kv_->set(ctl_key(), make_bytes(std::move(ctl)), /*pinned=*/true);
  if (!st.is_ok()) co_return;
  checkpoint_slot_ = slot;
  checkpoints_->add();
  checkpoint_bytes_->add(snapshot_bytes);

  // The control record is durable: every record below upto_seq is subsumed,
  // and the journal since this checkpoint holds the records that landed
  // past it while the parts were written.
  const std::uint64_t truncate_from = oldest_seq_;
  oldest_seq_ = upto_seq;
  bytes_since_checkpoint_ = bytes_past_horizon_;
  for (std::uint64_t seq = truncate_from; seq < upto_seq; ++seq) {
    // A crash here leaves it partially truncated, which is fine:
    // re-erasing on the next checkpoint is idempotent, and recovery never
    // reads below replay_from.
    (void)co_await kv_->erase(journal_key(seq));
  }
  truncated_->add(upto_seq - truncate_from);
}

}  // namespace hpcbb::bb
