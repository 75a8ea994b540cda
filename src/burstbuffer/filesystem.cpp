#include "burstbuffer/filesystem.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/byte_pool.h"
#include "common/crc32c.h"
#include "sim/sync.h"
#include "sim/trace.h"

namespace hpcbb::bb {
namespace {

// `payload` followed by zeros up to `chunk_size` bytes, in one allocation.
Bytes padded_chunk(std::span<const std::uint8_t> payload,
                   std::uint64_t chunk_size) {
  Bytes padded;
  padded.reserve(chunk_size);
  padded.assign(payload.begin(), payload.end());
  padded.resize(chunk_size, 0);
  return padded;
}

}  // namespace

// ---- Writer ----------------------------------------------------------------

class BbWriter final : public fs::Writer {
 public:
  BbWriter(BurstBufferFileSystem& bbfs, std::string path, net::NodeId client)
      : bbfs_(&bbfs),
        path_(std::move(path)),
        client_(client),
        kv_(*bbfs.hub_, client, bbfs.kv_servers_, bbfs.common_.kv_client),
        lustre_(*bbfs.hub_, bbfs.lustre_mds_),
        window_(bbfs.sim(), bbfs.params_.write_window) {
    const auto it = bbfs.agents_.find(client);
    if (bbfs.common_.scheme == Scheme::kLocal && it != bbfs.agents_.end()) {
      agent_ = it->second;
    }
  }

  sim::Task<Status> append(BytesPtr data) override {
    std::uint64_t offset = 0;
    const CommonParams& p = bbfs_->common_;
    while (offset < data->size()) {
      if (!block_open_) {
        if (Status st = co_await start_block(); !st.is_ok()) co_return st;
      }
      const std::uint64_t chunk_room =
          p.chunk_size - (block_bytes_ % p.chunk_size);
      const std::uint64_t block_room = p.block_size - block_bytes_;
      const std::uint64_t take =
          std::min({data->size() - offset, chunk_room, block_room});
      // Does this take end the chunk (it fills it, or ends the block)?
      const bool chunk_done = take == std::min(chunk_room, block_room);
      block_bytes_ += take;

      if (chunk_buf_.empty() && chunk_done) {
        // The whole chunk lies inside this append: ship it uncopied. (Built
        // in its own statement: GCC 12 frees a braced temporary in a
        // co_await argument list twice.)
        ByteSlice chunk{data, offset, take};
        if (Status st = co_await emit_chunk(std::move(chunk)); !st.is_ok()) {
          co_return st;
        }
      } else {
        // A chunk spanning two appends is gathered first, into room for
        // all of it.
        if (chunk_buf_.empty()) {
          chunk_buf_.reserve(std::min(chunk_room, block_room));
        }
        chunk_buf_.insert(
            chunk_buf_.end(),
            data->begin() + static_cast<std::ptrdiff_t>(offset),
            data->begin() + static_cast<std::ptrdiff_t>(offset + take));
        if (chunk_done) {
          if (Status st = co_await emit_buffered(); !st.is_ok()) co_return st;
        }
      }
      offset += take;
      if (block_bytes_ == p.block_size) {
        if (Status st = co_await finish_block(); !st.is_ok()) co_return st;
      }
    }
    co_return Status::ok();
  }

  sim::Task<Status> close() override {
    if (!chunk_buf_.empty()) {
      if (Status st = co_await emit_buffered(); !st.is_ok()) co_return st;
    }
    if (block_open_) {
      if (Status st = co_await finish_block(); !st.is_ok()) co_return st;
    }
    auto req = std::make_shared<const BbCloseRequest>(
        BbCloseRequest{path_, total_bytes_});
    co_return (co_await bbfs_->hub_->call<void>(client_, bbfs_->master_node_,
                                                kBbClose, req))
        .status();
  }

 private:
  sim::Task<Status> start_block() {
    // One causal op per block: admission, chunk stores, the master's
    // bookkeeping, the flusher, and the Lustre writes all share this id.
    // Allocated (and the client-side span opened) BEFORE the AddBlock RPC so
    // the master-side admission stall is attributed to this write — the
    // flowctl credit wait is often the dominant queueing term.
    sim::Simulation& sim = bbfs_->sim();
    sim::OpScope op(sim);
    block_op_ = sim.current_op();
    if (sim.trace() != nullptr) {
      // Single-writer files: blocks_added_ is the index the master will
      // return (a mismatch would be a retransmission of this same index).
      block_span_ = sim.trace()->begin(
          "write." + path_ + "#" + std::to_string(blocks_added_), "bb",
          client_, block_op_);
    }
    auto req = std::make_shared<const BbAddBlockRequest>(
        BbAddBlockRequest{path_, client_, blocks_added_});
    auto result = co_await bbfs_->hub_->call<BbAddBlockReply>(
        client_, bbfs_->master_node_, kBbAddBlock, req);
    if (!result.is_ok()) {
      if (sim.trace() != nullptr) sim.trace()->end(block_span_);
      co_return result.status();
    }
    block_index_ = result.value()->block_index;
    ++blocks_added_;
    // Write-through when the scheme demands it (BB-Sync) or the master is
    // degraded and wants durability established on the write path. Only the
    // degraded (master-signalled) flavour treats the buffer copy as
    // optional: BB-Sync on a healthy cluster keeps its strict contract that
    // the write path requires the buffer tier.
    buffer_optional_ = result.value()->write_through;
    write_through_ =
        bbfs_->common_.scheme == Scheme::kSync || buffer_optional_;
    block_bytes_ = 0;
    next_chunk_ = 0;
    chunk_crcs_.clear();
    block_open_ = true;
    co_return Status::ok();
  }

  // Ships the next chunk of the block through the scheme's write path,
  // windowed.
  sim::Task<Status> emit_chunk(ByteSlice payload) {
    const std::uint32_t chunk_index = next_chunk_++;
    const std::uint64_t chunk_offset =
        static_cast<std::uint64_t>(chunk_index) * bbfs_->common_.chunk_size;
    // Per-chunk CRC over the logical (unpadded) bytes: chunks are emitted
    // in order, so the vector index is the chunk index.
    const std::uint32_t crc = crc32c(payload.span());
    chunk_crcs_.push_back(crc);

    co_await window_.acquire();
    bbfs_->sim().spawn(
        store_chunk(chunk_index, chunk_offset, std::move(payload), crc));
    if (!first_error_.is_ok()) {
      // A previous chunk store failed and this error will abort the write.
      // The caller is free to destroy the writer as soon as it sees it, so
      // every detached store_chunk (including the one just spawned) must be
      // drained first — they hold `this`.
      co_await window_.acquire(bbfs_->params_.write_window);
      window_.release(bbfs_->params_.write_window);
    }
    co_return first_error_;
  }

  sim::Task<Status> emit_buffered() {
    assert(!chunk_buf_.empty());
    return emit_chunk(whole(make_bytes(std::exchange(chunk_buf_, {}))));
  }

  sim::Task<void> store_chunk(std::uint32_t chunk_index,
                              std::uint64_t chunk_offset, ByteSlice payload,
                              std::uint32_t crc) {
    const BbFsParams& p = bbfs_->params_;
    const std::string key = chunk_key(path_, block_index_, chunk_index);
    // Write-through blocks (BB-Sync or degraded mode) are durable on Lustre
    // before the ack, so their buffer copies are evictable cache data.
    const bool wt = write_through_;
    const bool pin = !wt;

    // Store into the burst buffer, backing off while it is full of
    // not-yet-durable data.
    // All stored chunks are padded to chunk_size so every burst-buffer
    // value lives in ONE slab class. Mixed classes would calcify: pages
    // bound to the full-chunk class can never serve a trailing partial
    // chunk, and class-local LRU could then wedge permanently (memcached's
    // slab-calcification problem). Readers and the flusher trim by the
    // block's logical size. A full chunk is stored as is, so the KV item
    // takes the writer's CRC instead of hashing the bytes again.
    ByteSlice stored = payload;
    std::optional<std::uint32_t> stored_crc = crc;
    if (payload.length < bbfs_->common_.chunk_size) {
      Bytes padded = padded_chunk(payload.span(), bbfs_->common_.chunk_size);
      stored = whole(make_bytes(std::move(padded)));
      stored_crc = std::nullopt;
    }
    Status st;
    sim::Simulation& simref = bbfs_->sim();
    // The window drain in finish_block() keeps block_op_ (like
    // block_index_) this chunk's until the store ends.
    sim::OpScope op(simref, block_op_);
    const sim::SimTime store_start = simref.now();
    bool backed_off = false;
    for (std::uint32_t attempt = 0; attempt < p.store_retry_limit; ++attempt) {
      st = co_await kv_.set(key, stored, pin, /*expiry_ns=*/0, stored_crc);
      if (st.code() != StatusCode::kResourceExhausted) break;
      backed_off = true;
      simref.metrics().counter("bb.store.backpressure_retries").add();
      co_await simref.delay(p.store_retry_backoff_ns);
    }
    if (backed_off) {
      // Data-plane backpressure (KV memory itself exhausted) — distinct
      // from control-plane admission stalls (flowctl.stall_ns).
      simref.metrics()
          .histogram("flowctl.writer_backoff_ns")
          .record(simref.now() - store_start);
    }
    if (!st.is_ok() && buffer_optional_) {
      // Degraded write-through: Lustre establishes durability below, so a
      // failed buffer store (e.g. the chunk's owner crashed mid-burst) is
      // tolerated — the block just loses its cache copy.
      simref.metrics().counter("bb.store.buffer_skips").add();
      st = Status::ok();
    }
    if (st.is_ok() && agent_ != nullptr) {
      // BB-Local: second copy on the writer's RAM disk (position-addressed,
      // chunk stores may complete out of order).
      st = co_await agent_->store().write_at(
          local_object(path_, block_index_), chunk_offset, payload);
      if (st.code() == StatusCode::kResourceExhausted) {
        // RAM disk full: degrade to buffer-only for this block (lose the
        // locality benefit, keep correctness).
        local_replica_ok_ = false;
        st = Status::ok();
      }
    }
    if (st.is_ok() && wt) {
      st = co_await write_through(chunk_offset, std::move(payload));
    }
    if (!st.is_ok() && first_error_.is_ok()) first_error_ = st;
    window_.release();
  }

  sim::Task<Status> write_through(std::uint64_t chunk_offset,
                                  ByteSlice payload) {
    if (!lustre_layout_.has_value()) {
      auto layout = co_await lustre_.lookup(
          client_, bbfs_->common_.lustre_prefix + path_);
      if (!layout.is_ok()) co_return layout.status();
      lustre_layout_ = std::move(layout).value();
    }
    const std::uint64_t file_offset =
        static_cast<std::uint64_t>(block_index_) * bbfs_->common_.block_size +
        chunk_offset;
    std::vector<ByteSlice> pieces{std::move(payload)};
    co_return co_await lustre_.write(client_, *lustre_layout_, file_offset,
                                     std::move(pieces));
  }

  sim::Task<Status> finish_block() {
    // Drain the chunk window before sealing.
    co_await window_.acquire(bbfs_->params_.write_window);
    window_.release(bbfs_->params_.write_window);
    if (!first_error_.is_ok()) co_return first_error_;

    auto req = std::make_shared<BbCompleteBlockRequest>();
    req->path = path_;
    req->block_index = block_index_;
    req->size = block_bytes_;
    req->chunk_crcs = chunk_crcs_;
    req->already_durable = write_through_;
    if (agent_ != nullptr && local_replica_ok_) {
      req->local_node = client_;
    }
    total_bytes_ += block_bytes_;
    block_open_ = false;
    local_replica_ok_ = true;
    // The client span closes after the CompleteBlock reply: the seal RPC is
    // part of what the writer experiences as this block's write latency.
    sim::Simulation& sim = bbfs_->sim();
    sim::OpScope op(sim, block_op_);
    const Status status =
        (co_await bbfs_->hub_->call<void>(
             client_, bbfs_->master_node_, kBbCompleteBlock,
             std::shared_ptr<const BbCompleteBlockRequest>(std::move(req))))
            .status();
    if (sim.trace() != nullptr) sim.trace()->end(block_span_);
    co_return status;
  }

  BurstBufferFileSystem* bbfs_;
  std::string path_;
  net::NodeId client_;
  kv::Client kv_;
  lustre::LustreClient lustre_;
  sim::Semaphore window_;
  NodeAgent* agent_ = nullptr;

  bool block_open_ = false;
  bool local_replica_ok_ = true;
  // Blocks successfully added by THIS writer — the idempotency cursor sent
  // as expected_index so a retried AddBlock never allocates twice.
  std::uint32_t blocks_added_ = 0;
  // Latched per block at start_block: BB-Sync always, or degraded mode.
  bool write_through_ = false;
  // Master-signalled degraded mode: the buffer copy is best-effort because
  // Lustre write-through establishes durability.
  bool buffer_optional_ = false;
  std::uint32_t block_index_ = 0;
  std::uint64_t block_op_ = 0;  // the open block's causal op
  std::size_t block_span_ = 0;
  std::uint32_t next_chunk_ = 0;
  std::uint64_t block_bytes_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::vector<std::uint32_t> chunk_crcs_;
  Bytes chunk_buf_;  // a chunk spanning two appends, or close()'s tail
  std::optional<lustre::FileLayout> lustre_layout_;
  Status first_error_;
};

// ---- Reader ----------------------------------------------------------------

class BbReader final : public fs::Reader {
 public:
  BbReader(BurstBufferFileSystem& bbfs, std::string path, net::NodeId client,
           BbLocationsReply meta)
      : bbfs_(&bbfs),
        path_(std::move(path)),
        client_(client),
        kv_(*bbfs.hub_, client, bbfs.kv_servers_, bbfs.common_.kv_client),
        lustre_(*bbfs.hub_, bbfs.lustre_mds_),
        meta_(std::move(meta)) {}

  sim::Task<Result<Bytes>> read(std::uint64_t offset,
                                std::uint64_t length) override {
    if (offset >= meta_.file_size) {
      co_return error(StatusCode::kOutOfRange, "read past EOF");
    }
    length = std::min(length, meta_.file_size - offset);
    Bytes out;
    std::uint64_t cursor = offset;
    const std::uint64_t end = offset + length;
    sim::Simulation& sim = bbfs_->sim();
    sim::OpScope op(sim);
    sim::ScopedSpan span(sim.trace(), "read.", path_, "bb", client_,
                         sim.current_op());
    while (cursor < end) {
      const std::uint64_t block_index = cursor / meta_.block_size;
      const std::uint64_t in_off = cursor % meta_.block_size;
      const BbBlockInfo& block =
          meta_.blocks[static_cast<std::size_t>(block_index)];
      const std::uint64_t take = std::min(end - cursor, block.size - in_off);
      Result<Bytes> piece = co_await read_block(block, in_off, take);
      if (!piece.is_ok()) co_return piece.status();
      // A range inside one block is that block's result, as is.
      if (take == length) co_return std::move(piece).value();
      if (out.empty()) out.reserve(length);
      out.insert(out.end(), piece.value().begin(), piece.value().end());
      cursor += take;
    }
    co_return out;
  }

  [[nodiscard]] std::uint64_t size() const override { return meta_.file_size; }

 private:
  // Read one block's range, preferring: node-local RAM-disk replica, then
  // the burst buffer (RDMA), then Lustre (after flush/eviction). Every path
  // verifies per-chunk CRCs; a corrupt copy falls through to the next tier
  // instead of being served, and only the last tier turns it into an error.
  sim::Task<Result<Bytes>> read_block(const BbBlockInfo& block,
                                      std::uint64_t offset,
                                      std::uint64_t length) {
    sim::Simulation& sim = bbfs_->sim();
    // Chunk-aligned covering range: block-object tiers (local replica,
    // Lustre) read whole chunks so partial reads are verifiable against the
    // per-chunk CRCs, then slice to the caller's range.
    const std::uint64_t chunk = bbfs_->common_.chunk_size;
    const std::uint64_t aligned_off = offset / chunk * chunk;
    const std::uint64_t aligned_end =
        std::min(block.size, ((offset + length - 1) / chunk + 1) * chunk);
    const std::uint64_t aligned_len = aligned_end - aligned_off;
    const std::uint64_t skip = offset - aligned_off;

    // 1. Node-local replica (BB-Local).
    if (block.local_node.has_value()) {
      auto req = std::make_shared<const AgentReadRequest>(AgentReadRequest{
          local_object(path_, block.index), aligned_off, aligned_len});
      auto result = co_await bbfs_->hub_->call<AgentReadReply>(
          client_, *block.local_node, kAgentRead, req);
      if (result.is_ok()) {
        // Each chunk is checked where it lies in the replica's pages; only
        // the requested range is copied, once.
        const std::vector<ByteSlice>& pieces = result.value()->data;
        if (verify_chunks(block, chunk, aligned_off, pieces).is_ok()) {
          co_return gather(pieces, skip, length);
        }
        // Corrupt RAM-disk copy: the buffer and Lustre hold independent
        // copies — fall through instead of failing the read.
        sim.metrics().counter("bb.read.local_crc_failures").add();
      }
    }

    // 2. Burst buffer: fetch the covering chunks in parallel. A corrupt
    // buffer copy (kDataLoss) also falls through: once the block is
    // flushed, Lustre is the authoritative repair source.
    Result<Bytes> buffered = co_await read_from_buffer(block, offset, length);
    if (buffered.is_ok()) co_return std::move(buffered).value();

    // 3. Lustre, once the block is durable there. The location snapshot
    // may be stale (flush completed after open): refresh once.
    BlockState state = block.state;
    if (state != BlockState::kFlushed) {
      auto fresh = co_await bbfs_->locations(path_, client_);
      if (fresh.is_ok() &&
          block.index < fresh.value().blocks.size()) {
        state = fresh.value().blocks[block.index].state;
      }
    }
    if (state == BlockState::kFlushed) {
      auto layout = co_await lustre_.lookup(
          client_, bbfs_->common_.lustre_prefix + path_);
      if (!layout.is_ok()) co_return layout.status();
      const std::uint64_t file_offset =
          static_cast<std::uint64_t>(block.index) * meta_.block_size +
          aligned_off;
      Result<Bytes> data = co_await lustre_.read(
          client_, layout.value(), file_offset, aligned_len);
      if (!data.is_ok()) co_return data.status();
      // The buffer copy was evicted (or never promoted): served from Lustre.
      sim.metrics().counter("bb.read.lustre_fallbacks").add();
      const ByteSlice fetched = whole(make_bytes(std::move(data).value()));
      if (Status st = verify_chunks(block, chunk, aligned_off, {&fetched, 1});
          !st.is_ok()) {
        // Last tier: corrupt here (with every earlier tier exhausted) is a
        // hard read failure, never silently served.
        sim.metrics().counter("bb.read.lustre_crc_failures").add();
        co_return st;
      }
      if (bbfs_->params_.promote_on_read) {
        promote(block, aligned_off, *fetched.bytes);
      }
      co_return gather({&fetched, 1}, skip, length);
    }
    if (buffered.code() == StatusCode::kDataLoss) co_return buffered.status();
    co_return error(StatusCode::kDataLoss,
                    "block " + std::to_string(block.index) +
                        " unavailable in buffer and not yet durable");
  }

  sim::Task<Result<Bytes>> read_from_buffer(const BbBlockInfo& block,
                                            std::uint64_t offset,
                                            std::uint64_t length) {
    const std::uint64_t chunk_size = bbfs_->common_.chunk_size;
    const std::uint32_t first =
        static_cast<std::uint32_t>(offset / chunk_size);
    const std::uint32_t last =
        static_cast<std::uint32_t>((offset + length - 1) / chunk_size);

    using Fetched = Result<std::shared_ptr<const kv::GetReply>>;
    std::vector<sim::Task<Fetched>> gets;
    for (std::uint32_t c = first; c <= last; ++c) {
      gets.push_back(kv_.get_verified(chunk_key(path_, block.index, c)));
    }
    std::vector<Fetched> pieces =
        co_await sim::parallel_collect(bbfs_->sim(), std::move(gets));

    // Each chunk is verified where it lies, then only its share of the
    // requested range is copied, once, into the result: a spare buffer's
    // resident pages when one fits.
    const std::uint64_t end = offset + length;
    Bytes out = take_reserved(length);
    for (std::uint32_t c = first; c <= last; ++c) {
      auto& piece = pieces[c - first];
      if (!piece.is_ok()) co_return piece.status();  // miss or server down
      // Check each fetched chunk against the writer-registered CRC. The KV
      // server already caught in-store bit rot; this catches a value that is
      // internally consistent but not what the writer sealed.
      const std::uint64_t c_start = std::uint64_t{c} * chunk_size;
      const ByteSlice& stored = piece.value()->value;
      if (Status st = verify_buffered_chunk(block, chunk_size, c, stored,
                                            piece.value()->value_crc);
          !st.is_ok()) {
        bbfs_->sim().metrics().counter("bb.read.buffer_crc_failures").add();
        co_return st;
      }
      const std::uint64_t from = std::max(offset, c_start) - c_start;
      const std::uint64_t to = std::min(end, c_start + chunk_size) - c_start;
      if (to > stored.length) {
        co_return error(StatusCode::kInternal, "short buffer read");
      }
      const auto data = stored.span();
      out.insert(out.end(), data.begin() + static_cast<std::ptrdiff_t>(from),
                 data.begin() + static_cast<std::ptrdiff_t>(to));
    }
    co_return out;
  }

  // Read promotion: push the complete chunks covered by this Lustre read
  // back into the buffer, detached and unpinned (pure cache data — safe to
  // evict, already durable). The next reader hits RDMA speed again.
  // Background work: the stores run under no op, not the read's.
  void promote(const BbBlockInfo& block, std::uint64_t offset,
               const Bytes& data) {
    sim::Simulation& sim = bbfs_->sim();
    sim::OpScope none(sim, 0);
    const std::uint64_t chunk = bbfs_->common_.chunk_size;
    const std::uint64_t end = offset + data.size();
    std::uint32_t c = static_cast<std::uint32_t>(
        (offset + chunk - 1) / chunk);  // first chunk fully covered
    for (;; ++c) {
      const std::uint64_t c_start = static_cast<std::uint64_t>(c) * chunk;
      const std::uint64_t c_end =
          std::min(c_start + chunk, block.size);  // block tail is short
      if (c_start >= end || c_end > end) break;
      // Padded to one slab class (see store_chunk).
      Bytes payload = padded_chunk(
          std::span(data).subspan(c_start - offset, c_end - c_start), chunk);
      sim.spawn(promote_chunk(bbfs_, client_,
                              chunk_key(path_, block.index, c),
                              make_bytes(std::move(payload))));
      if (c_end == block.size) break;
    }
  }

  static sim::Task<void> promote_chunk(BurstBufferFileSystem* bbfs,
                                       net::NodeId client, std::string key,
                                       BytesPtr payload) {
    kv::Client kv(*bbfs->hub_, client, bbfs->kv_servers_,
                  bbfs->common_.kv_client);
    (void)co_await kv.set(std::move(key), std::move(payload),
                          /*pinned=*/false);
  }

  BurstBufferFileSystem* bbfs_;
  std::string path_;
  net::NodeId client_;
  kv::Client kv_;
  lustre::LustreClient lustre_;
  BbLocationsReply meta_;
};

// ---- FileSystem ------------------------------------------------------------

BurstBufferFileSystem::BurstBufferFileSystem(
    net::RpcHub& hub, net::NodeId master_node,
    std::vector<net::NodeId> kv_servers, net::NodeId lustre_mds,
    std::map<net::NodeId, NodeAgent*> agents, const CommonParams& common,
    const BbFsParams& params)
    : hub_(&hub),
      master_node_(master_node),
      kv_servers_(std::move(kv_servers)),
      lustre_mds_(lustre_mds),
      agents_(std::move(agents)),
      common_(common),
      params_(params) {}

sim::Task<Result<BbLocationsReply>> BurstBufferFileSystem::locations(
    const std::string& path, net::NodeId client) {
  auto req = std::make_shared<const BbLocationsRequest>(
      BbLocationsRequest{path});
  auto result = co_await hub_->call<BbLocationsReply>(client, master_node_,
                                                      kBbLocations, req);
  if (!result.is_ok()) co_return result.status();
  co_return *result.value();
}

sim::Task<Result<std::unique_ptr<fs::Writer>>> BurstBufferFileSystem::create(
    const std::string& path, net::NodeId client) {
  // Unique creation token: a retried Create after a lost reply matches the
  // stored token and succeeds instead of reporting kAlreadyExists.
  auto req = std::make_shared<const BbCreateRequest>(
      BbCreateRequest{path, sim().next_op_id()});
  auto result = co_await hub_->call<void>(client, master_node_, kBbCreate,
                                          req);
  if (!result.is_ok()) co_return result.status();
  co_return std::unique_ptr<fs::Writer>(
      std::make_unique<BbWriter>(*this, path, client));
}

sim::Task<Result<std::unique_ptr<fs::Reader>>> BurstBufferFileSystem::open(
    const std::string& path, net::NodeId client) {
  auto meta = co_await locations(path, client);
  if (!meta.is_ok()) co_return meta.status();
  co_return std::unique_ptr<fs::Reader>(std::make_unique<BbReader>(
      *this, path, client, std::move(meta).value()));
}

sim::Task<Result<fs::FileInfo>> BurstBufferFileSystem::stat(
    const std::string& path, net::NodeId client) {
  auto meta = co_await locations(path, client);
  if (!meta.is_ok()) co_return meta.status();
  fs::FileInfo info;
  info.path = path;
  info.size = meta.value().file_size;
  info.block_size = meta.value().block_size;
  info.replication = common_.scheme == Scheme::kAsync ? 1 : 2;
  co_return info;
}

sim::Task<Status> BurstBufferFileSystem::remove(const std::string& path,
                                                net::NodeId client) {
  // Drop any RAM-disk replicas (direct store access: agents are in-process).
  for (auto& [node, agent] : agents_) {
    std::uint32_t index = 0;
    while (agent->store().contains(local_object(path, index))) {
      (void)agent->store().remove(local_object(path, index));
      ++index;
    }
  }
  auto req = std::make_shared<const BbDeleteRequest>(BbDeleteRequest{path});
  co_return (co_await hub_->call<void>(client, master_node_, kBbDelete, req))
      .status();
}

sim::Task<Result<std::vector<std::string>>> BurstBufferFileSystem::list(
    const std::string& prefix, net::NodeId client) {
  auto req = std::make_shared<const BbListRequest>(BbListRequest{prefix});
  auto result = co_await hub_->call<BbListReply>(client, master_node_,
                                                 kBbList, req);
  if (!result.is_ok()) co_return result.status();
  co_return result.value()->paths;
}

sim::Task<Result<std::vector<std::vector<net::NodeId>>>>
BurstBufferFileSystem::block_locations(const std::string& path,
                                       net::NodeId client) {
  auto meta = co_await locations(path, client);
  if (!meta.is_ok()) co_return meta.status();
  std::vector<std::vector<net::NodeId>> out;
  out.reserve(meta.value().blocks.size());
  for (const BbBlockInfo& block : meta.value().blocks) {
    if (block.local_node.has_value()) {
      out.push_back({*block.local_node});
    } else {
      out.emplace_back();
    }
  }
  co_return out;
}

}  // namespace hpcbb::bb
