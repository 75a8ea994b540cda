#include "hdfs/client.h"

#include <algorithm>

#include "common/crc32c.h"
#include "sim/sync.h"
#include "sim/trace.h"

namespace hpcbb::hdfs {

namespace {

class HdfsWriter final : public fs::Writer {
 public:
  HdfsWriter(net::RpcHub& hub, net::NodeId namenode, net::NodeId client,
             std::string path, std::uint64_t block_size,
             const HdfsClientParams& params)
      : hub_(&hub),
        namenode_(namenode),
        client_(client),
        path_(std::move(path)),
        block_size_(block_size),
        params_(params) {}

  sim::Task<Status> append(BytesPtr data) override {
    std::uint64_t offset = 0;
    while (offset < data->size()) {
      if (!block_open_) {
        if (Status st = co_await start_block(); !st.is_ok()) co_return st;
      }
      const std::uint64_t room = block_size_ - block_bytes_;
      const std::uint64_t take =
          std::min({room, data->size() - offset, params_.packet_size});
      Bytes packet(data->begin() + static_cast<std::ptrdiff_t>(offset),
                   data->begin() + static_cast<std::ptrdiff_t>(offset + take));
      if (Status st = co_await send_packet(make_bytes(std::move(packet)));
          !st.is_ok()) {
        co_return st;
      }
      offset += take;
      if (block_bytes_ == block_size_) {
        if (Status st = co_await finish_block(); !st.is_ok()) co_return st;
      }
    }
    co_return Status::ok();
  }

  sim::Task<Status> close() override {
    if (block_open_) {
      if (Status st = co_await finish_block(); !st.is_ok()) co_return st;
    }
    auto req = std::make_shared<const NnCloseRequest>(NnCloseRequest{path_});
    co_return (co_await hub_->call<void>(client_, namenode_, kNnClose, req))
        .status();
  }

 private:
  sim::Task<Status> start_block() {
    auto req = std::make_shared<const NnAddBlockRequest>(
        NnAddBlockRequest{path_, client_});
    auto result =
        co_await hub_->call<BlockAssignment>(client_, namenode_, kNnAddBlock,
                                             req);
    if (!result.is_ok()) co_return result.status();
    block_id_ = result.value()->block_id;
    pipeline_ = result.value()->pipeline;
    block_bytes_ = 0;
    block_crc_ = 0;
    block_open_ = true;
    // One causal op per block: every packet of this block (and the datanode
    // spans it produces) shares this id.
    sim::Simulation& sim = hub_->transport().fabric().simulation();
    op_id_ = sim.next_op_id();
    if (sim.trace() != nullptr) {
      block_span_ = sim.trace()->begin(
          "block." + std::to_string(block_id_), "hdfs", client_, op_id_);
    }
    co_return Status::ok();
  }

  // Streams one packet into the pipeline, with up to `write_window`
  // outstanding packets (HDFS's sliding ack window).
  sim::Task<Status> send_packet(BytesPtr packet) {
    const std::uint64_t offset = block_bytes_;
    block_crc_ = crc32c(block_crc_, packet->data(), packet->size());
    block_bytes_ += packet->size();

    if (window_ == nullptr) {
      window_ = std::make_unique<sim::Semaphore>(
          hub_->transport().fabric().simulation(), params_.write_window);
    }
    co_await window_->acquire();
    ++in_flight_;

    auto req = std::make_shared<DnWritePacketRequest>();
    req->block_id = block_id_;
    req->offset = offset;
    req->data = std::move(packet);
    req->downstream.assign(pipeline_.begin() + 1, pipeline_.end());
    req->op_id = op_id_;

    hub_->transport().fabric().simulation().spawn(
        [](HdfsWriter& w, net::NodeId head,
           std::shared_ptr<const DnWritePacketRequest> r) -> sim::Task<void> {
          auto result =
              co_await w.hub_->call<void>(w.client_, head, kDnWritePacket, r);
          if (!result.is_ok() && w.first_error_.is_ok()) {
            w.first_error_ = result.status();
          }
          --w.in_flight_;
          w.window_->release();
        }(*this, pipeline_.front(), std::move(req)));
    co_return first_error_;
  }

  sim::Task<Status> finish_block() {
    // Drain the window: acquiring every permit blocks until all in-flight
    // packets have been acked and released theirs.
    if (window_ != nullptr) {
      co_await window_->acquire(params_.write_window);
      window_->release(params_.write_window);
    }
    if (!first_error_.is_ok()) co_return first_error_;
    auto req = std::make_shared<const NnCompleteBlockRequest>(
        NnCompleteBlockRequest{path_, block_id_, block_bytes_, block_crc_});
    block_open_ = false;
    sim::Simulation& sim = hub_->transport().fabric().simulation();
    if (sim.trace() != nullptr) sim.trace()->end(block_span_);
    co_return (co_await hub_->call<void>(client_, namenode_,
                                         kNnCompleteBlock, req))
        .status();
  }

  net::RpcHub* hub_;
  net::NodeId namenode_;
  net::NodeId client_;
  std::string path_;
  std::uint64_t block_size_;
  HdfsClientParams params_;

  bool block_open_ = false;
  BlockId block_id_ = 0;
  std::uint64_t op_id_ = 0;
  std::size_t block_span_ = 0;
  std::vector<net::NodeId> pipeline_;
  std::uint64_t block_bytes_ = 0;
  std::uint32_t block_crc_ = 0;
  std::unique_ptr<sim::Semaphore> window_;
  std::uint32_t in_flight_ = 0;
  Status first_error_;
};

class HdfsReader final : public fs::Reader {
 public:
  HdfsReader(net::RpcHub& hub, net::NodeId client, NnLocationsReply meta)
      : hub_(&hub), client_(client), meta_(std::move(meta)) {}

  sim::Task<Result<Bytes>> read(std::uint64_t offset,
                                std::uint64_t length) override {
    if (offset >= meta_.file_size) {
      co_return error(StatusCode::kOutOfRange, "read past EOF");
    }
    length = std::min(length, meta_.file_size - offset);
    Bytes out;
    out.reserve(length);
    std::uint64_t cursor = offset;
    const std::uint64_t end = offset + length;
    const std::uint64_t op_id =
        hub_->transport().fabric().simulation().next_op_id();
    // Blocks can have unequal sizes (last block short); walk them.
    std::uint64_t block_start = 0;
    for (const BlockLocation& block : meta_.blocks) {
      const std::uint64_t block_end = block_start + block.size;
      if (cursor < block_end && block_start < end) {
        const std::uint64_t in_off = std::max(cursor, block_start) - block_start;
        const std::uint64_t in_len =
            std::min(end, block_end) - std::max(cursor, block_start);
        Result<Bytes> piece = co_await read_block(block, in_off, in_len, op_id);
        if (!piece.is_ok()) co_return piece.status();
        out.insert(out.end(), piece.value().begin(), piece.value().end());
        cursor += in_len;
        if (cursor >= end) break;
      }
      block_start = block_end;
    }
    co_return out;
  }

  [[nodiscard]] std::uint64_t size() const override { return meta_.file_size; }

 private:
  sim::Task<Result<Bytes>> read_block(const BlockLocation& block,
                                      std::uint64_t offset,
                                      std::uint64_t length,
                                      std::uint64_t op_id) {
    if (block.nodes.empty()) {
      co_return error(StatusCode::kDataLoss,
                      "all replicas lost for block " +
                          std::to_string(block.block_id));
    }
    // Prefer the node-local replica — short-circuit distance (the HDFS
    // read path that makes map-side locality matter).
    net::NodeId source = block.nodes.front();
    for (const net::NodeId n : block.nodes) {
      if (n == client_) {
        source = n;
        break;
      }
    }
    Status last = error(StatusCode::kUnavailable, "no replica answered");
    for (std::size_t attempt = 0; attempt < block.nodes.size(); ++attempt) {
      auto req = std::make_shared<const DnReadRequest>(
          DnReadRequest{block.block_id, offset, length, op_id});
      auto result = co_await hub_->call<DnReadReply>(client_, source, kDnRead,
                                                     req);
      if (result.is_ok()) {
        // End-to-end checksum: full-block reads are validated against the
        // CRC the writer registered with the NameNode (HDFS client-side
        // checksum verification), hashing the pieces where they lie.
        const std::vector<ByteSlice>& pieces = result.value()->data;
        bool intact = true;
        if (offset == 0 && length == block.size) {
          std::uint32_t crc = 0;
          for (const ByteSlice& piece : pieces) {
            crc = crc32c(crc, piece.span().data(), piece.length);
          }
          intact = crc == block.crc32c;
        }
        if (intact) co_return gather(pieces);
        last = error(StatusCode::kDataLoss, "checksum mismatch on block " +
                                                std::to_string(block.block_id));
      } else {
        last = result.status();
      }
      // Failover to the next replica.
      source = block.nodes[(attempt + 1) % block.nodes.size()];
    }
    co_return last;
  }

  net::RpcHub* hub_;
  net::NodeId client_;
  NnLocationsReply meta_;
};

}  // namespace

sim::Task<Result<NnLocationsReply>> HdfsFileSystem::locations(
    const std::string& path, net::NodeId client) {
  auto req = std::make_shared<const NnLocationsRequest>(
      NnLocationsRequest{path});
  auto result =
      co_await hub_->call<NnLocationsReply>(client, namenode_, kNnLocations,
                                            req);
  if (!result.is_ok()) co_return result.status();
  co_return *result.value();
}

sim::Task<Result<std::unique_ptr<fs::Writer>>> HdfsFileSystem::create(
    const std::string& path, net::NodeId client) {
  auto req = std::make_shared<const NnCreateRequest>(NnCreateRequest{
      path, params_.replication, params_.block_size});
  auto result = co_await hub_->call<void>(client, namenode_, kNnCreate, req);
  if (!result.is_ok()) co_return result.status();
  // The writer needs the effective block size; NameNode applied defaults.
  auto loc = co_await locations(path, client);
  if (!loc.is_ok()) co_return loc.status();
  co_return std::unique_ptr<fs::Writer>(std::make_unique<HdfsWriter>(
      *hub_, namenode_, client, path, loc.value().block_size, params_));
}

sim::Task<Result<std::unique_ptr<fs::Reader>>> HdfsFileSystem::open(
    const std::string& path, net::NodeId client) {
  auto loc = co_await locations(path, client);
  if (!loc.is_ok()) co_return loc.status();
  co_return std::unique_ptr<fs::Reader>(std::make_unique<HdfsReader>(
      *hub_, client, std::move(loc).value()));
}

sim::Task<Result<fs::FileInfo>> HdfsFileSystem::stat(const std::string& path,
                                                     net::NodeId client) {
  auto loc = co_await locations(path, client);
  if (!loc.is_ok()) co_return loc.status();
  fs::FileInfo info;
  info.path = path;
  info.size = loc.value().file_size;
  info.block_size = loc.value().block_size;
  info.replication = loc.value().replication;
  co_return info;
}

sim::Task<Status> HdfsFileSystem::remove(const std::string& path,
                                         net::NodeId client) {
  auto req = std::make_shared<const NnDeleteRequest>(NnDeleteRequest{path});
  co_return (co_await hub_->call<void>(client, namenode_, kNnDelete, req))
      .status();
}

sim::Task<Result<std::vector<std::string>>> HdfsFileSystem::list(
    const std::string& prefix, net::NodeId client) {
  auto req = std::make_shared<const NnListRequest>(NnListRequest{prefix});
  auto result = co_await hub_->call<NnListReply>(client, namenode_, kNnList,
                                                 req);
  if (!result.is_ok()) co_return result.status();
  co_return result.value()->paths;
}

sim::Task<Result<std::vector<std::vector<net::NodeId>>>>
HdfsFileSystem::block_locations(const std::string& path, net::NodeId client) {
  auto loc = co_await locations(path, client);
  if (!loc.is_ok()) co_return loc.status();
  std::vector<std::vector<net::NodeId>> out;
  out.reserve(loc.value().blocks.size());
  for (const BlockLocation& block : loc.value().blocks) {
    out.push_back(block.nodes);
  }
  co_return out;
}

}  // namespace hpcbb::hdfs
