#include "lustre/client.h"

#include <algorithm>

#include "sim/sync.h"

namespace hpcbb::lustre {

sim::Task<Result<FileLayout>> LustreClient::create(net::NodeId client,
                                                   const std::string& path,
                                                   std::uint32_t stripe_count) {
  auto req = std::make_shared<const CreateRequest>(
      CreateRequest{path, stripe_count});
  auto result = co_await hub_->call<FileLayout>(client, mds_, kMdsCreate, req);
  if (!result.is_ok()) co_return result.status();
  co_return *result.value();
}

sim::Task<Result<FileLayout>> LustreClient::lookup(net::NodeId client,
                                                   const std::string& path) {
  auto req = std::make_shared<const LookupRequest>(LookupRequest{path});
  auto result = co_await hub_->call<FileLayout>(client, mds_, kMdsLookup, req);
  if (!result.is_ok()) co_return result.status();
  co_return *result.value();
}

sim::Task<Status> LustreClient::set_size(net::NodeId client,
                                         const std::string& path,
                                         std::uint64_t size) {
  auto req = std::make_shared<const SetSizeRequest>(SetSizeRequest{path, size});
  co_return (co_await hub_->call<void>(client, mds_, kMdsSetSize, req)).status();
}

sim::Task<Status> LustreClient::unlink(net::NodeId client,
                                       const std::string& path) {
  auto req = std::make_shared<const UnlinkRequest>(UnlinkRequest{path});
  co_return (co_await hub_->call<void>(client, mds_, kMdsUnlink, req)).status();
}

sim::Task<Result<std::vector<std::string>>> LustreClient::list(
    net::NodeId client, const std::string& prefix) {
  auto req = std::make_shared<const ListRequest>(ListRequest{prefix});
  auto result = co_await hub_->call<ListReply>(client, mds_, kMdsList, req);
  if (!result.is_ok()) co_return result.status();
  co_return result.value()->paths;
}

std::vector<LustreClient::Chunk> LustreClient::chunks_for(
    const FileLayout& layout, std::uint64_t offset, std::uint64_t length) {
  std::vector<Chunk> chunks;
  const std::uint64_t ss = layout.stripe_size;
  const auto nstripes = static_cast<std::uint64_t>(layout.targets.size());
  std::uint64_t cursor = offset;
  const std::uint64_t end = offset + length;
  while (cursor < end) {
    const std::uint64_t stripe_index = cursor / ss;
    const std::uint64_t within = cursor % ss;
    const std::uint64_t take = std::min(end - cursor, ss - within);
    Chunk chunk;
    chunk.target = layout.targets[stripe_index % nstripes];
    chunk.object_offset = (stripe_index / nstripes) * ss + within;
    chunk.file_offset = cursor;
    chunk.length = take;
    chunks.push_back(chunk);
    cursor += take;
  }
  return chunks;
}

namespace {

// The bytes [at, at + length) of `pieces` laid back to back. `first` and
// `first_at` track the piece holding `at` and its offset, across calls with
// increasing `at`. A stripe inside one piece is a slice of it; one that
// straddles pieces is gathered into a buffer of its own.
ByteSlice stripe_of(const std::vector<ByteSlice>& pieces, std::size_t& first,
                    std::uint64_t& first_at, std::uint64_t at,
                    std::uint64_t length) {
  while (first_at + pieces[first].length <= at) {
    first_at += pieces[first].length;
    ++first;
  }
  const ByteSlice& piece = pieces[first];
  if (at + length <= first_at + piece.length) {
    return ByteSlice{piece.bytes, piece.offset + (at - first_at), length};
  }
  return whole(make_bytes(gather(std::span(pieces).subspan(first),
                                 at - first_at, length)));
}

}  // namespace

sim::Task<Status> LustreClient::write(net::NodeId client,
                                      const FileLayout& layout,
                                      std::uint64_t offset,
                                      std::vector<ByteSlice> pieces) {
  if (layout.targets.empty()) {
    co_return error(StatusCode::kFailedPrecondition, "layout has no targets");
  }
  std::uint64_t length = 0;
  for (const ByteSlice& piece : pieces) length += piece.length;
  const std::vector<Chunk> chunks = chunks_for(layout, offset, length);
  sim::Simulation& sim = hub_->transport().fabric().simulation();

  std::vector<sim::Task<Status>> ops;
  ops.reserve(chunks.size());
  std::size_t first = 0;
  std::uint64_t first_at = offset;
  for (const Chunk& chunk : chunks) {
    auto req = std::make_shared<OssWriteRequest>();
    req->ost_index = chunk.target.ost_index;
    req->object = layout.path;
    req->offset = chunk.object_offset;
    req->data =
        stripe_of(pieces, first, first_at, chunk.file_offset, chunk.length);
    ops.push_back([](net::RpcHub& hub, net::NodeId src, net::NodeId dst,
                     std::shared_ptr<const OssWriteRequest> r)
                      -> sim::Task<Status> {
      co_return (co_await hub.call<void>(src, dst, kOssWrite, r)).status();
    }(*hub_, client, chunk.target.oss_node, std::move(req)));
  }
  const std::vector<Status> results =
      co_await sim::parallel_collect(sim, std::move(ops));
  for (const Status& st : results) {
    if (!st.is_ok()) co_return st;
  }
  co_return Status::ok();
}

sim::Task<Result<Bytes>> LustreClient::read(net::NodeId client,
                                            const FileLayout& layout,
                                            std::uint64_t offset,
                                            std::uint64_t length) {
  if (layout.targets.empty()) {
    co_return error(StatusCode::kFailedPrecondition, "layout has no targets");
  }
  if (offset >= layout.size) {
    co_return error(StatusCode::kOutOfRange, "read past EOF");
  }
  length = std::min(length, layout.size - offset);
  const std::vector<Chunk> chunks = chunks_for(layout, offset, length);
  sim::Simulation& sim = hub_->transport().fabric().simulation();

  using Pieces = std::vector<ByteSlice>;
  std::vector<sim::Task<Result<Pieces>>> ops;
  ops.reserve(chunks.size());
  for (const Chunk& chunk : chunks) {
    auto req = std::make_shared<const OssReadRequest>(OssReadRequest{
        chunk.target.ost_index, layout.path, chunk.object_offset,
        chunk.length});
    ops.push_back([](net::RpcHub& hub, net::NodeId src, net::NodeId dst,
                     std::shared_ptr<const OssReadRequest> r)
                      -> sim::Task<Result<Pieces>> {
      auto result = co_await hub.call<OssReadReply>(src, dst, kOssRead, r);
      if (!result.is_ok()) co_return result.status();
      co_return result.value()->data;
    }(*hub_, client, chunk.target.oss_node, std::move(req)));
  }
  std::vector<Result<Pieces>> results = co_await sim::parallel_collect(
      sim, std::move(ops));

  // Each stripe's page slices are copied once, straight into the result.
  Bytes out;
  out.reserve(length);
  for (const auto& stripe : results) {
    if (!stripe.is_ok()) co_return stripe.status();
    for (const ByteSlice& piece : stripe.value()) {
      out.insert(out.end(), piece.span().begin(), piece.span().end());
    }
  }
  co_return out;
}

// ---- fs::FileSystem adapter ------------------------------------------------

namespace {

class LustreWriter final : public fs::Writer {
 public:
  LustreWriter(LustreClient& client, net::NodeId node, FileLayout layout)
      : client_(&client), node_(node), layout_(std::move(layout)) {}

  sim::Task<Status> append(BytesPtr data) override {
    const std::uint64_t size = data->size();
    std::vector<ByteSlice> pieces{whole(std::move(data))};
    Status st = co_await client_->write(node_, layout_, cursor_,
                                        std::move(pieces));
    if (st.is_ok()) cursor_ += size;
    co_return st;
  }

  sim::Task<Status> close() override {
    co_return co_await client_->set_size(node_, layout_.path, cursor_);
  }

 private:
  LustreClient* client_;
  net::NodeId node_;
  FileLayout layout_;
  std::uint64_t cursor_ = 0;
};

class LustreReader final : public fs::Reader {
 public:
  LustreReader(LustreClient& client, net::NodeId node, FileLayout layout)
      : client_(&client), node_(node), layout_(std::move(layout)) {}

  sim::Task<Result<Bytes>> read(std::uint64_t offset,
                                std::uint64_t length) override {
    return client_->read(node_, layout_, offset, length);
  }

  [[nodiscard]] std::uint64_t size() const override { return layout_.size; }

 private:
  LustreClient* client_;
  net::NodeId node_;
  FileLayout layout_;
};

}  // namespace

sim::Task<Result<std::unique_ptr<fs::Writer>>> LustreFileSystem::create(
    const std::string& path, net::NodeId client) {
  Result<FileLayout> layout =
      co_await client_.create(client, path, params_.stripe_count);
  if (!layout.is_ok()) co_return layout.status();
  co_return std::unique_ptr<fs::Writer>(std::make_unique<LustreWriter>(
      client_, client, std::move(layout).value()));
}

sim::Task<Result<std::unique_ptr<fs::Reader>>> LustreFileSystem::open(
    const std::string& path, net::NodeId client) {
  Result<FileLayout> layout = co_await client_.lookup(client, path);
  if (!layout.is_ok()) co_return layout.status();
  co_return std::unique_ptr<fs::Reader>(std::make_unique<LustreReader>(
      client_, client, std::move(layout).value()));
}

sim::Task<Result<fs::FileInfo>> LustreFileSystem::stat(const std::string& path,
                                                       net::NodeId client) {
  Result<FileLayout> layout = co_await client_.lookup(client, path);
  if (!layout.is_ok()) co_return layout.status();
  fs::FileInfo info;
  info.path = path;
  info.size = layout.value().size;
  info.block_size = params_.nominal_block_size;
  info.replication = 1;
  co_return info;
}

sim::Task<Status> LustreFileSystem::remove(const std::string& path,
                                           net::NodeId client) {
  return client_.unlink(client, path);
}

sim::Task<Result<std::vector<std::string>>> LustreFileSystem::list(
    const std::string& prefix, net::NodeId client) {
  return client_.list(client, prefix);
}

sim::Task<Result<std::vector<std::vector<net::NodeId>>>>
LustreFileSystem::block_locations(const std::string& path,
                                  net::NodeId client) {
  Result<FileLayout> layout = co_await client_.lookup(client, path);
  if (!layout.is_ok()) co_return layout.status();
  const std::uint64_t blocks =
      (layout.value().size + params_.nominal_block_size - 1) /
      params_.nominal_block_size;
  // No node-local placement on a parallel file system.
  co_return std::vector<std::vector<net::NodeId>>(blocks);
}

}  // namespace hpcbb::lustre
