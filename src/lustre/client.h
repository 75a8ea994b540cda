// Lustre client library and its fs::FileSystem adapter.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lustre/protocol.h"
#include "net/rpc.h"
#include "storage/filesystem.h"

namespace hpcbb::lustre {

class LustreClient {
 public:
  LustreClient(net::RpcHub& hub, net::NodeId mds_node) noexcept
      : hub_(&hub), mds_(mds_node) {}

  sim::Task<Result<FileLayout>> create(net::NodeId client,
                                       const std::string& path,
                                       std::uint32_t stripe_count = 0);
  sim::Task<Result<FileLayout>> lookup(net::NodeId client,
                                       const std::string& path);
  sim::Task<Status> set_size(net::NodeId client, const std::string& path,
                             std::uint64_t size);
  sim::Task<Status> unlink(net::NodeId client, const std::string& path);
  sim::Task<Result<std::vector<std::string>>> list(net::NodeId client,
                                                   const std::string& prefix);

  // Striped write/read at an absolute file offset; chunks go to their OSTs
  // in parallel. A write takes its bytes as `pieces` laid back to back;
  // each stripe ships as a slice of the piece that holds it, and only a
  // stripe that straddles two pieces is copied.
  sim::Task<Status> write(net::NodeId client, const FileLayout& layout,
                          std::uint64_t offset, std::vector<ByteSlice> pieces);
  sim::Task<Result<Bytes>> read(net::NodeId client, const FileLayout& layout,
                                std::uint64_t offset, std::uint64_t length);


 private:
  struct Chunk {
    OstTarget target;
    std::uint64_t object_offset;
    std::uint64_t file_offset;
    std::uint64_t length;
  };
  static std::vector<Chunk> chunks_for(const FileLayout& layout,
                                       std::uint64_t offset,
                                       std::uint64_t length);

  net::RpcHub* hub_;
  net::NodeId mds_;
};

struct LustreFsParams {
  std::uint64_t nominal_block_size = 128 * MiB;  // for split computation only
  std::uint32_t stripe_count = 0;                // 0 = MDS default
};

// fs::FileSystem over a Lustre client: every byte of every file goes to the
// parallel file system; no node-local placement (block_locations are empty).
class LustreFileSystem final : public fs::FileSystem {
 public:
  LustreFileSystem(net::RpcHub& hub, net::NodeId mds_node,
                   const LustreFsParams& params = {})
      : client_(hub, mds_node), params_(params) {}

  sim::Task<Result<std::unique_ptr<fs::Writer>>> create(
      const std::string& path, net::NodeId client) override;
  sim::Task<Result<std::unique_ptr<fs::Reader>>> open(
      const std::string& path, net::NodeId client) override;
  sim::Task<Result<fs::FileInfo>> stat(const std::string& path,
                                       net::NodeId client) override;
  sim::Task<Status> remove(const std::string& path,
                           net::NodeId client) override;
  sim::Task<Result<std::vector<std::string>>> list(
      const std::string& prefix, net::NodeId client) override;
  sim::Task<Result<std::vector<std::vector<net::NodeId>>>> block_locations(
      const std::string& path, net::NodeId client) override;
  [[nodiscard]] std::string name() const override { return "Lustre"; }

  [[nodiscard]] LustreClient& client() noexcept { return client_; }

 private:
  LustreClient client_;
  LustreFsParams params_;
};

}  // namespace hpcbb::lustre
