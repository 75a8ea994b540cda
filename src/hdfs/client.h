// HDFS client: block-building writer with pipelined packet streaming, and a
// locality-aware reader. Implements fs::FileSystem.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "hdfs/protocol.h"
#include "net/rpc.h"
#include "storage/filesystem.h"

namespace hpcbb::hdfs {

struct HdfsClientParams {
  std::uint32_t replication = 0;     // 0 = NameNode default
  std::uint64_t block_size = 0;      // 0 = NameNode default
  std::uint64_t packet_size = 1 * MiB;
  std::uint32_t write_window = 8;    // outstanding packets per block
};

class HdfsFileSystem final : public fs::FileSystem {
 public:
  HdfsFileSystem(net::RpcHub& hub, net::NodeId namenode,
                 const HdfsClientParams& params = {})
      : hub_(&hub), namenode_(namenode), params_(params) {}

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
  [[nodiscard]] std::string name() const override { return "HDFS"; }

  [[nodiscard]] net::RpcHub& hub() noexcept { return *hub_; }

  sim::Task<Result<NnLocationsReply>> locations(const std::string& path,
                                                net::NodeId client);

 private:
  net::RpcHub* hub_;
  net::NodeId namenode_;
  HdfsClientParams params_;
};

}  // namespace hpcbb::hdfs
