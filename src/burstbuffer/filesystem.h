// BurstBufferFileSystem: the paper's HDFS-compatible file system whose data
// plane is the RDMA key-value burst buffer backed by Lustre. The configured
// Scheme selects the write path:
//   BB-Async — ack on buffer residency, async flush (fastest)
//   BB-Sync  — write-through to Lustre before ack (Lustre fault tolerance)
//   BB-Local — buffer + node-local RAM-disk replica (map locality + FT)
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "burstbuffer/agent.h"
#include "burstbuffer/params.h"
#include "burstbuffer/protocol.h"
#include "kvstore/client.h"
#include "lustre/client.h"
#include "storage/filesystem.h"

namespace hpcbb::bb {

struct BbFsParams {
  std::uint32_t write_window = 8;  // outstanding chunk stores
  // Backpressure: when the buffer is full of not-yet-flushed data, stores
  // fail kResourceExhausted and the writer retries — its throughput then
  // degrades toward the flush (Lustre) rate, exactly the capacity-pressure
  // behaviour experiment F11 measures.
  std::uint32_t store_retry_limit = 100000;
  sim::SimTime store_retry_backoff_ns = 2 * duration::ms;
  // Read promotion: when a read misses the buffer and is served from
  // Lustre, asynchronously re-populate the buffer (unpinned — plain cache
  // data) so subsequent readers hit RDMA speed again. An extension of the
  // paper's design: the buffer doubles as a read cache for hot inputs.
  bool promote_on_read = false;
};

class BurstBufferFileSystem final : public fs::FileSystem {
 public:
  // `agents` maps compute nodes to their RAM-disk agents (BB-Local); may be
  // empty for the other schemes. `common` must be the Master's.
  BurstBufferFileSystem(net::RpcHub& hub, net::NodeId master_node,
                        std::vector<net::NodeId> kv_servers,
                        net::NodeId lustre_mds,
                        std::map<net::NodeId, NodeAgent*> agents,
                        const CommonParams& common, const BbFsParams& params);

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
  [[nodiscard]] std::string name() const override {
    return std::string(to_string(common_.scheme));
  }

  sim::Task<Result<BbLocationsReply>> locations(const std::string& path,
                                                net::NodeId client);

 private:
  friend class BbWriter;
  friend class BbReader;

  net::RpcHub* hub_;
  net::NodeId master_node_;
  std::vector<net::NodeId> kv_servers_;
  net::NodeId lustre_mds_;
  std::map<net::NodeId, NodeAgent*> agents_;
  CommonParams common_;
  BbFsParams params_;
};

}  // namespace hpcbb::bb
