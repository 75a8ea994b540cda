// HDFS NameNode: namespace, block map, replica placement (writer-local
// first), and re-replication after DataNode loss.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "hdfs/protocol.h"
#include "net/rpc.h"
#include "sim/simulation.h"

namespace hpcbb::hdfs {

struct NameNodeParams {
  std::uint32_t default_replication = 3;
  std::uint64_t default_block_size = 128 * MiB;
  sim::SimTime md_op_ns = 20 * duration::us;
  std::uint64_t placement_seed = 0x5EED;
  // Heartbeat failure detection: ping every DataNode each interval; after
  // `heartbeat_misses` consecutive failures the node is declared dead and
  // re-replication starts. 0 disables the monitor (tests then drive
  // mark_datanode_dead explicitly for determinism of timing assertions).
  sim::SimTime heartbeat_interval_ns = 0;
  std::uint32_t heartbeat_misses = 3;
};

class NameNode {
 public:
  NameNode(net::RpcHub& hub, net::NodeId node,
           std::vector<net::NodeId> datanodes, const NameNodeParams& params);
  ~NameNode();

  NameNode(const NameNode&) = delete;
  NameNode& operator=(const NameNode&) = delete;


  // Failure handling: drop the DataNode from all replica sets and spawn
  // re-replication from surviving replicas (what heartbeat loss triggers in
  // real HDFS). Returns the number of blocks scheduled for re-replication.
  // Invoked automatically by the heartbeat monitor when enabled.
  std::size_t mark_datanode_dead(net::NodeId dead);

  [[nodiscard]] std::size_t live_datanode_count() const noexcept {
    return live_datanodes_.size();
  }

  // Stops the heartbeat monitor after its current tick (the self-scheduling
  // timer would otherwise keep Simulation::run() from ever draining).
  void stop_heartbeats() noexcept { heartbeats_stopped_ = true; }

 private:
  struct BlockMeta {
    BlockId id = 0;
    std::uint64_t size = 0;
    std::uint32_t crc32c = 0;
    bool complete = false;
  };
  struct FileMeta {
    std::uint64_t block_size = 0;
    std::uint32_t replication = 0;
    std::vector<BlockMeta> blocks;
    bool closed = false;
  };

  sim::Task<net::RpcResponse> handle_create(
      std::shared_ptr<const NnCreateRequest>);
  sim::Task<net::RpcResponse> handle_add_block(
      std::shared_ptr<const NnAddBlockRequest>);
  sim::Task<net::RpcResponse> handle_complete_block(
      std::shared_ptr<const NnCompleteBlockRequest>);
  sim::Task<net::RpcResponse> handle_close(
      std::shared_ptr<const NnCloseRequest>);
  sim::Task<net::RpcResponse> handle_locations(
      std::shared_ptr<const NnLocationsRequest>);
  sim::Task<net::RpcResponse> handle_delete(
      std::shared_ptr<const NnDeleteRequest>);
  sim::Task<net::RpcResponse> handle_list(std::shared_ptr<const NnListRequest>);

  sim::Task<void> charge_md_op();
  sim::Task<void> heartbeat_monitor();

  // Writer-local-first placement with random distinct remotes.
  std::vector<net::NodeId> place_replicas(net::NodeId writer,
                                          std::uint32_t replication);

  net::RpcHub* hub_;
  net::NodeId node_;
  NameNodeParams params_;
  std::vector<net::NodeId> datanodes_;
  std::vector<net::NodeId> live_datanodes_;
  Rng rng_;
  BlockId next_block_id_ = 1;
  bool heartbeats_stopped_ = false;
  std::map<std::string, FileMeta> files_;
  std::unordered_map<BlockId, std::vector<net::NodeId>> block_nodes_;
};

}  // namespace hpcbb::hdfs
