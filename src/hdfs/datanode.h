// HDFS DataNode: stores blocks on the node-local disk and implements the
// chained replication pipeline — each packet is written locally while being
// forwarded to the next DataNode.
#pragma once

#include <cstdint>
#include <memory>

#include "common/corrupt.h"
#include "common/metrics.h"
#include "faults/injector.h"
#include "hdfs/protocol.h"
#include "net/rpc.h"
#include "storage/local_store.h"

namespace hpcbb::hdfs {

struct DataNodeParams {
  storage::DeviceParams disk = storage::hdd_preset();
};

class DataNode {
 public:
  DataNode(net::RpcHub& hub, net::NodeId node, const DataNodeParams& params);
  ~DataNode();

  DataNode(const DataNode&) = delete;
  DataNode& operator=(const DataNode&) = delete;

  [[nodiscard]] std::uint64_t used_bytes() const noexcept {
    return store_->used_bytes();
  }

  // Process crash: node unreachable until restart; on-disk data survives.
  void crash() { crashed_ = true; }
  void restart() { crashed_ = false; }

  // Register this node's disk as a corruption target with the injector, so
  // corrupt_block (and scheduled corruption) ticks faults.injected{kind=
  // corrupt.*} and shows up in traces instead of mutating bytes invisibly.
  void attach_fault_injector(faults::FaultInjector* injector);

  // Corrupt a stored block in place (checksum validation). Routed through
  // the attached fault injector when present; silent otherwise (bare-rig
  // tests without an injector).
  void corrupt_block(BlockId id, CorruptKind kind = CorruptKind::kBitFlip);

 private:
  static std::string block_name(BlockId id) {
    return "blk_" + std::to_string(id);
  }

  sim::Task<net::RpcResponse> handle_write_packet(
      std::shared_ptr<const DnWritePacketRequest>);
  sim::Task<net::RpcResponse> handle_read(std::shared_ptr<const DnReadRequest>);
  sim::Task<net::RpcResponse> handle_delete(
      std::shared_ptr<const DnDeleteBlockRequest>);
  sim::Task<net::RpcResponse> handle_replicate(
      std::shared_ptr<const DnReplicateRequest>);
  sim::Task<net::RpcResponse> handle_ping(std::shared_ptr<const DnPingRequest>);

  net::RpcHub* hub_;
  net::NodeId node_;
  std::unique_ptr<storage::Device> device_;
  std::unique_ptr<storage::LocalStore> store_;
  faults::FaultInjector* injector_ = nullptr;
  std::size_t injector_target_ = 0;  // index of this node's corrupt target
  bool crashed_ = false;
  MetricHandle<Histogram> write_ns_;
  MetricHandle<Histogram> read_ns_;
  MetricHandle<Counter> write_bytes_;
  MetricHandle<Counter> read_bytes_;
};

}  // namespace hpcbb::hdfs
