// Burst-buffer node agent: owns the node's RAM-disk replica area for the
// BB-Local scheme and serves remote reads of it (the writer on the same
// node writes through the store directly).
#pragma once

#include <cstdint>
#include <memory>

#include "burstbuffer/protocol.h"
#include "net/rpc.h"
#include "storage/local_store.h"

namespace hpcbb::bb {

struct AgentParams {
  std::uint64_t ramdisk_bytes = 16 * GiB;
};

class NodeAgent {
 public:
  NodeAgent(net::RpcHub& hub, net::NodeId node, const AgentParams& params);
  ~NodeAgent();

  NodeAgent(const NodeAgent&) = delete;
  NodeAgent& operator=(const NodeAgent&) = delete;

  [[nodiscard]] storage::LocalStore& store() noexcept { return *store_; }
  [[nodiscard]] std::uint64_t used_bytes() const noexcept {
    return store_->used_bytes();
  }

  // Node crash: the RAM disk is volatile, its contents are gone.
  void crash() {
    crashed_ = true;
    store_->wipe();
  }
  void restart() { crashed_ = false; }

 private:
  sim::Task<net::RpcResponse> handle_read(
      std::shared_ptr<const AgentReadRequest>);

  net::RpcHub* hub_;
  net::NodeId node_;
  std::unique_ptr<storage::Device> device_;
  std::unique_ptr<storage::LocalStore> store_;
  bool crashed_ = false;
};

}  // namespace hpcbb::bb
