// Cluster fabric model: N nodes attached to a single non-blocking switch by
// full-duplex links. A message reserves FIFO serialization slots on the
// sender's uplink and the receiver's downlink (cut-through: serialization is
// counted once end-to-end on an idle path, but both links see contention).
//
// This reproduces the two network effects the paper's results hinge on:
//  * per-flow bandwidth and latency differ by transport (RDMA vs IPoIB ...),
//  * incast at hot receivers (burst-buffer servers, Lustre OSSs) queues.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace hpcbb::net {

using NodeId = std::uint32_t;

struct FabricParams {
  std::uint64_t link_bytes_per_sec = 6'000'000'000ull;  // IB FDR ~6 GB/s
  sim::SimTime hop_latency_ns = 700;     // wire + switch, one direction
  std::uint64_t loopback_bytes_per_sec = 12'000'000'000ull;  // memcpy speed
  sim::SimTime loopback_latency_ns = 300;

  // Two-level (leaf/spine) topology. 0 = flat single switch. With N > 0,
  // nodes [0,N) are rack 0, [N,2N) rack 1, ... Cross-rack traffic pays an
  // extra spine hop and shares the rack's uplink to the spine — the
  // oversubscription that makes rack-aware placement matter.
  std::uint32_t nodes_per_rack = 0;
  std::uint64_t rack_uplink_bytes_per_sec = 24'000'000'000ull;  // 4:1-ish
  sim::SimTime spine_latency_ns = 400;
};

// Verdict of the fault hook for one message: drop it (delivery fails with
// kUnavailable after the connection-probe latency, like a lost datagram) or
// stall it by an extra queueing delay before it enters the fabric.
struct LinkFault {
  bool drop = false;
  sim::SimTime extra_delay_ns = 0;
};

class Fabric {
 public:
  Fabric(sim::Simulation& sim, std::uint32_t node_count,
         const FabricParams& params);

  // Install a per-message fault hook (fault injection). Consulted once per
  // deliver() before any fabric state changes; null (the default) keeps the
  // healthy path untouched. Both transports share the fabric, so one hook
  // covers all RPC and bulk traffic.
  using FaultHook =
      std::function<LinkFault(NodeId src, NodeId dst, std::uint64_t bytes)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  [[nodiscard]] std::uint32_t node_count() const noexcept {
    return static_cast<std::uint32_t>(links_.size());
  }

  // Deliver `bytes` from src to dst; completes when the last byte arrives.
  // `flow_rate_cap` (0 = uncapped) models transports that cannot drive the
  // link at full rate (IPoIB, Ethernet). Fails kUnavailable if either node
  // is down at submission time.
  sim::Task<Status> deliver(NodeId src, NodeId dst, std::uint64_t bytes,
                            std::uint64_t flow_rate_cap = 0);

  void set_node_up(NodeId node, bool up);
  [[nodiscard]] bool is_up(NodeId node) const;

  // Rack of a node (always 0 on a flat fabric).
  [[nodiscard]] std::uint32_t rack_of(NodeId node) const noexcept {
    return params_.nodes_per_rack == 0 ? 0 : node / params_.nodes_per_rack;
  }
  [[nodiscard]] std::uint32_t rack_count() const noexcept {
    return params_.nodes_per_rack == 0
               ? 1
               : (node_count() + params_.nodes_per_rack - 1) /
                     params_.nodes_per_rack;
  }

  // Per-node CPU available for protocol processing: one core, which serves
  // `work_ns` of work in as many nanoseconds. Transports charge their
  // per-operation overhead here, which creates the op-rate ceiling that
  // separates kernel-bypass RDMA from socket stacks.
  sim::Task<void> charge_cpu(NodeId node, sim::SimTime work_ns);

  [[nodiscard]] std::uint64_t bytes_sent(NodeId node) const;
  [[nodiscard]] std::uint64_t bytes_received(NodeId node) const;

  [[nodiscard]] sim::Simulation& simulation() noexcept { return *sim_; }

 private:
  struct NodeLink {
    sim::ResourceQueue uplink;
    sim::ResourceQueue downlink;
    sim::ResourceQueue loopback;  // FIFO: local sends must not reorder
    sim::ResourceQueue cpu;       // protocol processing (charge_cpu)
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    bool up = true;
  };

  struct RackLink {
    sim::ResourceQueue uplink;    // rack -> spine
    sim::ResourceQueue downlink;  // spine -> rack
  };

  sim::Simulation* sim_;
  FabricParams params_;
  FaultHook fault_hook_;
  std::vector<NodeLink> links_;
  std::vector<RackLink> racks_;
};

}  // namespace hpcbb::net
