#include "net/fabric.h"

#include <algorithm>
#include <cassert>

namespace hpcbb::net {

Fabric::Fabric(sim::Simulation& sim, std::uint32_t node_count,
               const FabricParams& params)
    : sim_(&sim), params_(params), links_(node_count), racks_(rack_count()) {}

sim::Task<Status> Fabric::deliver(NodeId src, NodeId dst, std::uint64_t bytes,
                                  std::uint64_t flow_rate_cap) {
  assert(src < links_.size() && dst < links_.size());
  if (!links_[src].up || !links_[dst].up) {
    // Connection setup/teardown detection is not free.
    co_await sim_->delay(params_.hop_latency_ns);
    co_return error(StatusCode::kUnavailable,
                    links_[dst].up ? "source node down" : "peer node down");
  }

  if (fault_hook_) {
    const LinkFault fault = fault_hook_(src, dst, bytes);
    if (fault.extra_delay_ns > 0) co_await sim_->delay(fault.extra_delay_ns);
    if (fault.drop) {
      // The sender learns of the loss the way it would for a dead peer:
      // after the connection-probe latency, with a transient error.
      co_await sim_->delay(params_.hop_latency_ns);
      co_return error(StatusCode::kUnavailable,
                      "transient fault: message dropped");
    }
  }

  links_[src].bytes_sent += bytes;
  links_[dst].bytes_received += bytes;

  if (src == dst) {
    // FIFO serialization on the node's memory path: a small message
    // submitted after a large one must not overtake it, or same-connection
    // protocol streams (HDFS pipelines) would reorder.
    const sim::SimTime ser =
        transfer_time_ns(bytes, params_.loopback_bytes_per_sec);
    const sim::SimTime start = links_[src].loopback.reserve(sim_->now(), ser);
    co_await sim_->delay_until(start + ser + params_.loopback_latency_ns);
    co_return Status::ok();
  }

  const std::uint64_t rate =
      flow_rate_cap == 0
          ? params_.link_bytes_per_sec
          : std::min(params_.link_bytes_per_sec, flow_rate_cap);
  const sim::SimTime ser = transfer_time_ns(bytes, rate);
  const sim::SimTime start_up = links_[src].uplink.reserve(sim_->now(), ser);

  // Cut-through: the head of the message reaches the next hop one latency
  // after it starts leaving the previous one; the tail cannot arrive before
  // it left. Cross-rack traffic additionally serializes on the shared rack
  // uplink and downlink (oversubscription) and pays the spine latency.
  sim::SimTime head = start_up + params_.hop_latency_ns;
  sim::SimTime tail = start_up + ser + params_.hop_latency_ns;
  if (rack_of(src) != rack_of(dst)) {
    const sim::SimTime rack_ser =
        transfer_time_ns(bytes, params_.rack_uplink_bytes_per_sec);
    const sim::SimTime start_rack_up =
        racks_[rack_of(src)].uplink.reserve(head, rack_ser);
    const sim::SimTime start_rack_down = racks_[rack_of(dst)].downlink.reserve(
        start_rack_up + params_.spine_latency_ns, rack_ser);
    head = start_rack_down + params_.spine_latency_ns;
    tail = std::max(tail, start_rack_down + rack_ser +
                              params_.spine_latency_ns);
  }
  const sim::SimTime start_down = links_[dst].downlink.reserve(head, ser);
  co_await sim_->delay_until(std::max(start_down + ser, tail));
  co_return Status::ok();
}

void Fabric::set_node_up(NodeId node, bool up) {
  assert(node < links_.size());
  links_[node].up = up;
}

bool Fabric::is_up(NodeId node) const {
  assert(node < links_.size());
  return links_[node].up;
}

sim::Task<void> Fabric::charge_cpu(NodeId node, sim::SimTime work_ns) {
  assert(node < links_.size());
  co_await sim_->delay_until(links_[node].cpu.reserve(sim_->now(), work_ns) +
                             work_ns);
}

std::uint64_t Fabric::bytes_sent(NodeId node) const {
  return links_[node].bytes_sent;
}

std::uint64_t Fabric::bytes_received(NodeId node) const {
  return links_[node].bytes_received;
}

}  // namespace hpcbb::net
