#include "net/transport.h"

namespace hpcbb::net {

std::string_view to_string(TransportKind kind) noexcept {
  switch (kind) {
    case TransportKind::kRdma: return "RDMA";
    case TransportKind::kIpoib: return "IPoIB";
    case TransportKind::kTenGigE: return "10GigE";
    case TransportKind::kGigE: return "1GigE";
  }
  return "?";
}

TransportParams transport_preset(TransportKind kind) noexcept {
  using namespace duration;  // NOLINT
  switch (kind) {
    case TransportKind::kRdma:
      return {.kind = kind,
              .msg_latency_ns = 1 * us,            // ~1.7 us end-to-end small msg
              .flow_rate_cap = 6'000 * MB,         // IB FDR effective
              .send_overhead_ns = 300,
              .recv_overhead_ns = 300,
              .one_sided_capable = true};
    case TransportKind::kIpoib:
      return {.kind = kind,
              .msg_latency_ns = 14 * us,
              .flow_rate_cap = 1'500 * MB,         // IPoIB typically ~25% of verbs
              .send_overhead_ns = 4 * us,
              .recv_overhead_ns = 4 * us,
              .one_sided_capable = false};
    case TransportKind::kTenGigE:
      return {.kind = kind,
              .msg_latency_ns = 35 * us,
              .flow_rate_cap = 1'150 * MB,
              .send_overhead_ns = 5 * us,
              .recv_overhead_ns = 5 * us,
              .one_sided_capable = false};
    case TransportKind::kGigE:
      return {.kind = kind,
              .msg_latency_ns = 55 * us,
              .flow_rate_cap = 118 * MB,
              .send_overhead_ns = 6 * us,
              .recv_overhead_ns = 6 * us,
              .one_sided_capable = false};
  }
  return {};
}

sim::Task<Status> Transport::send(NodeId src, NodeId dst,
                                  std::uint64_t bytes) {
  tx_bytes_->add(bytes);
  msgs_->add();
  co_await fabric_->charge_cpu(src, params_.send_overhead_ns);
  Status st = co_await fabric_->deliver(src, dst, bytes, params_.flow_rate_cap);
  if (!st.is_ok()) co_return st;
  co_await fabric_->charge_cpu(dst, params_.recv_overhead_ns);
  co_await fabric_->simulation().delay(params_.msg_latency_ns);
  co_return Status::ok();
}

sim::Task<Status> Transport::rdma_read(NodeId initiator, NodeId target,
                                       std::uint64_t bytes) {
  if (!params_.one_sided_capable) {
    co_return error(StatusCode::kFailedPrecondition,
                    "transport has no one-sided support");
  }
  rdma_read_bytes_->add(bytes);
  co_await fabric_->charge_cpu(initiator, params_.send_overhead_ns);
  // Read descriptor to the target NIC...
  Status st = co_await fabric_->deliver(initiator, target, 64,
                                        params_.flow_rate_cap);
  if (!st.is_ok()) co_return st;
  // ...and the data back, served by the target HCA without its CPU.
  st = co_await fabric_->deliver(target, initiator, bytes,
                                 params_.flow_rate_cap);
  if (!st.is_ok()) co_return st;
  co_await fabric_->simulation().delay(params_.msg_latency_ns);
  co_return Status::ok();
}

sim::Task<Status> Transport::rdma_write(NodeId initiator, NodeId target,
                                        std::uint64_t bytes) {
  if (!params_.one_sided_capable) {
    co_return error(StatusCode::kFailedPrecondition,
                    "transport has no one-sided support");
  }
  rdma_write_bytes_->add(bytes);
  co_await fabric_->charge_cpu(initiator, params_.send_overhead_ns);
  Status st = co_await fabric_->deliver(initiator, target, bytes,
                                        params_.flow_rate_cap);
  if (!st.is_ok()) co_return st;
  co_await fabric_->simulation().delay(params_.msg_latency_ns);
  co_return Status::ok();
}

}  // namespace hpcbb::net
