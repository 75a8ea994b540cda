// Transport models layered on the fabric.
//
// Two-sided messaging (Memcached sockets path, HDFS data transfers, RPC)
// charges protocol-stack CPU at BOTH ends. One-sided RDMA READ/WRITE — the
// verbs path the paper's RDMA-Memcached uses for large values — charges CPU
// only at the initiator; the target NIC serves the transfer without
// involving the remote CPU.
//
// The preset parameters are calibrated against published OSU microbenchmark
// shapes for IB FDR (see EXPERIMENTS.md): RDMA small-message latency is
// ~10x lower than IPoIB/10GigE and large-message bandwidth ~4-5x higher.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/metrics.h"
#include "common/status.h"
#include "net/fabric.h"
#include "sim/simulation.h"

namespace hpcbb::net {

enum class TransportKind {
  kRdma,    // native InfiniBand verbs
  kIpoib,   // IP-over-InfiniBand (sockets on the IB link)
  kTenGigE, // 10 Gigabit Ethernet
  kGigE,    // 1 Gigabit Ethernet
};

std::string_view to_string(TransportKind kind) noexcept;

struct TransportParams {
  TransportKind kind = TransportKind::kRdma;
  sim::SimTime msg_latency_ns = 1'000;   // stack traversal, both ends total
  std::uint64_t flow_rate_cap = 0;       // 0 = full link rate
  sim::SimTime send_overhead_ns = 300;   // sender CPU per operation
  sim::SimTime recv_overhead_ns = 300;   // receiver CPU per operation
  bool one_sided_capable = false;        // RDMA READ/WRITE available
};

// Calibrated presets (EXPERIMENTS.md, "Calibration").
TransportParams transport_preset(TransportKind kind) noexcept;

class Transport {
 public:
  Transport(Fabric& fabric, const TransportParams& params)
      : fabric_(&fabric),
        params_(params),
        tx_bytes_(fabric.simulation().metrics(), "net.tx_bytes"),
        msgs_(fabric.simulation().metrics(), "net.msgs"),
        rdma_read_bytes_(fabric.simulation().metrics(), "net.rdma_read_bytes"),
        rdma_write_bytes_(fabric.simulation().metrics(),
                          "net.rdma_write_bytes") {}

  [[nodiscard]] const TransportParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] Fabric& fabric() noexcept { return *fabric_; }

  // Two-sided message: sender CPU + fabric + receiver CPU + stack latency.
  sim::Task<Status> send(NodeId src, NodeId dst, std::uint64_t bytes);

  // One-sided RDMA READ: fetch `bytes` from remote memory. Initiator CPU
  // only; a small request descriptor crosses the wire first.
  sim::Task<Status> rdma_read(NodeId initiator, NodeId target,
                              std::uint64_t bytes);

  // One-sided RDMA WRITE: push `bytes` into remote memory. Initiator CPU
  // only.
  sim::Task<Status> rdma_write(NodeId initiator, NodeId target,
                               std::uint64_t bytes);

 private:
  Fabric* fabric_;
  TransportParams params_;
  MetricHandle<Counter> tx_bytes_;
  MetricHandle<Counter> msgs_;
  MetricHandle<Counter> rdma_read_bytes_;
  MetricHandle<Counter> rdma_write_bytes_;
};

}  // namespace hpcbb::net
