// Simulated KV (RDMA-Memcached-class) server: binds the memcached ports on
// its node, hosts a real KvStore, and models per-operation server cost.
// Values above the transport's RDMA threshold move by one-sided verbs ops,
// bypassing this server's CPU — the core mechanism behind the paper's burst
// buffer performance.
#pragma once

#include <cstdint>
#include <memory>

#include "common/metrics.h"
#include "common/units.h"
#include "kvstore/protocol.h"
#include "kvstore/store.h"
#include "net/rpc.h"
#include "storage/device.h"

namespace hpcbb::kv {

struct ServerParams {
  StoreParams store;
  // Base CPU per op (hash, LRU, bookkeeping).
  sim::SimTime base_op_ns = 500;
  // Copy bandwidth between network buffers and slab chunks. On the RDMA
  // path the HCA DMA-places payloads directly into registered item memory,
  // so no copy is charged.
  std::uint64_t memcpy_bytes_per_sec = 5 * GB;
  std::uint64_t rdma_threshold_bytes = 16 * KiB;
  // Burst-buffer deployments journal accepted writes to the server's local
  // SSD (the hybrid-Memcached design): SET throughput is then bounded by
  // the SSD, not the NIC — the reason the paper's write gain over Lustre is
  // ~1.5x while reads (pure RAM) gain up to 8x. Off for pure caches.
  bool persist_writes = false;
  storage::DeviceParams journal = storage::ssd_preset();
};

class Server {
 public:
  Server(net::RpcHub& hub, net::NodeId node, const ServerParams& params);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] net::NodeId node() const noexcept { return node_; }
  [[nodiscard]] KvStore& store() noexcept { return store_; }
  // Journal SSD, or nullptr when persist_writes is off. Exposed so fault
  // injectors can target it with limpware episodes.
  [[nodiscard]] storage::Device* journal_device() noexcept {
    return journal_.get();
  }

  // Crash: memory contents are lost, ports unbind — callers see
  // kUnavailable ("connection refused"), as for a dead process.
  void crash();
  // Restart empty: wipes contents and slab/pin accounting, rebinds the RPC
  // ports, bumps the incarnation and the kv.restarts counter.
  void restart();
  [[nodiscard]] bool is_crashed() const noexcept { return crashed_; }
  // Starts at 1; +1 per restart. Reported by kOpPing so monitors can detect
  // a restarted-empty server without comparing contents.
  [[nodiscard]] std::uint64_t incarnation() const noexcept {
    return incarnation_;
  }

 private:
  sim::Task<net::RpcResponse> handle_set(std::shared_ptr<const SetRequest>);
  sim::Task<net::RpcResponse> handle_get(std::shared_ptr<const GetRequest>);
  sim::Task<net::RpcResponse> handle_multi_get(
      std::shared_ptr<const MultiGetRequest>);
  sim::Task<net::RpcResponse> handle_erase(
      std::shared_ptr<const EraseRequest>);
  sim::Task<net::RpcResponse> handle_pin(std::shared_ptr<const PinRequest>);
  sim::Task<net::RpcResponse> handle_stats(
      std::shared_ptr<const StatsRequest>);
  sim::Task<net::RpcResponse> handle_ping(std::shared_ptr<const PingRequest>);

  void bind_all();
  void unbind_all();

  // Charge base op cost plus an optional payload copy on this node's CPU.
  sim::Task<void> charge_op(std::uint64_t copy_bytes);

  // Push store-level deltas (bytes held, evictions) into the simulation's
  // metric registry: global gauges/counters plus per-node labeled gauges.
  void update_store_metrics();

  net::RpcHub* hub_;
  net::NodeId node_;
  ServerParams params_;
  KvStore store_;
  std::unique_ptr<storage::Device> journal_;
  std::uint64_t journal_cursor_ = 0;
  std::uint64_t metered_bytes_ = 0;      // store bytes already in "kv.bytes"
  std::uint64_t metered_evictions_ = 0;  // evictions already counted
  std::uint64_t incarnation_ = 1;
  bool crashed_ = false;
  // Per-message metrics, resolved on first use.
  MetricHandle<Counter> hits_;
  MetricHandle<Counter> misses_;
  MetricHandle<Counter> get_bytes_;
  MetricHandle<Counter> put_bytes_;
  MetricHandle<Counter> evictions_;
  MetricHandle<Histogram> get_ns_;
  MetricHandle<Histogram> put_ns_;
  MetricHandle<Gauge> bytes_;       // all servers' bytes, moved by delta
  MetricHandle<Gauge> node_bytes_;  // this server's bytes
};

}  // namespace hpcbb::kv
