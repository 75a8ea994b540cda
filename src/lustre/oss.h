// Lustre object storage server: hosts several OSTs whose objects share the
// OSS's disk array bandwidth — the shared-contention behaviour that lets a
// RAM burst buffer beat even a fast parallel file system under bursts.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/metrics.h"
#include "lustre/protocol.h"
#include "net/rpc.h"
#include "storage/local_store.h"

namespace hpcbb::lustre {

struct OssParams {
  std::uint32_t ost_count = 2;
  std::uint64_t read_bytes_per_sec = 1'000 * MB;   // disk array, all OSTs
  std::uint64_t write_bytes_per_sec = 800 * MB;
  sim::SimTime seek_ns = 1'200 * duration::us;     // RAID elevator-assisted
  std::uint64_t capacity_bytes = 40 * TiB;
};

class Oss {
 public:
  Oss(net::RpcHub& hub, net::NodeId node, const OssParams& params);
  ~Oss();

  Oss(const Oss&) = delete;
  Oss& operator=(const Oss&) = delete;

  [[nodiscard]] net::NodeId node() const noexcept { return node_; }
  [[nodiscard]] std::uint64_t used_bytes() const noexcept {
    return device_->used_bytes();
  }
  [[nodiscard]] storage::Device& device() noexcept { return *device_; }

 private:
  sim::Task<net::RpcResponse> handle_write(
      std::shared_ptr<const OssWriteRequest>);
  sim::Task<net::RpcResponse> handle_read(
      std::shared_ptr<const OssReadRequest>);
  sim::Task<net::RpcResponse> handle_delete(
      std::shared_ptr<const OssDeleteRequest>);

  [[nodiscard]] std::string object_key(std::uint32_t ost_index,
                                       const std::string& object) const;

  net::RpcHub* hub_;
  net::NodeId node_;
  OssParams params_;
  std::unique_ptr<storage::Device> device_;
  std::unique_ptr<storage::LocalStore> store_;
  MetricHandle<Gauge> queue_depth_;
  MetricHandle<Histogram> write_ns_;
  MetricHandle<Histogram> read_ns_;
  MetricHandle<Counter> write_bytes_;
  MetricHandle<Counter> read_bytes_;
};

}  // namespace hpcbb::lustre
