// KV client: consistent-hash sharding across servers, with the hybrid
// transport protocol of RDMA-Memcached — two-sided messages for small
// values and control, one-sided RDMA READ/WRITE for large payloads.
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/units.h"
#include "kvstore/protocol.h"
#include "kvstore/ring.h"
#include "net/rpc.h"

namespace hpcbb::kv {

// When does a replicated set() acknowledge?  kPrimary acks as soon as the
// first replica accepts the write and completes the remaining copies in the
// background; kAll waits for every replica write to finish before returning
// (data is on every live replica at ack time).
enum class AckMode { kPrimary, kAll };

struct ClientParams {
  std::uint64_t rdma_threshold_bytes = 16 * KiB;
  // Ring failover: when the owner of a key is unreachable, set()/get() walk
  // successive ring servers until one answers or the ring is exhausted
  // (get() also on miss, since data written during an outage lives on the
  // failover owners). Off by default: healthy runs must not pay an extra
  // round trip for every true miss.
  bool failover = false;
  // Replication factor R: writes fan out to the first R distinct successors
  // of the key on the ring; reads fall through the same list. 1 (default)
  // keeps the unreplicated fast path.
  std::uint32_t replication_factor = 1;
  AckMode ack = AckMode::kPrimary;
};

class Client {
 public:
  Client(net::RpcHub& hub, net::NodeId self,
         std::vector<net::NodeId> servers, const ClientParams& params = {});

  // Store a value under `key` on its ring owner. `value_crc`, when given,
  // must be the CRC32C of `value`: the server stores it instead of hashing
  // the value, and a wrong one turns the next get() of the key into
  // kDataLoss. `value` may be a slice of a larger buffer; it ships as is,
  // uncopied. Like every call here, it runs under the caller's current op.
  sim::Task<Status> set(std::string key, ByteSlice value,
                        bool pinned = false, std::uint64_t expiry_ns = 0,
                        std::optional<std::uint32_t> value_crc = std::nullopt);
  sim::Task<Status> set(std::string key, BytesPtr value,
                        bool pinned = false, std::uint64_t expiry_ns = 0,
                        std::optional<std::uint32_t> value_crc = std::nullopt) {
    return set(std::move(key), whole(std::move(value)), pinned, expiry_ns,
               value_crc);
  }

  // The value as a buffer of its own: the SET's buffer itself when the
  // stored slice covers it whole, else a copy of the slice. get_from() and
  // multi_get() return values the same way.
  sim::Task<Result<BytesPtr>> get(std::string key);

  // set()/get() under the stored op `op`, as inside sim::OpScope(sim, op).
  // Only the perfbench KV loop still calls these.
  template <std::same_as<std::uint64_t> Op>
  sim::Task<Status> set(std::string key, BytesPtr value, bool pinned,
                        std::uint64_t expiry_ns, Op op) {
    sim::OpScope scope(hub_->transport().fabric().simulation(), op);
    co_return co_await set(std::move(key), std::move(value), pinned,
                           expiry_ns);
  }
  sim::Task<Result<BytesPtr>> get(std::string key, std::uint64_t op) {
    sim::OpScope scope(hub_->transport().fabric().simulation(), op);
    co_return co_await get(std::move(key));
  }

  // get() with the whole reply: `value`, the stored slice, uncopied, beside
  // `value_crc`, the item CRC the server checked against exactly those
  // bytes before shipping them. A caller holding the writer's CRC of the
  // value compares the two instead of hashing the bytes again.
  sim::Task<Result<std::shared_ptr<const GetReply>>> get_verified(
      std::string key);

  // Batched get from one round trip per involved server.
  sim::Task<Result<std::vector<std::optional<BytesPtr>>>> multi_get(
      std::vector<std::string> keys);

  sim::Task<Status> erase(std::string key);
  sim::Task<Status> pin(std::string key, bool pinned);
  sim::Task<Result<StatsReply>> server_stats(std::uint32_t server_index);

  // Liveness probe for failure detectors. Never retried at the RPC layer —
  // a probe that needs retries is exactly the signal the detector wants.
  sim::Task<Result<PingReply>> ping(net::NodeId server);

  [[nodiscard]] net::NodeId server_for(const std::string& key) const {
    return servers_[ring_.server_for(key)];
  }
  // Server indices of the key's R replicas, primary first.
  [[nodiscard]] std::vector<std::uint32_t> replica_indices(
      const std::string& key) const {
    return ring_.successors(key, params_.replication_factor);
  }
  [[nodiscard]] const HashRing& ring() const noexcept { return ring_; }
  [[nodiscard]] const std::vector<net::NodeId>& servers() const noexcept {
    return servers_;
  }
  [[nodiscard]] net::NodeId self() const noexcept { return self_; }

  // Store a value on an explicit server (replica placement by upper layers).
  sim::Task<Status> set_on(net::NodeId server, std::string key,
                           ByteSlice value, bool pinned,
                           std::uint64_t expiry_ns = 0,
                           std::optional<std::uint32_t> value_crc =
                               std::nullopt);
  sim::Task<Status> set_on(net::NodeId server, std::string key,
                           BytesPtr value, bool pinned,
                           std::uint64_t expiry_ns = 0) {
    return set_on(server, std::move(key), whole(std::move(value)), pinned,
                  expiry_ns);
  }
  sim::Task<Result<BytesPtr>> get_from(net::NodeId server, std::string key);
  sim::Task<Status> erase_on(net::NodeId server, std::string key);
  sim::Task<Status> pin_on(net::NodeId server, std::string key,
                           bool pinned);

 private:
  // One server round trip. The server checks the slice it ships against the
  // item CRC (a mismatch is kDataLoss); the slice is immutable from there
  // on, so the client does not hash it again.
  sim::Task<Result<std::shared_ptr<const GetReply>>> fetch_from(
      net::NodeId server, std::string key);
  [[nodiscard]] bool use_rdma(std::uint64_t bytes) const noexcept;
  // Replication factor and walk depth clamped to the actual server count.
  [[nodiscard]] std::uint32_t effective_factor() const noexcept;
  [[nodiscard]] std::uint32_t walk_limit() const noexcept;

  net::RpcHub* hub_;
  net::NodeId self_;
  std::vector<net::NodeId> servers_;
  HashRing ring_;
  ClientParams params_;
};

}  // namespace hpcbb::kv
