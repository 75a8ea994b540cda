// KV wire protocol messages. Bodies carry real payload bytes end-to-end
// (data fidelity); wire_size() is what the transport charges, and differs
// between the inline (two-sided) and RDMA (one-sided) paths exactly as in
// RDMA-Memcached: large values move by RDMA READ/WRITE and are therefore
// absent from the two-sided message size.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "net/rpc.h"

namespace hpcbb::kv {

inline constexpr net::Port kKvServerPort = 11211;  // of course

inline constexpr std::uint64_t kMsgHeaderBytes = 48;

struct SetRequest {
  std::string key;
  ByteSlice value;  // a slice of the writer's buffer
  bool pinned = false;
  std::uint64_t expiry_ns = 0;
  bool payload_by_rdma = false;  // payload already RDMA-WRITTEN by client
  std::uint64_t op_id = 0;       // causal trace id; rides the header
  // CRC32C of `value` from its writer, stored without rehashing; none: the
  // server hashes the value. Rides the header budget.
  std::optional<std::uint32_t> value_crc = std::nullopt;

  [[nodiscard]] std::uint64_t wire_size() const {
    return kMsgHeaderBytes + key.size() +
           (payload_by_rdma ? 0 : value.length);
  }
};

struct GetRequest {
  std::string key;
  std::uint64_t op_id = 0;  // causal trace id; rides the header

  [[nodiscard]] std::uint64_t wire_size() const {
    return kMsgHeaderBytes + key.size();
  }
};

struct GetReply {
  BytesPtr value;
  bool inline_payload = true;  // false: client fetches via RDMA READ
  // Fill-time CRC32C, which the server has checked against exactly the
  // bytes in `value`, and the pin state, which read-repair forwards so a
  // repaired dirty chunk stays eviction-proof. Both ride the existing header
  // budget — wire_size is unchanged, keeping healthy-run timing identical.
  std::uint32_t value_crc = 0;
  bool pinned = false;

  [[nodiscard]] std::uint64_t wire_size() const {
    return kMsgHeaderBytes + (inline_payload ? value->size() : 0);
  }
};

struct MultiGetRequest {
  std::vector<std::string> keys;

  [[nodiscard]] std::uint64_t wire_size() const {
    std::uint64_t total = kMsgHeaderBytes;
    for (const auto& k : keys) total += k.size() + 4;
    return total;
  }
};

struct MultiGetReply {
  // Each present value verified by the server; nullopt = miss or corrupt.
  std::vector<std::optional<BytesPtr>> values;

  [[nodiscard]] std::uint64_t wire_size() const {
    std::uint64_t total = kMsgHeaderBytes;
    for (const auto& v : values) total += 4 + (v ? (*v)->size() : 0);
    return total;
  }
};

struct EraseRequest {
  std::string key;

  [[nodiscard]] std::uint64_t wire_size() const {
    return kMsgHeaderBytes + key.size();
  }
};

struct PinRequest {
  std::string key;
  bool pinned = false;

  [[nodiscard]] std::uint64_t wire_size() const {
    return kMsgHeaderBytes + key.size();
  }
};

struct StatsRequest {
  [[nodiscard]] std::uint64_t wire_size() const { return kMsgHeaderBytes; }
};

// Liveness probe for failure detection. The reply's incarnation number is
// bumped on every restart, so a monitor can tell "still the server I knew"
// from "came back empty" without comparing contents.
struct PingRequest {
  [[nodiscard]] std::uint64_t wire_size() const { return kMsgHeaderBytes; }
};

struct PingReply {
  std::uint64_t incarnation = 0;

  [[nodiscard]] std::uint64_t wire_size() const { return kMsgHeaderBytes + 8; }
};

struct StatsReply {
  std::uint64_t items = 0;
  std::uint64_t bytes = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t set_failures = 0;

  [[nodiscard]] std::uint64_t wire_size() const { return kMsgHeaderBytes + 48; }
};

// Operation discriminator carried in the port: each op type gets its own
// sub-port so the RpcHub dispatches without a tag field.
inline constexpr net::Port kOpSet = kKvServerPort;
inline constexpr net::Port kOpGet = kKvServerPort + 1;
inline constexpr net::Port kOpMultiGet = kKvServerPort + 2;
inline constexpr net::Port kOpErase = kKvServerPort + 3;
inline constexpr net::Port kOpPin = kKvServerPort + 4;
inline constexpr net::Port kOpStats = kKvServerPort + 5;
inline constexpr net::Port kOpPing = kKvServerPort + 6;

}  // namespace hpcbb::kv
