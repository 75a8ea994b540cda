// HDFS wire messages: NameNode metadata ops and DataNode block I/O.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "net/rpc.h"

namespace hpcbb::hdfs {

inline constexpr net::Port kNnPortBase = 8020;
inline constexpr net::Port kDnPortBase = 50010;

inline constexpr net::Port kNnCreate = kNnPortBase;
inline constexpr net::Port kNnAddBlock = kNnPortBase + 1;
inline constexpr net::Port kNnCompleteBlock = kNnPortBase + 2;
inline constexpr net::Port kNnClose = kNnPortBase + 3;
inline constexpr net::Port kNnLocations = kNnPortBase + 4;
inline constexpr net::Port kNnDelete = kNnPortBase + 5;
inline constexpr net::Port kNnList = kNnPortBase + 6;

inline constexpr net::Port kDnWritePacket = kDnPortBase;
inline constexpr net::Port kDnRead = kDnPortBase + 1;
inline constexpr net::Port kDnDeleteBlock = kDnPortBase + 2;
inline constexpr net::Port kDnReplicate = kDnPortBase + 3;
inline constexpr net::Port kDnPing = kDnPortBase + 4;

inline constexpr std::uint64_t kHeaderBytes = 64;

using BlockId = std::uint64_t;

struct NnCreateRequest {
  std::string path;
  std::uint32_t replication = 0;  // 0 = default
  std::uint64_t block_size = 0;   // 0 = default
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + path.size();
  }
};

struct NnAddBlockRequest {
  std::string path;
  net::NodeId writer = 0;
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + path.size();
  }
};

struct BlockAssignment {
  BlockId block_id = 0;
  std::vector<net::NodeId> pipeline;  // replication targets, in write order
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + pipeline.size() * 4;
  }
};

struct NnCompleteBlockRequest {
  std::string path;
  BlockId block_id = 0;
  std::uint64_t size = 0;
  std::uint32_t crc32c = 0;
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + path.size();
  }
};

struct NnCloseRequest {
  std::string path;
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + path.size();
  }
};

struct NnLocationsRequest {
  std::string path;
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + path.size();
  }
};

struct BlockLocation {
  BlockId block_id = 0;
  std::uint64_t size = 0;
  std::uint32_t crc32c = 0;
  std::vector<net::NodeId> nodes;
};

struct NnLocationsReply {
  std::uint64_t file_size = 0;
  std::uint64_t block_size = 0;
  std::uint32_t replication = 0;
  std::vector<BlockLocation> blocks;
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + blocks.size() * 24;
  }
};

struct NnDeleteRequest {
  std::string path;
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + path.size();
  }
};

struct NnListRequest {
  std::string prefix;
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + prefix.size();
  }
};

struct NnListReply {
  std::vector<std::string> paths;
  [[nodiscard]] std::uint64_t wire_size() const {
    std::uint64_t total = kHeaderBytes;
    for (const auto& p : paths) total += p.size() + 4;
    return total;
  }
};

// One pipeline packet: written locally by the receiving DataNode and
// forwarded to `downstream` (HDFS chained replication). Packets are
// position-addressed (offset within the block), so delivery order can never
// corrupt block contents.
struct DnWritePacketRequest {
  BlockId block_id = 0;
  std::uint64_t offset = 0;
  BytesPtr data;
  std::vector<net::NodeId> downstream;
  std::uint64_t op_id = 0;  // causal trace id; rides the header
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + data->size();
  }
};

struct DnReadRequest {
  BlockId block_id = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t op_id = 0;  // causal trace id; rides the header
  [[nodiscard]] std::uint64_t wire_size() const { return kHeaderBytes; }
};

struct DnReadReply {
  std::vector<ByteSlice> data;  // the range, as the replica's page slices
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + total_length(data);
  }
};

struct DnDeleteBlockRequest {
  BlockId block_id = 0;
  [[nodiscard]] std::uint64_t wire_size() const { return kHeaderBytes; }
};

// Re-replication: the receiving DataNode streams its copy of the block to
// `target`.
struct DnReplicateRequest {
  BlockId block_id = 0;
  net::NodeId target = 0;
  [[nodiscard]] std::uint64_t wire_size() const { return kHeaderBytes; }
};

// Liveness probe (the NameNode's heartbeat monitor; real HDFS inverts the
// direction, but the failure-detection semantics are identical).
struct DnPingRequest {
  [[nodiscard]] std::uint64_t wire_size() const { return kHeaderBytes; }
};

}  // namespace hpcbb::hdfs
