// Lustre wire messages: MDS metadata ops and OSS object I/O.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "net/rpc.h"

namespace hpcbb::lustre {

inline constexpr net::Port kMdsPortBase = 988;   // LNET's well-known port
inline constexpr net::Port kOssPortBase = 1020;

inline constexpr net::Port kMdsCreate = kMdsPortBase;
inline constexpr net::Port kMdsLookup = kMdsPortBase + 1;
inline constexpr net::Port kMdsSetSize = kMdsPortBase + 2;
inline constexpr net::Port kMdsUnlink = kMdsPortBase + 3;
inline constexpr net::Port kMdsList = kMdsPortBase + 4;

inline constexpr net::Port kOssWrite = kOssPortBase;
inline constexpr net::Port kOssRead = kOssPortBase + 1;
inline constexpr net::Port kOssDelete = kOssPortBase + 2;

inline constexpr std::uint64_t kHeaderBytes = 64;

// One stripe target: an OST slot on an OSS node.
struct OstTarget {
  net::NodeId oss_node = 0;
  std::uint32_t ost_index = 0;
};

struct CreateRequest {
  std::string path;
  std::uint32_t stripe_count = 0;  // 0 = filesystem default
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + path.size();
  }
};

struct FileLayout {
  std::string path;
  std::uint64_t stripe_size = 0;
  std::uint64_t size = 0;
  std::vector<OstTarget> targets;  // stripe_count entries
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + path.size() + targets.size() * 8;
  }
};

struct LookupRequest {
  std::string path;
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + path.size();
  }
};

struct SetSizeRequest {
  std::string path;
  std::uint64_t size = 0;
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + path.size();
  }
};

struct UnlinkRequest {
  std::string path;
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + path.size();
  }
};

struct ListRequest {
  std::string prefix;
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + prefix.size();
  }
};

struct ListReply {
  std::vector<std::string> paths;
  [[nodiscard]] std::uint64_t wire_size() const {
    std::uint64_t total = kHeaderBytes;
    for (const auto& p : paths) total += p.size() + 4;
    return total;
  }
};

struct OssWriteRequest {
  std::uint32_t ost_index = 0;
  std::string object;  // object name (derived from the file path)
  std::uint64_t offset = 0;
  ByteSlice data;  // the stripe: a slice of the caller's buffer
  std::uint64_t op_id = 0;  // causal trace id; rides the header
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + object.size() + data.length;
  }
};

struct OssReadRequest {
  std::uint32_t ost_index = 0;
  std::string object;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t op_id = 0;  // causal trace id; rides the header
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + object.size();
  }
};

struct OssReadReply {
  std::vector<ByteSlice> data;  // the range, as the OST object's page slices
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + total_length(data);
  }
};

struct OssDeleteRequest {
  std::uint32_t ost_index = 0;
  std::string object;
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + object.size();
  }
};

}  // namespace hpcbb::lustre
