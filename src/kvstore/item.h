// A stored item: a heap-allocated header and key beside the value, which
// is a slice of the sender's immutable buffer (the SET's payload, kept by
// reference as RDMA-Memcached's hybrid transport keeps registered
// buffers). Items are linked into a per-class LRU list and a hash chain.
// The slab models memcached's in-chunk layout only in its accounting: an
// item occupies one chunk of the class its footprint() fits.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"

namespace hpcbb::kv {

struct Item {
  Item* lru_prev = nullptr;
  Item* lru_next = nullptr;
  Item* hash_next = nullptr;
  std::uint64_t key_hash = 0;
  std::uint64_t expiry_ns = 0;  // absolute; 0 = never expires
  std::uint32_t value_crc = 0;  // CRC32C of the value bytes, set at SET
  std::uint16_t slab_class = 0;
  bool pinned = false;  // pinned items are skipped by eviction
  std::string key;
  // Pins the sender's whole buffer, not only these bytes, until the item
  // is freed or its value replaced.
  ByteSlice value;

  // The modeled size of memcached's in-chunk item header (LRU and hash
  // links, hash, expiry, lengths, CRC, class and pin bit). Slab class
  // choice, and so eviction, depend on it: it stays fixed whatever the
  // host layout of this struct.
  static constexpr std::uint64_t kHeaderBytes = 56;

  [[nodiscard]] static std::uint64_t footprint(std::uint64_t key_len,
                                               std::uint64_t value_len) noexcept {
    return kHeaderBytes + key_len + value_len;
  }

  // Key plus value: the payload bytes the store's stats count.
  [[nodiscard]] std::uint64_t payload() const noexcept {
    return key.size() + value.length;
  }
};

}  // namespace hpcbb::kv
