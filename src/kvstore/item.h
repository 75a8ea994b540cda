// In-chunk item layout: header followed by key bytes then value bytes,
// placed inside a slab chunk (memcached's layout). Items are linked into
// a per-class LRU list and a hash chain.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

namespace hpcbb::kv {

struct Item {
  Item* lru_prev = nullptr;
  Item* lru_next = nullptr;
  Item* hash_next = nullptr;
  std::uint64_t key_hash = 0;
  std::uint64_t expiry_ns = 0;  // absolute; 0 = never expires
  std::uint32_t key_len = 0;
  std::uint32_t value_len = 0;
  std::uint32_t value_crc = 0;  // CRC32C of the value bytes, set at fill()
  std::uint16_t slab_class = 0;
  bool pinned = false;  // pinned items are skipped by eviction

  [[nodiscard]] static std::uint64_t footprint(std::uint64_t key_len,
                                               std::uint64_t value_len) noexcept {
    return sizeof(Item) + key_len + value_len;
  }

  [[nodiscard]] char* data() noexcept {
    return reinterpret_cast<char*>(this) + sizeof(Item);
  }
  [[nodiscard]] const char* data() const noexcept {
    return reinterpret_cast<const char*>(this) + sizeof(Item);
  }

  [[nodiscard]] std::string_view key() const noexcept {
    return {data(), key_len};
  }
  [[nodiscard]] std::span<const std::uint8_t> value() const noexcept {
    return {reinterpret_cast<const std::uint8_t*>(data()) + key_len,
            value_len};
  }

  // Mutable view for in-place corruption injection (tests/chaos only).
  [[nodiscard]] std::span<std::uint8_t> mutable_value() noexcept {
    return {reinterpret_cast<std::uint8_t*>(data()) + key_len, value_len};
  }

  // Copies key and value in; `crc` is the value's CRC32C, stored as given
  // (a wrong one is caught by the next verified read).
  void fill(std::string_view key, std::span<const std::uint8_t> value,
            std::uint32_t crc) noexcept {
    key_len = static_cast<std::uint32_t>(key.size());
    value_len = static_cast<std::uint32_t>(value.size());
    value_crc = crc;
    std::memcpy(data(), key.data(), key.size());
    // An empty span may carry a null pointer, which memcpy must not see.
    if (!value.empty()) {
      std::memcpy(data() + key.size(), value.data(), value.size());
    }
  }
};

static_assert(alignof(Item) <= 16, "items must fit 16-byte-aligned chunks");

}  // namespace hpcbb::kv
