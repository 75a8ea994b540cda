// Fixed-size record format for the Sort/Grep workloads (TeraSort-style:
// 10-byte key + 90-byte payload = 100-byte records), with deterministic
// generation and order-independent integrity checksums.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>

#include "common/bytes.h"
#include "common/rng.h"

namespace hpcbb::mapred {

inline constexpr std::uint64_t kRecordSize = 100;
inline constexpr std::uint64_t kKeySize = 10;

// `count` records with uniformly random keys, deterministic in `seed`.
inline Bytes generate_records(std::uint64_t seed, std::uint64_t count) {
  Bytes out(count * kRecordSize);
  Rng rng(seed);
  for (std::uint64_t r = 0; r < count; ++r) {
    std::uint8_t* rec = out.data() + r * kRecordSize;
    // Whole words, then the low bytes of one more word: the loop bounds
    // are constants, so every store has a fixed size.
    static_assert(kKeySize % 8 != 0 && (kRecordSize - kKeySize) % 8 != 0);
    std::uint64_t k = 0;
    for (; k + 8 <= kKeySize; k += 8) store_le(rec + k, rng.next());
    store_le(rec + k, rng.next(), kKeySize - k);
    // Payload derives from the key so corruption is detectable.
    SplitMix64 payload(seed ^ r);
    std::uint64_t p = kKeySize;
    for (; p + 8 <= kRecordSize; p += 8) store_le(rec + p, payload.next());
    store_le(rec + p, payload.next(), kRecordSize - p);
  }
  return out;
}

inline int compare_keys(const std::uint8_t* a, const std::uint8_t* b) noexcept {
  return std::memcmp(a, b, kKeySize);
}

// True if the record stream is sorted by key.
inline bool records_sorted(std::span<const std::uint8_t> data) {
  if (data.size() % kRecordSize != 0) return false;
  const std::uint64_t count = data.size() / kRecordSize;
  for (std::uint64_t r = 1; r < count; ++r) {
    if (compare_keys(data.data() + (r - 1) * kRecordSize,
                     data.data() + r * kRecordSize) > 0) {
      return false;
    }
  }
  return true;
}

// Order-independent content checksum: equal multisets of records give equal
// sums, so "sorted output == permuted input" is checkable without holding
// both datasets. Each record hashes as a chain of bijections over its 12
// little-endian words and 4-byte tail, so changing any one record changes
// its hash, and with it the sum.
inline std::uint64_t records_checksum(std::span<const std::uint8_t> data) {
  const auto mix = [](std::uint64_t h) {
    h *= 0x9E3779B97F4A7C15ull;
    return h ^ (h >> 29);
  };
  static_assert(kRecordSize % 8 == 4);
  std::uint64_t sum = 0;
  for (std::uint64_t off = 0; off + kRecordSize <= data.size();
       off += kRecordSize) {
    const std::uint8_t* rec = data.data() + off;
    std::uint64_t h = 0;
    std::uint64_t w = 0;
    for (; w + 8 <= kRecordSize; w += 8) h = mix(h ^ load_le(rec + w));
    sum += mix(h ^ load_le(rec + w, kRecordSize - w));
  }
  return sum;
}

// Range partition by the first two key bytes (uniform keys => balanced).
inline std::uint32_t partition_of(const std::uint8_t* key,
                                  std::uint32_t partitions) noexcept {
  const std::uint32_t prefix =
      (static_cast<std::uint32_t>(key[0]) << 8) | key[1];
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(prefix) * partitions) >> 16);
}

}  // namespace hpcbb::mapred
