// Byte-buffer helpers. Blocks and KV values carry real bytes end-to-end so
// integrity bugs are caught by content checks, not inferred from timing.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"

namespace hpcbb {

using Bytes = std::vector<std::uint8_t>;
// Payloads travel through the simulated network by shared_ptr: one in-host
// copy regardless of how many simulated hops or replicas reference it.
using BytesPtr = std::shared_ptr<const Bytes>;

inline BytesPtr make_bytes(Bytes b) {
  return std::make_shared<const Bytes>(std::move(b));
}

// [offset, offset + length) of a shared payload. A hop that forwards part
// of a buffer passes a slice of it rather than copying the part out.
struct ByteSlice {
  BytesPtr bytes;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;

  [[nodiscard]] std::span<const std::uint8_t> span() const noexcept {
    return {bytes->data() + offset, static_cast<std::size_t>(length)};
  }
};

// The whole of `bytes`, as a slice.
inline ByteSlice whole(BytesPtr bytes) {
  const std::uint64_t size = bytes->size();
  return ByteSlice{std::move(bytes), 0, size};
}

// The bytes of `slice` as a buffer of their own: the slice's buffer itself
// when the slice covers it whole, else a copy of the slice.
inline BytesPtr share_or_copy(const ByteSlice& slice) {
  if (slice.offset == 0 && slice.length == slice.bytes->size()) {
    return slice.bytes;
  }
  const auto bytes = slice.span();
  return make_bytes(Bytes(bytes.begin(), bytes.end()));
}

// The length of `pieces` laid back to back.
inline std::uint64_t total_length(std::span<const ByteSlice> pieces) noexcept {
  std::uint64_t total = 0;
  for (const ByteSlice& piece : pieces) total += piece.length;
  return total;
}

// Bytes [from, from + length) of `pieces` laid back to back, copied once
// into a buffer of their own.
inline Bytes gather(std::span<const ByteSlice> pieces, std::uint64_t from,
                    std::uint64_t length) {
  Bytes out;
  out.reserve(length);
  for (const ByteSlice& piece : pieces) {
    if (out.size() == length) break;
    if (from >= piece.length) {
      from -= piece.length;
      continue;
    }
    const auto part = piece.span().subspan(from);
    const std::uint64_t take =
        std::min<std::uint64_t>(part.size(), length - out.size());
    out.insert(out.end(), part.begin(),
               part.begin() + static_cast<std::ptrdiff_t>(take));
    from = 0;
  }
  return out;
}

inline Bytes gather(std::span<const ByteSlice> pieces) {
  return gather(pieces, 0, total_length(pieces));
}

// Little-endian word stores and loads of the low `n` bytes (n <= 8): the
// byte order every generator below defines, as one memcpy on the hosts that
// share it.
inline void store_le(std::uint8_t* dst, std::uint64_t word,
                     std::size_t n = 8) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, &word, n);
  } else {
    for (std::size_t b = 0; b < n; ++b) {
      dst[b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
}

inline std::uint64_t load_le(const std::uint8_t* src,
                             std::size_t n = 8) noexcept {
  std::uint64_t word = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&word, src, n);
  } else {
    for (std::size_t b = 0; b < n; ++b) {
      word |= static_cast<std::uint64_t>(src[b]) << (8 * b);
    }
  }
  return word;
}

// Content is a function of absolute 8-byte-aligned position, so any slice
// of a file can be independently generated and verified.
inline std::uint64_t pattern_word(std::uint64_t seed,
                                  std::uint64_t pos) noexcept {
  return SplitMix64(seed ^ (pos * 0x9E3779B97F4A7C15ull)).next();
}

// Deterministic content for (seed, offset, size): two writers producing the
// "same" region produce identical bytes, and a reader can verify any slice
// without storing the original. seed typically hashes the file path.
inline Bytes pattern_bytes(std::uint64_t seed, std::uint64_t offset,
                           std::size_t size) {
  Bytes out(size);
  std::uint8_t* dst = out.data();
  std::uint64_t pos = offset / 8;
  std::size_t i = 0;
  if (const std::size_t head = offset % 8; head != 0 && size > 0) {
    i = std::min<std::size_t>(8 - head, size);
    store_le(dst, pattern_word(seed, pos++) >> (8 * head), i);
  }
  for (; size - i >= 8; i += 8) store_le(dst + i, pattern_word(seed, pos++));
  if (i < size) store_le(dst + i, pattern_word(seed, pos), size - i);
  return out;
}

// Verify that `data`, purportedly the slice [offset, offset+size) of the
// stream generated by `seed`, has the expected content.
inline bool verify_pattern(std::uint64_t seed, std::uint64_t offset,
                           std::span<const std::uint8_t> data) {
  const std::size_t size = data.size();
  std::uint64_t pos = offset / 8;
  std::size_t i = 0;
  // Head and tail compare byte by byte against the word they belong to.
  const auto bytes_match = [&](std::uint64_t word, std::size_t n) {
    for (std::size_t b = 0; b < n; ++b, ++i) {
      if (data[i] != static_cast<std::uint8_t>(word >> (8 * b))) return false;
    }
    return true;
  };
  if (const std::size_t head = offset % 8; head != 0 && size > 0) {
    if (!bytes_match(pattern_word(seed, pos++) >> (8 * head),
                     std::min<std::size_t>(8 - head, size))) {
      return false;
    }
  }
  for (; size - i >= 8; i += 8) {
    if (load_le(data.data() + i) != pattern_word(seed, pos++)) return false;
  }
  return bytes_match(pattern_word(seed, pos), size - i);
}

}  // namespace hpcbb
