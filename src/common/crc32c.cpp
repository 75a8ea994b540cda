#include "common/crc32c.h"

#include <array>
#include <cstring>

#include "common/crc32c_internal.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HPCBB_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace hpcbb {
namespace crc32c_detail {
namespace {

// Slicing-by-4 tables, generated at static-init time from the Castagnoli
// polynomial (reflected 0x82F63B78).
struct Tables {
  std::array<std::array<std::uint32_t, 256>, 4> t;

  Tables() noexcept {
    constexpr std::uint32_t kPoly = 0x82F63B78u;
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFFu];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFFu];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFFu];
    }
  }
};

const Tables& tables() noexcept {
  static const Tables kTables;
  return kTables;
}

#ifdef HPCBB_CRC32C_SSE42
// Multiplication by x^(8 * kStride) mod P on a raw (uninverted) CRC
// register: appending kStride zero bytes. The raw CRC is linear, so for a
// stream split as A || B with |B| = kStride,
//   raw(s, A || B) = shift(raw(s, A)) ^ raw(0, B),
// which is how the three hardware streams merge. The operator is linear in
// the register, so one table per register byte covers it.
struct StrideShift {
  std::array<std::array<std::uint32_t, 256>, 4> t;

  StrideShift() noexcept {
    const auto& t0 = tables().t[0];
    std::array<std::uint32_t, 32> basis{};
    for (int bit = 0; bit < 32; ++bit) {
      std::uint32_t crc = 1u << bit;
      for (std::size_t i = 0; i < kStride; ++i) {
        crc = (crc >> 8) ^ t0[crc & 0xFFu];
      }
      basis[static_cast<std::size_t>(bit)] = crc;
    }
    for (std::size_t k = 0; k < 4; ++k) {
      for (std::uint32_t b = 0; b < 256; ++b) {
        std::uint32_t v = 0;
        for (std::size_t j = 0; j < 8; ++j) {
          if ((b >> j) & 1u) v ^= basis[8 * k + j];
        }
        t[k][b] = v;
      }
    }
  }

  std::uint32_t operator()(std::uint32_t crc) const noexcept {
    return t[0][crc & 0xFFu] ^ t[1][(crc >> 8) & 0xFFu] ^
           t[2][(crc >> 16) & 0xFFu] ^ t[3][crc >> 24];
  }
};

const StrideShift& stride_shift() noexcept {
  static const StrideShift kShift;
  return kShift;
}

std::uint64_t load64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
#endif

}  // namespace

std::uint32_t crc32c_table(std::uint32_t crc, const void* data,
                           std::size_t n) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  const auto& t = tables().t;
  crc = ~crc;
  while (n >= 4) {
    crc ^= static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
    crc = t[3][crc & 0xFFu] ^ t[2][(crc >> 8) & 0xFFu] ^
          t[1][(crc >> 16) & 0xFFu] ^ t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFFu];
  }
  return ~crc;
}

#ifdef HPCBB_CRC32C_SSE42

bool crc32c_hw_supported() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

// The crc32 instruction has a 3-cycle latency but issues every cycle, so
// three independent streams keep it busy; one stream runs at a third of
// the rate.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(
    std::uint32_t crc, const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t c0 = ~crc;
  // Align so the word loads below never straddle a cache line.
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    c0 = _mm_crc32_u8(static_cast<std::uint32_t>(c0), *p++);
    --n;
  }
  if (n >= 3 * kStride) {
    const StrideShift& shift = stride_shift();
    do {
      std::uint64_t c1 = 0;
      std::uint64_t c2 = 0;
      for (const std::uint8_t* end = p + kStride; p < end; p += 8) {
        c0 = _mm_crc32_u64(c0, load64(p));
        c1 = _mm_crc32_u64(c1, load64(p + kStride));
        c2 = _mm_crc32_u64(c2, load64(p + 2 * kStride));
      }
      c0 = shift(static_cast<std::uint32_t>(c0)) ^ c1;
      c0 = shift(static_cast<std::uint32_t>(c0)) ^ c2;
      p += 2 * kStride;
      n -= 3 * kStride;
    } while (n >= 3 * kStride);
  }
  for (; n >= 8; n -= 8, p += 8) c0 = _mm_crc32_u64(c0, load64(p));
  for (; n > 0; --n) c0 = _mm_crc32_u8(static_cast<std::uint32_t>(c0), *p++);
  return ~static_cast<std::uint32_t>(c0);
}

#else

bool crc32c_hw_supported() noexcept { return false; }

std::uint32_t crc32c_hw(std::uint32_t crc, const void* data,
                        std::size_t n) noexcept {
  return crc32c_table(crc, data, n);
}

#endif

}  // namespace crc32c_detail

namespace {
thread_local std::uint64_t checksummed_bytes = 0;
}  // namespace

std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t n) noexcept {
  checksummed_bytes += n;
  using Fn = std::uint32_t (*)(std::uint32_t, const void*, std::size_t) noexcept;
  static const Fn kImpl = crc32c_detail::crc32c_hw_supported()
                              ? &crc32c_detail::crc32c_hw
                              : &crc32c_detail::crc32c_table;
  return kImpl(crc, data, n);
}

std::uint64_t crc32c_bytes() noexcept { return checksummed_bytes; }

}  // namespace hpcbb
