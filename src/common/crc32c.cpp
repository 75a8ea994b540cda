#include "common/crc32c.h"

#include <array>
#include <cstring>

#include "common/byte_pool.h"
#include "common/crc32c_internal.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HPCBB_CRC32C_X86 1
#include <immintrin.h>
#endif

namespace hpcbb {
namespace crc32c_detail {
namespace {

// The Castagnoli polynomial P without its x^32 term, bit-reflected: bit j
// holds the coefficient of x^(31 - j).
constexpr std::uint32_t kPoly = 0x82F63B78u;

// Slicing-by-4 tables, generated at static-init time from the polynomial.
struct Tables {
  std::array<std::array<std::uint32_t, 256>, 4> t;

  Tables() noexcept {
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

// Bit-reflected x^n mod P.
constexpr std::uint32_t x_pow_mod_p(std::uint64_t n) noexcept {
  std::uint32_t v = 0x80000000u;  // x^0
  for (; n > 0; --n) v = (v >> 1) ^ ((v & 1u) ? kPoly : 0u);
  return v;
}

// a times b mod P, both bit-reflected: b times each power of x in a,
// lowest (bit 31) first.
constexpr std::uint32_t multiply_mod_p(std::uint32_t a,
                                       std::uint32_t b) noexcept {
  std::uint32_t product = 0;
  for (std::uint32_t bit = 0x80000000u; bit != 0; bit >>= 1) {
    if ((a & bit) != 0) product ^= b;
    b = (b >> 1) ^ ((b & 1u) ? kPoly : 0u);  // b times x
  }
  return product;
}

// Bit-reflected x^(8n) mod P, by squaring: multiplying a CRC by it appends
// n zero bytes. n below 2^61, as every buffer length is.
std::uint32_t x_pow_8n_mod_p(std::uint64_t n) noexcept {
  static const std::array<std::uint32_t, 64> kSquares = [] {
    std::array<std::uint32_t, 64> squares{};  // x^(2^k) mod P
    squares[0] = x_pow_mod_p(1);
    for (std::size_t k = 1; k < squares.size(); ++k) {
      squares[k] = multiply_mod_p(squares[k - 1], squares[k - 1]);
    }
    return squares;
  }();
  std::uint32_t v = x_pow_mod_p(0);
  for (std::size_t k = 3; n != 0; n >>= 1, ++k) {
    if ((n & 1u) != 0) v = multiply_mod_p(v, kSquares[k]);
  }
  return v;
}

// A 128-bit lane of the folding path holds 16 message bytes, its low 64
// bits the earlier (higher-degree) half. vpclmulqdq multiplies a reflected
// 64-bit half by a reflected 32-bit constant and leaves the product times
// x^33 in the lane's form, so moving the lane D bytes forward (times
// x^(8D)) takes x^(8D + 64 - 33) for the low half and x^(8D - 33) for the
// high half.
constexpr FoldConstants fold_by(std::size_t distance) noexcept {
  return {x_pow_mod_p(8 * distance + 31), x_pow_mod_p(8 * distance - 33)};
}

#ifdef HPCBB_CRC32C_X86
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

// Each 128-bit lane of `x` moved forward by the distance its lane of `k`
// was built for (low qword: FoldConstants::low, high qword: ::high),
// XORed into `next`.
__attribute__((target("avx512f,vpclmulqdq"))) __m512i fold(
    __m512i x, __m512i k, __m512i next) noexcept {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                   _mm512_clmulepi64_epi128(x, k, 0x11), next,
                                   0x96);
}

__attribute__((target("avx512f"))) __m512i fold_by_all_lanes(
    FoldConstants k) noexcept {
  return _mm512_set_epi64(k.high, k.low, k.high, k.low, k.high, k.low, k.high,
                          k.low);
}

// 128-bit lane kLane of `v`. The zero-masking extract, because GCC 12's
// unmasked one (and _mm512_castsi512_si128) reads an undefined register
// that -Wmaybe-uninitialized flags.
template <int kLane>
__attribute__((target("avx512f"))) __m128i lane(__m512i v) noexcept {
  return _mm512_maskz_extracti32x4_epi32(0xF, v, kLane);
}
#endif

}  // namespace

FoldConstants fold_constants(std::size_t distance) noexcept {
  return fold_by(distance);
}

std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::size_t length_b) noexcept {
  return multiply_mod_p(crc_a, x_pow_8n_mod_p(length_b)) ^ crc_b;
}

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

#ifdef HPCBB_CRC32C_X86

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

// __builtin_cpu_supports reports AVX-512 features only when the OS saves
// the ZMM registers (XCR0), so a true answer means the kernel can run.
bool crc32c_fold_supported() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("vpclmulqdq") &&
         __builtin_cpu_supports("sse4.2");
}

// Four 512-bit accumulators hold the last kFoldBlock bytes; each step
// folds them kFoldBlock bytes forward onto the next block. The remaining
// 256 bytes fold down to one 128-bit lane, whose CRC from a zero register
// two crc32 instructions compute; the tail continues on crc32c_hw.
__attribute__((target("avx512f,avx512vl,vpclmulqdq,sse4.2")))
std::uint32_t crc32c_fold(std::uint32_t crc, const void* data,
                          std::size_t n) noexcept {
  if (n < kFoldBlock) return crc32c_hw(crc, data, n);
  const auto* p = static_cast<const std::uint8_t*>(data);
  // A raw register s over a message M equals a zero register over M with
  // s XORed into its first four bytes.
  __m512i x0 = _mm512_xor_si512(
      _mm512_loadu_si512(p),
      _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(~crc))));
  __m512i x1 = _mm512_loadu_si512(p + 64);
  __m512i x2 = _mm512_loadu_si512(p + 128);
  __m512i x3 = _mm512_loadu_si512(p + 192);
  p += kFoldBlock;
  n -= kFoldBlock;
  constexpr FoldConstants kByBlock = fold_by(kFoldBlock);
  constexpr FoldConstants kBy64 = fold_by(64);
  constexpr FoldConstants kBy48 = fold_by(48);
  constexpr FoldConstants kBy32 = fold_by(32);
  constexpr FoldConstants kBy16 = fold_by(16);
  const __m512i by_block = fold_by_all_lanes(kByBlock);
  for (; n >= kFoldBlock; p += kFoldBlock, n -= kFoldBlock) {
    x0 = fold(x0, by_block, _mm512_loadu_si512(p));
    x1 = fold(x1, by_block, _mm512_loadu_si512(p + 64));
    x2 = fold(x2, by_block, _mm512_loadu_si512(p + 128));
    x3 = fold(x3, by_block, _mm512_loadu_si512(p + 192));
  }
  const __m512i by_64 = fold_by_all_lanes(kBy64);
  x3 = fold(fold(fold(x0, by_64, x1), by_64, x2), by_64, x3);
  // Lanes 0-2 of x3 lie 48, 32 and 16 bytes before lane 3; a zero
  // multiplier drops lane 3 from the products, and the mask adds it back.
  const __m512i to_last = _mm512_set_epi64(0, 0, kBy16.high, kBy16.low,
                                           kBy32.high, kBy32.low, kBy48.high,
                                           kBy48.low);
  const __m512i lanes = fold(x3, to_last, _mm512_maskz_mov_epi64(0xC0, x3));
  const __m128i last = _mm_ternarylogic_epi64(
      lane<0>(lanes), lane<1>(lanes),
      _mm_xor_si128(lane<2>(lanes), lane<3>(lanes)), 0x96);
  std::uint64_t c = _mm_crc32_u64(
      0, static_cast<std::uint64_t>(_mm_cvtsi128_si64(last)));
  c = _mm_crc32_u64(c, static_cast<std::uint64_t>(_mm_extract_epi64(last, 1)));
  return crc32c_hw(~static_cast<std::uint32_t>(c), p, n);
}

#else

bool crc32c_hw_supported() noexcept { return false; }

std::uint32_t crc32c_hw(std::uint32_t crc, const void* data,
                        std::size_t n) noexcept {
  return crc32c_table(crc, data, n);
}

bool crc32c_fold_supported() noexcept { return false; }

std::uint32_t crc32c_fold(std::uint32_t crc, const void* data,
                          std::size_t n) noexcept {
  return crc32c_table(crc, data, n);
}

#endif

}  // namespace crc32c_detail

namespace {

thread_local std::uint64_t checksummed_bytes = 0;

using Crc32cFn = std::uint32_t (*)(std::uint32_t, const void*,
                                   std::size_t) noexcept;

Crc32cFn serial_crc32c() noexcept {
  static const Crc32cFn kImpl = crc32c_detail::crc32c_fold_supported()
                                    ? &crc32c_detail::crc32c_fold
                                : crc32c_detail::crc32c_hw_supported()
                                    ? &crc32c_detail::crc32c_hw
                                    : &crc32c_detail::crc32c_table;
  return kImpl;
}

// `crc` extended over data[0, n) by the byte pool: part 0 from `crc`, the
// others from 0, combined in order. False, with `crc` untouched, when the
// pool cannot take the call.
bool split_crc32c(std::uint32_t& crc, const std::uint8_t* data,
                  std::size_t n) noexcept {
  std::array<std::uint32_t, kMaxSplitParts> crcs{};
  const Crc32cFn serial = serial_crc32c();
  auto part = [&](std::size_t i, SplitRange range) noexcept {
    crcs[i] = serial(i == 0 ? crc : 0, data + range.begin, range.size());
  };
  if (!split_run(n, part)) return false;
  static_assert(kSplitCrcBytes >= 2 * kSplitPartBytes, "at least two parts");
  const std::size_t parts = split_parts(n);
  // Every part but the last has the first one's length.
  const std::size_t length = split_range(n, parts, 0).size();
  const std::uint32_t shift = crc32c_detail::x_pow_8n_mod_p(length);
  std::uint32_t out = crcs[0];
  for (std::size_t i = 1; i + 1 < parts; ++i) {
    out = crc32c_detail::multiply_mod_p(out, shift) ^ crcs[i];
  }
  crc = crc32c_detail::crc32c_combine(
      out, crcs[parts - 1], split_range(n, parts, parts - 1).size());
  return true;
}

}  // namespace

std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t n) noexcept {
  checksummed_bytes += n;
  if (n >= kSplitCrcBytes &&
      split_crc32c(crc, static_cast<const std::uint8_t*>(data), n)) {
    return crc;
  }
  return serial_crc32c()(crc, data, n);
}

std::uint64_t crc32c_bytes() noexcept { return checksummed_bytes; }

}  // namespace hpcbb
