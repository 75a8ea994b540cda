#include <algorithm>
#include <atomic>

#include "common/byte_pool.h"
#include "common/bytes.h"
#include "common/pattern_internal.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HPCBB_PATTERN_AVX512 1
#include <immintrin.h>
#endif

namespace hpcbb {
namespace pattern_detail {

void fill_scalar(std::uint64_t seed, std::uint64_t offset, std::uint8_t* dst,
                 std::size_t size) noexcept {
  std::uint64_t pos = offset / 8;
  std::size_t i = 0;
  if (const std::size_t head = offset % 8; head != 0 && size > 0) {
    i = std::min<std::size_t>(8 - head, size);
    store_le(dst, pattern_word(seed, pos++) >> (8 * head), i);
  }
  for (; size - i >= 8; i += 8) store_le(dst + i, pattern_word(seed, pos++));
  if (i < size) store_le(dst + i, pattern_word(seed, pos), size - i);
}

bool verify_scalar(std::uint64_t seed, std::uint64_t offset,
                   const std::uint8_t* data, std::size_t size) noexcept {
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
    if (load_le(data + i) != pattern_word(seed, pos++)) return false;
  }
  return bytes_match(pattern_word(seed, pos), size - i);
}

#ifdef HPCBB_PATTERN_AVX512

bool avx512_supported() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq");
}

namespace {

// pattern_word's position multiplier and SplitMix64::next's constants
// (common/rng.h).
constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kMix1 = 0xBF58476D1CE4E5B9ull;
constexpr std::uint64_t kMix2 = 0x94D049BB133111EBull;

// Eight words, one per lane; GCC and Clang lower its arithmetic to
// AVX-512 inside the functions below.
using Words = std::uint64_t __attribute__((vector_size(64)));

// Bytes before the first whole word of [offset, offset + size).
std::size_t head_bytes(std::uint64_t offset, std::size_t size) noexcept {
  return std::min<std::size_t>((8 - offset % 8) % 8, size);
}

// Words pos .. pos + 7 of a stream, eight lanes at a time. Each word is an
// independent mix of seed ^ pos * kGolden, so the lanes only carry that
// product, which advances by 8 * kGolden per block.
class Lanes {
 public:
  __attribute__((target("avx512f,avx512dq"))) Lanes(std::uint64_t seed,
                                                    std::uint64_t pos) noexcept
      : seed_(seed),
        scaled_((Words{0, 1, 2, 3, 4, 5, 6, 7} + pos) * kGolden) {}

  // The current block's words, lane i holding word pos + i; then advance.
  __attribute__((target("avx512f,avx512dq"))) __m512i next() noexcept {
    Words z = (seed_ ^ scaled_) + kGolden;
    z = (z ^ (z >> 30)) * kMix1;
    z = (z ^ (z >> 27)) * kMix2;
    scaled_ += 8 * kGolden;
    return reinterpret_cast<__m512i>(z ^ (z >> 31));
  }

 private:
  std::uint64_t seed_;
  Words scaled_;
};

}  // namespace

// Lanes store little-endian, the byte order store_le defines.
__attribute__((target("avx512f,avx512dq"))) void fill_avx512(
    std::uint64_t seed, std::uint64_t offset, std::uint8_t* dst,
    std::size_t size) noexcept {
  std::size_t i = head_bytes(offset, size);
  fill_scalar(seed, offset, dst, i);
  if (size - i >= kBlockBytes) {
    Lanes lanes(seed, (offset + i) / 8);
    for (; size - i >= kBlockBytes; i += kBlockBytes) {
      _mm512_storeu_si512(dst + i, lanes.next());
    }
    // GCC 12 leaves out the vzeroupper before the tail call below, and
    // dirty upper halves slow the SSE code that runs after it.
    _mm256_zeroupper();
  }
  fill_scalar(seed, offset + i, dst + i, size - i);
}

// A whole-word compare is exact, so a mismatching block fails the verify
// without a second, scalar look at it.
__attribute__((target("avx512f,avx512dq"))) bool verify_avx512(
    std::uint64_t seed, std::uint64_t offset, const std::uint8_t* data,
    std::size_t size) noexcept {
  std::size_t i = head_bytes(offset, size);
  if (!verify_scalar(seed, offset, data, i)) return false;
  if (size - i >= kBlockBytes) {
    Lanes lanes(seed, (offset + i) / 8);
    for (; size - i >= kBlockBytes; i += kBlockBytes) {
      if (_mm512_cmpneq_epu64_mask(_mm512_loadu_si512(data + i),
                                   lanes.next()) != 0) {
        return false;
      }
    }
    _mm256_zeroupper();
  }
  return verify_scalar(seed, offset + i, data + i, size - i);
}

#else

bool avx512_supported() noexcept { return false; }

void fill_avx512(std::uint64_t seed, std::uint64_t offset, std::uint8_t* dst,
                 std::size_t size) noexcept {
  fill_scalar(seed, offset, dst, size);
}

bool verify_avx512(std::uint64_t seed, std::uint64_t offset,
                   const std::uint8_t* data, std::size_t size) noexcept {
  return verify_scalar(seed, offset, data, size);
}

#endif

}  // namespace pattern_detail

namespace {

struct PatternKernels {
  void (*fill)(std::uint64_t, std::uint64_t, std::uint8_t*,
               std::size_t) noexcept;
  bool (*verify)(std::uint64_t, std::uint64_t, const std::uint8_t*,
                 std::size_t) noexcept;
};

const PatternKernels& kernels() noexcept {
  static const PatternKernels kKernels =
      pattern_detail::avx512_supported()
          ? PatternKernels{&pattern_detail::fill_avx512,
                           &pattern_detail::verify_avx512}
          : PatternKernels{&pattern_detail::fill_scalar,
                           &pattern_detail::verify_scalar};
  return kKernels;
}

}  // namespace

Bytes pattern_bytes(std::uint64_t seed, std::uint64_t offset,
                    std::size_t size) {
  Bytes out = split_zeroed(size);
  const auto fill = kernels().fill;
  if (size >= kSplitBytes) {
    auto part = [&](std::size_t, SplitRange range) noexcept {
      fill(seed, offset + range.begin, out.data() + range.begin, range.size());
    };
    if (split_run(size, part)) return out;
  }
  fill(seed, offset, out.data(), size);
  return out;
}

bool verify_pattern(std::uint64_t seed, std::uint64_t offset,
                    std::span<const std::uint8_t> data) {
  const auto verify = kernels().verify;
  if (data.size() >= kSplitBytes) {
    std::atomic<bool> match{true};
    auto part = [&](std::size_t, SplitRange range) noexcept {
      if (!match.load(std::memory_order_relaxed)) return;  // one part failed
      if (!verify(seed, offset + range.begin, data.data() + range.begin,
                  range.size())) {
        match.store(false, std::memory_order_relaxed);
      }
    };
    if (split_run(data.size(), part)) {
      return match.load(std::memory_order_relaxed);
    }
  }
  return verify(seed, offset, data.data(), data.size());
}

}  // namespace hpcbb
