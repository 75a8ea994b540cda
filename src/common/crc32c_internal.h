// CRC32C implementation paths behind hpcbb::crc32c, exposed so tests can
// compare them against each other. Production code calls hpcbb::crc32c,
// which picks the fastest path the CPU supports once, from CPUID.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hpcbb::crc32c_detail {

// The hardware path runs three independent CRC streams over consecutive
// kStride-byte strides and merges them; inputs shorter than 3 * kStride
// take a single stream.
inline constexpr std::size_t kStride = 1024;

// The folding path carries kFoldBlock bytes in four 512-bit accumulators;
// inputs shorter than that, and the tail after the last whole block, take
// the hardware path.
inline constexpr std::size_t kFoldBlock = 256;

// Portable slicing-by-4: the only path on CPUs without a CRC instruction,
// and the reference the hardware paths are tested against.
std::uint32_t crc32c_table(std::uint32_t crc, const void* data,
                           std::size_t n) noexcept;

// True when this build and CPU can run crc32c_hw (x86-64 with SSE4.2).
bool crc32c_hw_supported() noexcept;

// SSE4.2 crc32 instruction path. Call only when crc32c_hw_supported().
std::uint32_t crc32c_hw(std::uint32_t crc, const void* data,
                        std::size_t n) noexcept;

// Multipliers that move a 128-bit lane of the folding path `distance`
// bytes forward: bit-reflected x^(8D+31) mod P for the lane's low 64 bits
// and x^(8D-33) mod P for its high 64 bits, derived from the polynomial.
struct FoldConstants {
  std::uint32_t low;
  std::uint32_t high;
};
FoldConstants fold_constants(std::size_t distance) noexcept;

// crc32c(c, A || B) from crc_a = crc32c(c, A) and crc_b = crc32c(0, B):
// crc_a times x^(8 * length_b) mod P, XOR crc_b. A call that the byte pool
// splits (common/byte_pool.h) joins its parts' CRCs this way.
std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::size_t length_b) noexcept;

// True when this build and CPU can run crc32c_fold (x86-64 with AVX-512F,
// AVX-512VL, VPCLMULQDQ and SSE4.2).
bool crc32c_fold_supported() noexcept;

// Carry-less-multiply folding path (vpclmulqdq). Call only when
// crc32c_fold_supported().
std::uint32_t crc32c_fold(std::uint32_t crc, const void* data,
                          std::size_t n) noexcept;

}  // namespace hpcbb::crc32c_detail
