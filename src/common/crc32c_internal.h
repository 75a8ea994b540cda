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

// Portable slicing-by-4: the only path on CPUs without a CRC instruction,
// and the reference the hardware path is tested against.
std::uint32_t crc32c_table(std::uint32_t crc, const void* data,
                           std::size_t n) noexcept;

// True when this build and CPU can run crc32c_hw (x86-64 with SSE4.2).
bool crc32c_hw_supported() noexcept;

// SSE4.2 crc32 instruction path. Call only when crc32c_hw_supported().
std::uint32_t crc32c_hw(std::uint32_t crc, const void* data,
                        std::size_t n) noexcept;

}  // namespace hpcbb::crc32c_detail
