// CRC32C (Castagnoli). HDFS checksums every data chunk; we do the same so
// corruption or replica-mixup bugs surface as checksum failures in tests
// rather than hiding behind timing-only modeling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace hpcbb {

// Extend `crc` (use 0 for a fresh checksum) over `data`. Runs the CPU's
// CRC32C instruction where it has one (chosen once, from CPUID); the value
// is the same on every path.
std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t n) noexcept;

inline std::uint32_t crc32c(std::span<const std::uint8_t> data) noexcept {
  return crc32c(0, data.data(), data.size());
}

inline std::uint32_t crc32c(std::string_view data) noexcept {
  return crc32c(0, data.data(), data.size());
}

}  // namespace hpcbb
