// Small string utilities used by path handling and config parsing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hpcbb {

std::vector<std::string> split(std::string_view s, char sep);

std::string_view trim(std::string_view s) noexcept;

bool starts_with(std::string_view s, std::string_view prefix) noexcept;

// JSON string-body escaping for the hand-rolled report and trace writers:
// names are internal identifiers, but a stray quote or backslash must not
// corrupt the output.
std::string json_escape(std::string_view s);

// FNV-1a, used for key -> shard hashing and path -> pattern seeds.
constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// "1.50 GB/s"-style human formatting for reports.
std::string format_bytes(std::uint64_t bytes);
std::string format_duration_ns(std::uint64_t t_ns);

// Inverse of format_duration_ns for config values: "100ms", "5us", "2s",
// "250ns", or a plain number (nanoseconds). Fractions ("1.5ms") are fine.
// Returns nullopt on malformed, negative, non-finite or out-of-range input.
std::optional<std::uint64_t> parse_duration_ns(std::string_view s);

}  // namespace hpcbb
