#include "common/strings.h"

#include <array>
#include <charconv>
#include <cstdio>

namespace hpcbb {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::string_view trim(std::string_view s) noexcept {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

namespace {
std::string format_scaled(double value, const char* const* units,
                          std::size_t n_units, double base) {
  std::size_t u = 0;
  while (value >= base && u + 1 < n_units) {
    value /= base;
    ++u;
  }
  std::array<char, 32> buf{};
  std::snprintf(buf.data(), buf.size(), value < 10 ? "%.2f %s" : "%.1f %s",
                value, units[u]);
  return buf.data();
}
}  // namespace

std::string format_bytes(std::uint64_t bytes) {
  static const char* const kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  return format_scaled(static_cast<double>(bytes), kUnits, 5, 1024.0);
}

std::string format_duration_ns(std::uint64_t t_ns) {
  static const char* const kUnits[] = {"ns", "us", "ms", "s"};
  return format_scaled(static_cast<double>(t_ns), kUnits, 4, 1000.0);
}

std::optional<std::uint64_t> parse_duration_ns(std::string_view s) {
  s = trim(s);
  double scale = 1.0;
  const auto ends_with = [&s](std::string_view suffix) {
    return s.size() >= suffix.size() &&
           s.substr(s.size() - suffix.size()) == suffix;
  };
  if (ends_with("ns")) {
    s.remove_suffix(2);
  } else if (ends_with("us")) {
    scale = 1e3;
    s.remove_suffix(2);
  } else if (ends_with("ms")) {
    scale = 1e6;
    s.remove_suffix(2);
  } else if (ends_with("s")) {
    scale = 1e9;
    s.remove_suffix(1);
  }
  s = trim(s);
  if (s.empty()) return std::nullopt;
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  // The range check also rejects nan and inf, which from_chars accepts.
  const double ns = value * scale + 0.5;
  if (ec != std::errc() || ptr != s.data() + s.size() ||
      !(value >= 0.0 && ns < 0x1p64)) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(ns);
}

}  // namespace hpcbb
