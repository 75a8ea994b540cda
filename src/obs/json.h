// Tiny JSON emission helpers shared by the hand-rolled report writers
// (report.cpp, attribution.cpp). Not a JSON library: just enough escaping
// and number formatting to keep machine-readable output well-formed.
#pragma once

#include <array>
#include <cstdio>
#include <string>

#include "common/metrics.h"
#include "common/strings.h"

namespace hpcbb::obs {

using hpcbb::json_escape;

inline std::string json_double(double value) {
  std::array<char, 32> buf{};
  std::snprintf(buf.data(), buf.size(), "%.6g", value);
  return buf.data();
}

inline std::string json_histogram(const HistogramSnapshot& h) {
  return "{\"count\":" + std::to_string(h.count) +
         ",\"sum\":" + std::to_string(h.sum) +
         ",\"min\":" + std::to_string(h.min) +
         ",\"max\":" + std::to_string(h.max) +
         ",\"mean\":" + json_double(h.mean) +
         ",\"p50\":" + std::to_string(h.p50) +
         ",\"p95\":" + std::to_string(h.p95) +
         ",\"p99\":" + std::to_string(h.p99) + "}";
}

}  // namespace hpcbb::obs
