#include "sim/trace.h"

#include <map>

#include "common/strings.h"

namespace hpcbb::sim {

std::string TraceRecorder::to_chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceSpan& span : spans_) {
    const SimTime end = span.end_ns == kOpenSentinel ? sim_->now() : span.end_ns;
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + json_escape(span.name) + "\",\"cat\":\"" +
           json_escape(span.category) + "\",\"ph\":\"X\",\"ts\":" +
           std::to_string(span.begin_ns / 1000) + ",\"dur\":" +
           std::to_string((end - span.begin_ns) / 1000) +
           ",\"pid\":0,\"tid\":" + std::to_string(span.track);
    if (span.op_id != 0) {
      out += ",\"args\":{\"op_id\":" + std::to_string(span.op_id) + "}";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::string TraceRecorder::summary() const {
  struct Agg {
    std::uint64_t count = 0;
    SimTime total_ns = 0;
  };
  std::map<std::pair<std::string, std::string>, Agg> by_key;
  for (const TraceSpan& span : spans_) {
    const SimTime end = span.end_ns == kOpenSentinel ? sim_->now() : span.end_ns;
    // Aggregate by name prefix up to the first '.': "flush.block_7" and
    // "flush.block_9" fold together.
    const std::size_t dot = span.name.find('.');
    const std::string prefix =
        dot == std::string::npos ? span.name : span.name.substr(0, dot);
    Agg& agg = by_key[{span.category, prefix}];
    ++agg.count;
    agg.total_ns += end - span.begin_ns;
  }
  std::string out = "category\tname\tcount\ttotal_ns\n";
  for (const auto& [key, agg] : by_key) {
    out += key.first + "\t" + key.second + "\t" + std::to_string(agg.count) +
           "\t" + std::to_string(agg.total_ns) + "\n";
  }
  return out;
}

}  // namespace hpcbb::sim
