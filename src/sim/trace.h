// Span tracing for simulated operations. Components record named spans
// (begin/end in simulated time, with a category and node); the recorder
// exports Chrome-trace JSON (chrome://tracing, Perfetto) so a slow
// experiment can be inspected visually — which device queue backed up,
// where a flush stalled, how the pipeline overlapped.
//
// Tracing is opt-in and zero-cost when no recorder is attached.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/simulation.h"

namespace hpcbb::sim {

// end_ns of a span that has not finished yet. A real span may legitimately
// end at simulated time 0, so "0 == open" would make it unclosable; ~0 can
// never be a valid end time (the sim would have to run for 584 years).
inline constexpr SimTime kOpenSentinel = ~SimTime{0};

struct TraceSpan {
  std::string name;      // "dfsio.write.file_3", "flush.block", ...
  std::string category;  // "hdfs", "kv", "lustre", "bb", "mapred", ...
  std::uint32_t track = 0;  // usually the node id; becomes the trace row
  SimTime begin_ns = 0;
  SimTime end_ns = kOpenSentinel;
  // Causal operation id: spans from one logical operation (a block's journey
  // client -> kv -> flusher -> Lustre) share an op_id; 0 = unattributed.
  std::uint64_t op_id = 0;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(Simulation& sim) noexcept : sim_(&sim) {}

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Opens a span; finish it via the returned index. Spans may nest and
  // interleave freely (they are closed by index, not by a stack).
  std::size_t begin(std::string name, std::string category,
                    std::uint32_t track, std::uint64_t op_id = 0) {
    spans_.push_back(TraceSpan{std::move(name), std::move(category), track,
                               sim_->now(), kOpenSentinel, op_id});
    return spans_.size() - 1;
  }

  void end(std::size_t index) {
    if (index < spans_.size() && spans_[index].end_ns == kOpenSentinel) {
      spans_[index].end_ns = sim_->now();
      if (span_sink_) span_sink_(spans_[index]);
    }
  }

  // Records an already-measured span.
  void record(std::string name, std::string category, std::uint32_t track,
              SimTime begin_ns, SimTime end_ns, std::uint64_t op_id = 0) {
    spans_.push_back(TraceSpan{std::move(name), std::move(category), track,
                               begin_ns, end_ns, op_id});
    if (span_sink_ && end_ns != kOpenSentinel) span_sink_(spans_.back());
  }

  // Optional sink invoked each time a span closes (end() of an open span, or
  // record() of a pre-measured one). Lets incremental consumers — e.g. the
  // obs::SpanAccountant latency-attribution engine — ingest spans as they
  // close instead of rescanning spans(). The reference is only valid for the
  // duration of the call.
  void set_span_sink(std::function<void(const TraceSpan&)> sink) {
    span_sink_ = std::move(sink);
  }

  [[nodiscard]] const std::vector<TraceSpan>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::size_t open_span_count() const noexcept {
    std::size_t open = 0;
    for (const auto& span : spans_) open += span.end_ns == kOpenSentinel;
    return open;
  }

  // Chrome-trace JSON ("traceEvents" array of X events, microsecond
  // timestamps). Unfinished spans are clamped to now.
  [[nodiscard]] std::string to_chrome_json() const;

  // Tab-separated summary: per (category, name-prefix) count and total
  // simulated time — a quick profile without a viewer.
  [[nodiscard]] std::string summary() const;

  void clear() { spans_.clear(); }

 private:
  Simulation* sim_;
  std::vector<TraceSpan> spans_;
  std::function<void(const TraceSpan&)> span_sink_;
};

// RAII span named prefix + subject ("get." + key): closes on scope exit.
// Null recorder => no-op, and the name is never built.
class [[nodiscard]] ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* recorder, std::string_view prefix,
             std::string_view subject, std::string_view category,
             std::uint32_t track, std::uint64_t op_id = 0)
      : recorder_(recorder) {
    if (recorder_ != nullptr) {
      index_ = recorder_->begin(std::string(prefix).append(subject),
                                std::string(category), track, op_id);
    }
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceRecorder* recorder_;
  std::size_t index_ = 0;
};

}  // namespace hpcbb::sim
