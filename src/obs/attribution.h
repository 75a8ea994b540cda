// Latency attribution: per-operation critical-path breakdown.
//
// The tracing layer tags every span of one logical operation (a block's
// journey client -> flowctl admission -> KV stores -> flusher -> Lustre)
// with a shared op_id. A SpanAccountant consumes those spans as they close
// (via TraceRecorder's span sink) and answers the question aggregates
// cannot: where did *this* slow write spend its time, and was it queueing
// or being served?
//
// Model. For each op, the covered interval [min begin, max end] is cut at
// every span boundary; each elementary segment is attributed to the
// innermost span covering it (latest begin; ties: earliest end, then the
// later-opened span). Instants covered by no span are attributed to the
// pseudo-layer "idle" (handoffs between actors — e.g. a reply sitting in a
// channel). Because the segments partition the interval exactly, the
// per-layer sums always equal the op's end-to-end latency.
//
// Layers come from span categories, except category "bb", which covers both
// ends of the pipeline and is split by span name into "client" (write.*/
// read.*) and "flusher" (flush.*, wait.flush_queue). A segment counts as
// queueing when its innermost span is a wait ("wait.*" or the flowctl
// credit-wait "flowctl.stall"); everything else is service time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/trace.h"

namespace hpcbb::obs {

// One layer's share of one op's end-to-end time.
struct LayerSlice {
  std::string layer;
  sim::SimTime total_ns = 0;
  sim::SimTime queue_ns = 0;    // waits: credit stalls, queue dwell, idle
  sim::SimTime service_ns = 0;  // total - queue
};

// Critical-path breakdown of a single operation.
struct OpAttribution {
  std::uint64_t op_id = 0;
  sim::SimTime begin_ns = 0;
  sim::SimTime end_ns = 0;
  std::vector<LayerSlice> layers;  // sorted by layer name; sums to e2e_ns()
  std::string bottleneck;          // layer with the largest total_ns
  std::size_t span_count = 0;

  [[nodiscard]] sim::SimTime e2e_ns() const noexcept {
    return end_ns - begin_ns;
  }
};

class SpanAccountant {
 public:
  explicit SpanAccountant(std::size_t top_k = 5) : top_k_(top_k) {}

  // Maps a span to its attribution layer (category, with "bb" split into
  // "client" and "flusher" by name). Exposed for tests and tooling.
  [[nodiscard]] static std::string layer_of(const sim::TraceSpan& span);
  // True when time under this span is queueing rather than service.
  [[nodiscard]] static bool is_queue(const sim::TraceSpan& span);

  // Ingest one closed span. Open spans and spans without an op_id are
  // ignored. This is the TraceRecorder sink:
  //   recorder.set_span_sink([&](const sim::TraceSpan& s) {
  //     accountant.on_span_close(s); });
  void on_span_close(const sim::TraceSpan& span);

  // Bulk-ingest every closed op-tagged span already in a recorder, for
  // consumers that attach after the fact.
  void ingest(const sim::TraceRecorder& recorder);

  [[nodiscard]] std::size_t op_count() const noexcept { return by_op_.size(); }

  // Breakdown of one op (op_id must have at least one ingested span).
  [[nodiscard]] OpAttribution attribute(std::uint64_t op_id) const;
  // All ops, ascending op_id.
  [[nodiscard]] std::vector<OpAttribution> attribute_all() const;
  // The k slowest ops by end-to-end latency, descending; ties broken by
  // ascending op_id so the ranking is deterministic.
  [[nodiscard]] std::vector<OpAttribution> slowest(std::size_t k) const;

  // The "attribution" report section: per-layer aggregates (ops touched,
  // total/queue/service sums, bottleneck counts, per-op total and queue
  // histograms) plus the top_k slowest ops with their full span chains.
  [[nodiscard]] std::string to_json() const;

 private:
  std::size_t top_k_;
  std::map<std::uint64_t, std::vector<sim::TraceSpan>> by_op_;
};

}  // namespace hpcbb::obs
