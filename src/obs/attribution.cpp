#include "obs/attribution.h"

#include <algorithm>
#include <string_view>

#include "common/metrics.h"
#include "common/strings.h"
#include "obs/json.h"

namespace hpcbb::obs {

namespace {

void append_layers(std::string& out, const std::vector<LayerSlice>& layers) {
  out += '[';
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const LayerSlice& slice = layers[i];
    if (i != 0) out += ',';
    out += "{\"layer\":\"" + json_escape(slice.layer) +
           "\",\"total_ns\":" + std::to_string(slice.total_ns) +
           ",\"queue_ns\":" + std::to_string(slice.queue_ns) +
           ",\"service_ns\":" + std::to_string(slice.service_ns) + "}";
  }
  out += ']';
}

}  // namespace

std::string SpanAccountant::layer_of(const sim::TraceSpan& span) {
  if (span.category == "bb") {
    // "bb" spans cover both ends of the burst-buffer pipeline: the client's
    // write/read spans and the master's flush pipeline.
    if (starts_with(span.name, "flush.") ||
        starts_with(span.name, "wait.flush")) {
      return "flusher";
    }
    return "client";
  }
  return span.category;
}

bool SpanAccountant::is_queue(const sim::TraceSpan& span) {
  return starts_with(span.name, "wait.") ||
         starts_with(span.name, "flowctl.stall");
}

void SpanAccountant::on_span_close(const sim::TraceSpan& span) {
  if (span.op_id == 0 || span.end_ns == sim::kOpenSentinel) return;
  by_op_[span.op_id].push_back(span);
}

void SpanAccountant::ingest(const sim::TraceRecorder& recorder) {
  for (const sim::TraceSpan& span : recorder.spans()) on_span_close(span);
}

OpAttribution SpanAccountant::attribute(std::uint64_t op_id) const {
  OpAttribution op;
  op.op_id = op_id;
  const auto it = by_op_.find(op_id);
  if (it == by_op_.end()) return op;
  const std::vector<sim::TraceSpan>& spans = it->second;
  op.span_count = spans.size();

  op.begin_ns = spans.front().begin_ns;
  op.end_ns = spans.front().end_ns;
  std::vector<sim::SimTime> cuts;
  cuts.reserve(spans.size() * 2);
  for (const sim::TraceSpan& span : spans) {
    op.begin_ns = std::min(op.begin_ns, span.begin_ns);
    op.end_ns = std::max(op.end_ns, span.end_ns);
    cuts.push_back(span.begin_ns);
    cuts.push_back(span.end_ns);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  // Partition [begin, end] at every span boundary and hand each elementary
  // segment to the innermost covering span. The partition is exact, so the
  // per-layer sums below always add up to e2e_ns().
  std::map<std::string, LayerSlice> acc;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const sim::SimTime a = cuts[i];
    const sim::SimTime b = cuts[i + 1];
    const sim::TraceSpan* inner = nullptr;
    for (const sim::TraceSpan& span : spans) {
      if (span.begin_ns > a || span.end_ns < b) continue;
      // Innermost: latest begin, then earliest end, then the span opened
      // later (higher ingestion index) — deterministic under exact ties.
      if (inner == nullptr || span.begin_ns > inner->begin_ns ||
          (span.begin_ns == inner->begin_ns && span.end_ns <= inner->end_ns)) {
        inner = &span;
      }
    }
    const std::string layer = inner != nullptr ? layer_of(*inner) : "idle";
    const bool queue = inner != nullptr ? is_queue(*inner) : true;
    LayerSlice& slice = acc[layer];
    slice.layer = layer;
    slice.total_ns += b - a;
    (queue ? slice.queue_ns : slice.service_ns) += b - a;
  }

  op.layers.reserve(acc.size());
  sim::SimTime bottleneck_ns = 0;
  for (auto& [layer, slice] : acc) {
    // Strictly-greater over the name-sorted map: ties keep the
    // lexicographically first layer, so the verdict is deterministic.
    if (op.bottleneck.empty() || slice.total_ns > bottleneck_ns) {
      op.bottleneck = layer;
      bottleneck_ns = slice.total_ns;
    }
    op.layers.push_back(std::move(slice));
  }
  return op;
}

std::vector<OpAttribution> SpanAccountant::attribute_all() const {
  std::vector<OpAttribution> ops;
  ops.reserve(by_op_.size());
  for (const auto& [op_id, spans] : by_op_) ops.push_back(attribute(op_id));
  return ops;
}

std::vector<OpAttribution> SpanAccountant::slowest(std::size_t k) const {
  std::vector<OpAttribution> ops = attribute_all();
  std::sort(ops.begin(), ops.end(),
            [](const OpAttribution& lhs, const OpAttribution& rhs) {
              if (lhs.e2e_ns() != rhs.e2e_ns()) {
                return lhs.e2e_ns() > rhs.e2e_ns();
              }
              return lhs.op_id < rhs.op_id;
            });
  if (ops.size() > k) ops.resize(k);
  return ops;
}

std::string SpanAccountant::to_json() const {
  // Per-layer aggregates across all ops.
  struct LayerAgg {
    std::uint64_t ops = 0;
    std::uint64_t bottleneck_ops = 0;
    sim::SimTime total_ns = 0;
    sim::SimTime queue_ns = 0;
    sim::SimTime service_ns = 0;
    Histogram total_hist;  // per-op total_ns in this layer
    Histogram queue_hist;  // per-op queue_ns in this layer
  };
  std::map<std::string, LayerAgg> layers;
  const std::vector<OpAttribution> ops = attribute_all();
  for (const OpAttribution& op : ops) {
    for (const LayerSlice& slice : op.layers) {
      LayerAgg& agg = layers[slice.layer];
      ++agg.ops;
      agg.total_ns += slice.total_ns;
      agg.queue_ns += slice.queue_ns;
      agg.service_ns += slice.service_ns;
      agg.total_hist.record(slice.total_ns);
      agg.queue_hist.record(slice.queue_ns);
    }
    if (!op.bottleneck.empty()) ++layers[op.bottleneck].bottleneck_ops;
  }

  std::string out = "{\"op_count\":" + std::to_string(ops.size());
  out += ",\"layers\":{";
  bool first = true;
  for (const auto& [name, agg] : layers) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) +
           "\":{\"ops\":" + std::to_string(agg.ops) +
           ",\"bottleneck_ops\":" + std::to_string(agg.bottleneck_ops) +
           ",\"total_ns\":" + std::to_string(agg.total_ns) +
           ",\"queue_ns\":" + std::to_string(agg.queue_ns) +
           ",\"service_ns\":" + std::to_string(agg.service_ns) + ",\"total\":";
    out += json_histogram(agg.total_hist.snapshot());
    out += ",\"queue\":";
    out += json_histogram(agg.queue_hist.snapshot());
    out += '}';
  }
  out += '}';

  out += ",\"top_ops\":[";
  const std::vector<OpAttribution> top = slowest(top_k_);
  for (std::size_t i = 0; i < top.size(); ++i) {
    const OpAttribution& op = top[i];
    if (i != 0) out += ',';
    out += "{\"op_id\":" + std::to_string(op.op_id) +
           ",\"begin_ns\":" + std::to_string(op.begin_ns) +
           ",\"end_ns\":" + std::to_string(op.end_ns) +
           ",\"e2e_ns\":" + std::to_string(op.e2e_ns()) +
           ",\"bottleneck\":\"" + json_escape(op.bottleneck) +
           "\",\"layers\":";
    append_layers(out, op.layers);

    // Full span chain for drill-down, in chronological order.
    std::vector<sim::TraceSpan> chain = by_op_.at(op.op_id);
    std::sort(chain.begin(), chain.end(),
              [](const sim::TraceSpan& lhs, const sim::TraceSpan& rhs) {
                if (lhs.begin_ns != rhs.begin_ns) {
                  return lhs.begin_ns < rhs.begin_ns;
                }
                if (lhs.end_ns != rhs.end_ns) return lhs.end_ns > rhs.end_ns;
                return lhs.name < rhs.name;
              });
    out += ",\"spans\":[";
    for (std::size_t j = 0; j < chain.size(); ++j) {
      const sim::TraceSpan& span = chain[j];
      if (j != 0) out += ',';
      out += "{\"name\":\"" + json_escape(span.name) +
             "\",\"layer\":\"" + json_escape(layer_of(span)) +
             "\",\"track\":" + std::to_string(span.track) +
             ",\"begin_ns\":" + std::to_string(span.begin_ns) +
             ",\"end_ns\":" + std::to_string(span.end_ns) + "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace hpcbb::obs
