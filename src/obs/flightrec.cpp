#include "obs/flightrec.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"
#include "obs/attribution.h"
#include "obs/json.h"

namespace hpcbb::obs {

FlightRecorder::FlightRecorder(sim::Simulation& sim,
                               std::uint64_t budget_bytes)
    : sim_(&sim),
      budget_bytes_(std::max<std::uint64_t>(budget_bytes, 4096)),
      ring_budget_(std::max<std::uint64_t>(budget_bytes_ / kMaxRings, 512)) {
  // The events ring exists from the start so layer rings can never claim
  // its slot: fault/detector/alert events are the entries an incident
  // bundle cannot do without.
  rings_[kEventsRing];
}

std::uint64_t FlightRecorder::cost_of(const FlightEntry& entry) noexcept {
  // Fixed overhead (timestamps, ids, deque slot) plus the string payloads.
  return 64 + entry.name.size() + entry.category.size();
}

FlightRecorder::Ring& FlightRecorder::ring_for(const std::string& name) {
  const auto it = rings_.find(name);
  if (it != rings_.end()) return it->second;
  if (rings_.size() >= kMaxRings) return rings_[kOverflowRing];
  return rings_[name];
}

void FlightRecorder::push(const std::string& ring_name, FlightEntry entry) {
  Ring& ring = ring_for(ring_name);
  ring.bytes += cost_of(entry);
  ring.entries.push_back(std::move(entry));
  // Evict oldest-first down to the budget, but always retain the newest
  // entry even if it alone exceeds the ring's share.
  while (ring.bytes > ring_budget_ && ring.entries.size() > 1) {
    ring.bytes -= cost_of(ring.entries.front());
    ring.entries.pop_front();
    ++ring.dropped;
    ++dropped_total_;
    sim_->metrics().counter("obs.flightrec.dropped").add();
  }
}

void FlightRecorder::on_span_close(const sim::TraceSpan& span) {
  if (span.end_ns == sim::kOpenSentinel) return;
  FlightEntry entry{span.name, span.category, span.begin_ns,
                    span.end_ns,  span.track,    span.op_id};
  if (entry.is_instant()) {
    push(kEventsRing, std::move(entry));
  } else {
    push(SpanAccountant::layer_of(span), std::move(entry));
  }
}

void FlightRecorder::add_event(std::string name, std::string category,
                               std::uint64_t op_id) {
  const sim::SimTime now = sim_->now();
  push(kEventsRing, FlightEntry{std::move(name), std::move(category), now,
                                now, 0, op_id});
}

const std::deque<FlightEntry>* FlightRecorder::ring(
    const std::string& name) const {
  const auto it = rings_.find(name);
  return it == rings_.end() ? nullptr : &it->second.entries;
}

std::uint64_t FlightRecorder::dropped(const std::string& ring_name) const {
  const auto it = rings_.find(ring_name);
  return it == rings_.end() ? 0 : it->second.dropped;
}

std::vector<FlightEntry> FlightRecorder::events(
    const std::string& category) const {
  std::vector<FlightEntry> out;
  const auto it = rings_.find(kEventsRing);
  if (it == rings_.end()) return out;
  for (const FlightEntry& entry : it->second.entries) {
    if (entry.category == category) out.push_back(entry);
  }
  return out;
}

std::vector<std::uint64_t> FlightRecorder::ops_active_at(
    sim::SimTime t_ns) const {
  std::vector<std::uint64_t> ops;
  for (const auto& [name, ring] : rings_) {
    if (name == kEventsRing) continue;
    for (const FlightEntry& entry : ring.entries) {
      if (entry.op_id != 0 && entry.begin_ns <= t_ns && t_ns <= entry.end_ns) {
        ops.push_back(entry.op_id);
      }
    }
  }
  std::sort(ops.begin(), ops.end());
  ops.erase(std::unique(ops.begin(), ops.end()), ops.end());
  return ops;
}

std::string FlightRecorder::dump_json() const {
  std::string out =
      "{\"budget_bytes\":" + std::to_string(budget_bytes_) +
      ",\"ring_budget_bytes\":" + std::to_string(ring_budget_) +
      ",\"dropped\":" + std::to_string(dropped_total_) + ",\"rings\":{";
  bool first_ring = true;
  for (const auto& [name, ring] : rings_) {
    if (!first_ring) out += ',';
    first_ring = false;
    out += '"' + json_escape(name) +
           "\":{\"dropped\":" + std::to_string(ring.dropped) +
           ",\"entries\":[";
    bool first = true;
    for (const FlightEntry& entry : ring.entries) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"" + json_escape(entry.name) + "\",\"category\":\"" +
             json_escape(entry.category) +
             "\",\"begin_ns\":" + std::to_string(entry.begin_ns) +
             ",\"end_ns\":" + std::to_string(entry.end_ns) +
             ",\"track\":" + std::to_string(entry.track) +
             ",\"op_id\":" + std::to_string(entry.op_id) + "}";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace hpcbb::obs
