// Always-on flight recorder: bounded per-layer ring buffers of recent
// closed spans plus a shared ring of instant events (fault injections,
// failure-detector transitions, SLO alerts).
//
// Post-mortem tracing (TraceRecorder) retains every span of a run; that is
// the right tool for a Chrome-trace dump but the wrong one for an
// always-on monitor — an unbounded buffer is exactly what a long-lived
// deployment cannot afford. The flight recorder instead keeps the *recent
// past* under a fixed memory budget: when a ring is full the oldest entry
// is evicted (counted in `obs.flightrec.dropped` and per-ring), so at any
// instant the rings hold the freshest spans of each pipeline layer — the
// context an incident bundle needs when an SLO pages.
//
// Feeding it: chain it into TraceRecorder's span sink. Spans are routed to
// the ring of their attribution layer (SpanAccountant::layer_of, so the
// flight recorder and the latency-attribution engine agree on what "kv
// time" means); zero-length instants — how the fault injector, the
// master's failure detector, and the alert engine announce events — all
// land in one "events" ring regardless of category.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "sim/simulation.h"
#include "sim/trace.h"

namespace hpcbb::obs {

// One retained entry: a closed span or an instant event (begin == end).
struct FlightEntry {
  std::string name;
  std::string category;
  sim::SimTime begin_ns = 0;
  sim::SimTime end_ns = 0;
  std::uint32_t track = 0;
  std::uint64_t op_id = 0;

  [[nodiscard]] bool is_instant() const noexcept { return begin_ns == end_ns; }
};

class FlightRecorder {
 public:
  static constexpr std::uint64_t kDefaultBudgetBytes = 256 * 1024;
  // At most this many rings (pipeline layers + "events" + an "other"
  // overflow); the total budget is split evenly so one chatty layer cannot
  // starve the rest.
  static constexpr std::size_t kMaxRings = 12;
  static constexpr const char* kEventsRing = "events";
  static constexpr const char* kOverflowRing = "other";

  explicit FlightRecorder(sim::Simulation& sim,
                          std::uint64_t budget_bytes = kDefaultBudgetBytes);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // TraceRecorder span-sink hook. Open spans are ignored; instants go to
  // the events ring, real spans to their layer's ring.
  void on_span_close(const sim::TraceSpan& span);

  // Direct event insertion for producers without a TraceRecorder.
  void add_event(std::string name, std::string category,
                 std::uint64_t op_id = 0);

  [[nodiscard]] std::uint64_t budget_bytes() const noexcept {
    return budget_bytes_;
  }
  [[nodiscard]] std::uint64_t ring_budget_bytes() const noexcept {
    return ring_budget_;
  }
  [[nodiscard]] std::uint64_t dropped_total() const noexcept {
    return dropped_total_;
  }

  // Entries oldest-first; nullptr when the ring does not exist (yet).
  [[nodiscard]] const std::deque<FlightEntry>* ring(
      const std::string& name) const;
  [[nodiscard]] std::uint64_t dropped(const std::string& ring_name) const;

  // Instant events of one category, oldest-first (e.g. "fault" — what the
  // incident bundle correlates a page against).
  [[nodiscard]] std::vector<FlightEntry> events(
      const std::string& category) const;
  // op_ids (sorted, unique) of retained spans covering `t_ns` — the
  // operations in flight when e.g. a fault hit.
  [[nodiscard]] std::vector<std::uint64_t> ops_active_at(
      sim::SimTime t_ns) const;

  // Full dump, on demand:
  // {"budget_bytes":..,"dropped":..,"rings":{name:{"dropped":..,
  //  "entries":[{"name":..,"category":..,"begin_ns":..,...}]}}}
  [[nodiscard]] std::string dump_json() const;

 private:
  struct Ring {
    std::deque<FlightEntry> entries;
    std::uint64_t bytes = 0;
    std::uint64_t dropped = 0;
  };

  static std::uint64_t cost_of(const FlightEntry& entry) noexcept;
  void push(const std::string& ring_name, FlightEntry entry);
  Ring& ring_for(const std::string& name);

  sim::Simulation* sim_;
  std::uint64_t budget_bytes_;
  std::uint64_t ring_budget_;
  std::uint64_t dropped_total_ = 0;
  std::map<std::string, Ring> rings_;
};

}  // namespace hpcbb::obs
