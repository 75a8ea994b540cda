// Time-series sampling of metrics over simulated time.
//
// A TimeSeriesSampler owns a set of named probes (arbitrary u64 readers,
// typically counters and gauges from the simulation's MetricRegistry) and a
// periodic simulated-time task that snapshots all of them every
// `interval_ns`. The resulting timeline makes burst shapes, drain behavior,
// and queue buildup plottable — the per-layer traffic view that burst-buffer
// tuning papers assume as input.
//
// Lifecycle in an event-driven simulation: a naive periodic task would keep
// the event queue non-empty forever, so the workload driver calls stop()
// when it finishes; that takes a final sample at quiescence and cancels the
// pending tick, after which sim.run() drains normally. Cancelling (rather
// than letting the tick fire and exit) keeps the stop from re-running probes
// when it lands exactly on a tick boundary and from dragging sim.now() one
// interval past quiescence.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulation.h"
#include "sim/task.h"

namespace hpcbb::obs {

struct TimelinePoint {
  sim::SimTime t_ns = 0;
  std::vector<std::uint64_t> values;  // parallel to series_names()
};

class TimeSeriesSampler {
 public:
  using Probe = std::function<std::uint64_t()>;

  TimeSeriesSampler(sim::Simulation& sim, sim::SimTime interval_ns);

  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  // Per-tick observer: runs after every recorded sample — the baseline at
  // start(), each periodic tick, and the final quiescence sample — with the
  // point just stored; `final` is true only for the stop() sample. When
  // stop() lands exactly on a tick boundary the final sample *replaces* the
  // tick's point, so observers see that timestamp twice (final=false then
  // final=true) but the timeline keeps one entry. Observers run in
  // registration order. The health monitor hooks here so sampling and SLO
  // evaluation share one clock and can never skew.
  using Observer = std::function<void(const TimelinePoint&, bool final)>;
  void add_observer(Observer observer);

  // Register probes before start(); rows are parallel to registration order.
  void add_probe(std::string name, Probe probe);
  // Convenience probes over the simulation's metric registry.
  void watch_counter(const std::string& name);
  void watch_gauge(const std::string& name);

  // Takes a baseline sample now and spawns the periodic task. Ticks are
  // aligned to multiples of the interval, not offset from the start time.
  void start();
  // Final sample at the current (quiescence) time; the pending tick is
  // cancelled so the periodic task never wakes again. Idempotent.
  void stop();
  // One immediate sample. A sample at the same timestamp as the previous
  // one replaces it, keeping timestamps strictly increasing.
  void sample_now();

  [[nodiscard]] const std::vector<std::string>& series_names() const noexcept {
    return names_;
  }
  [[nodiscard]] const std::vector<TimelinePoint>& timeline() const noexcept {
    return timeline_;
  }

  // "t_ns,series1,series2,..." header plus one row per sample.
  [[nodiscard]] std::string to_csv() const;
  // {"interval_ns":..,"series":[..],"points":[{"t_ns":..,"values":[..]}]}
  [[nodiscard]] std::string to_json() const;

 private:
  sim::Task<void> run_loop();

  sim::Simulation& sim_;
  sim::SimTime interval_ns_;
  bool started_ = false;
  bool stopped_ = false;
  bool tick_pending_ = false;      // run_loop is suspended on a timer
  std::uint64_t tick_token_ = 0;   // cancellation token for that timer
  bool in_stop_ = false;           // the sample being taken is the final one
  std::vector<std::string> names_;
  std::vector<Probe> probes_;
  std::vector<Observer> observers_;
  std::vector<TimelinePoint> timeline_;
};

}  // namespace hpcbb::obs
