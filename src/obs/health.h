// Online health monitor: declarative SLO rules with multi-window burn-rate
// alerting, evaluated on TimeSeriesSampler ticks, plus incident bundles.
//
// Rules come from `slo.*` configuration keys (HealthParams::from_properties
// validates the whole namespace — an unknown key or malformed value is a
// configuration error, never a silently-dropped rule). Each rule reads the
// MetricRegistry once per sampler tick and produces a boolean breach, a
// "no data" verdict (absent metric, never-recorded histogram, no traffic
// this tick — distinct from a legitimate zero), or a clean tick.
//
// Alerting is multi-window burn-rate, SRE-style: a fast window (default 5
// ticks) catches sharp regressions, a slow window (default 60) catches
// sustained low-grade burn and *holds* a page open until the long horizon
// is genuinely clean. States per rule: ok -> warn -> page -> (resolved) ok,
// where "resolved" is the transition event back to ok. Every transition
// bumps an `obs.alert{rule=...,severity=...}` counter, records a trace
// instant (category "alert"), and is kept with its simulated timestamp.
//
// On page the monitor snapshots the flight recorder, the last N sampler
// intervals, the full metric registry, and the SpanAccountant's slowest
// ops into a self-contained `hpcbb.incident.v1` JSON bundle, with the
// op_ids active at recent fault injections called out — the correlation a
// post-mortem starts from.
//
// The monitor owns no timer: it observes the sampler (add_observer), so a
// run without `slo.*` keys constructs no monitor and schedules not one
// extra event — healthy-run timing stays bit-identical.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/properties.h"
#include "common/status.h"
#include "obs/flightrec.h"
#include "sim/simulation.h"

namespace hpcbb::obs {

class TimeSeriesSampler;
class SpanAccountant;
struct TimelinePoint;

inline constexpr const char* kIncidentSchema = "hpcbb.incident.v1";

enum class AlertState { kOk, kWarn, kPage };
[[nodiscard]] std::string_view to_string(AlertState state) noexcept;

// What a rule measures each tick.
enum class SloKind {
  kCounterMax,   // sum of counters in `metrics` > threshold (cumulative)
  kGaugeMin,     // gauge value < threshold
  kGaugeMax,     // gauge value > threshold
  kQuantileMax,  // histogram quantile(q) > threshold
  kHistMax,      // histogram max > threshold
  kRatioMin,     // per-tick delta m0/(m0+m1) < threshold (no traffic = no data)
  kDegradedWindowMax,  // open or closed degraded window > threshold
};
[[nodiscard]] std::string_view to_string(SloKind kind) noexcept;

struct SloRule {
  std::string name;                  // config key suffix, e.g. "write_p99_ns"
  SloKind kind = SloKind::kCounterMax;
  std::vector<std::string> metrics;  // metric name(s); meaning depends on kind
  double quantile = 0.99;            // for kQuantileMax
  double threshold = 0.0;
};

struct HealthParams {
  // Burn-rate windows (in sampler ticks) and trip fractions. Burn is the
  // breached fraction of the window with a *fixed* denominator — a window
  // that has seen fewer ticks than its width counts the missing ones as
  // clean, so a rule cannot page off its very first breach.
  std::size_t fast_window = 5;
  std::size_t slow_window = 60;
  double warn_fast = 0.2;  // fast burn >= this: at least warn
  double page_fast = 0.6;  // fast burn >= this: page
  double page_slow = 0.3;  // slow burn >= this: page, and hold any open page

  std::uint64_t flightrec_bytes = FlightRecorder::kDefaultBudgetBytes;
  std::size_t incident_max = 8;              // bundles kept/written per run
  std::size_t incident_timeline_points = 16;  // sampler tail in each bundle
  std::string incident_dir;                   // "" = keep bundles in memory
  std::string incident_prefix = "incident";

  std::vector<SloRule> rules;

  // Parses and validates every `slo.*` / `flightrec.*` key (the full
  // grammar is documented in DESIGN.md §15 and examples/example.conf).
  // Unknown keys and malformed values are kInvalidArgument so a runner can
  // abort instead of silently monitoring nothing.
  static Result<HealthParams> from_properties(const Properties& props);
};

// One alert state transition, with the rule's view at that instant.
struct AlertEvent {
  sim::SimTime t_ns = 0;
  std::string rule;
  AlertState from = AlertState::kOk;
  AlertState to = AlertState::kOk;
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  double value = 0.0;  // last evaluated rule value
};

// A generated incident bundle (the JSON is the `hpcbb.incident.v1` doc).
struct Incident {
  std::string rule;
  sim::SimTime t_ns = 0;
  std::string file;  // "" when kept in memory only
  std::string json;
};

class HealthMonitor {
 public:
  HealthMonitor(sim::Simulation& sim, HealthParams params);

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  // Registers the per-tick observer; evaluation now follows the sampler's
  // clock exactly (and the sampler is also where incident timelines come
  // from).
  void attach(TimeSeriesSampler& sampler);
  void set_flight_recorder(FlightRecorder* recorder) {
    flightrec_ = recorder;
  }
  void set_accountant(const SpanAccountant* accountant) {
    accountant_ = accountant;
  }

  // One evaluation pass over every rule. Idempotent per timestamp: the
  // sampler's final stop() sample at a tick boundary re-fires the observer
  // at the same simulated time and must not double-count windows.
  void on_tick(const TimelinePoint& point, bool final);

  [[nodiscard]] std::size_t rule_count() const noexcept {
    return rules_.size();
  }
  [[nodiscard]] AlertState state(const std::string& rule) const;
  [[nodiscard]] const std::vector<AlertEvent>& transitions() const noexcept {
    return transitions_;
  }
  [[nodiscard]] const std::vector<Incident>& incidents() const noexcept {
    return incidents_;
  }
  [[nodiscard]] std::uint64_t warn_count() const noexcept { return warns_; }
  [[nodiscard]] std::uint64_t page_count() const noexcept { return pages_; }
  [[nodiscard]] std::uint64_t resolve_count() const noexcept {
    return resolves_;
  }

  // The report's "health" section: per-rule status, the transition
  // timeline, and incident metadata.
  [[nodiscard]] std::string to_json() const;

 private:
  struct RuleState {
    SloRule rule;
    AlertState state = AlertState::kOk;
    // Breach bits for the last slow_window data-era ticks, newest last.
    std::deque<std::uint8_t> window;
    bool seen_data = false;
    std::uint64_t data_ticks = 0;
    std::uint64_t breach_ticks = 0;
    // Previous cumulative values for kRatioMin per-tick deltas.
    std::uint64_t last_num = 0;
    std::uint64_t last_den = 0;
    bool have_last = false;
    double value = 0.0;
    double fast_burn = 0.0;
    double slow_burn = 0.0;
  };

  [[nodiscard]] std::optional<double> evaluate(RuleState& rs) const;
  [[nodiscard]] static bool breached(const SloRule& rule, double value);
  void step(RuleState& rs, sim::SimTime now);
  void transition(RuleState& rs, AlertState to, sim::SimTime now);
  void open_incident(const RuleState& rs, sim::SimTime now);

  sim::Simulation* sim_;
  HealthParams params_;
  FlightRecorder* flightrec_ = nullptr;
  const SpanAccountant* accountant_ = nullptr;
  const TimeSeriesSampler* sampler_ = nullptr;
  std::vector<RuleState> rules_;
  std::vector<AlertEvent> transitions_;
  std::vector<Incident> incidents_;
  std::uint64_t warns_ = 0;
  std::uint64_t pages_ = 0;
  std::uint64_t resolves_ = 0;
  sim::SimTime last_eval_ns_ = 0;
  bool evaluated_once_ = false;
};

}  // namespace hpcbb::obs
