#include "obs/health.h"

#include <algorithm>
#include <utility>

#include "sim/trace.h"

#include "common/metrics.h"
#include "obs/attribution.h"
#include "obs/json.h"
#include "obs/report.h"
#include "obs/sampler.h"

namespace hpcbb::obs {

namespace {

struct BuiltinRule {
  const char* suffix;  // key is "slo." + suffix
  SloKind kind;
  ValueType value_type;
  double quantile;
  std::vector<std::string> metrics;
};

// The built-in rule vocabulary. Thresholds: *_ns keys take durations
// (ns/us/ms/s suffixes), *_min ratio keys take fractions in [0, 1],
// everything else takes counts.
const std::vector<BuiltinRule>& builtin_rules() {
  static const std::vector<BuiltinRule> kRules = {
      {"write_p99_ns", SloKind::kQuantileMax, ValueType::kDuration, 0.99,
       {"kv.put"}},
      {"read_p99_ns", SloKind::kQuantileMax, ValueType::kDuration, 0.99,
       {"kv.get"}},
      {"flush_p99_ns", SloKind::kQuantileMax, ValueType::kDuration, 0.99,
       {"bb.flush_ns"}},
      {"flush_max_ns", SloKind::kHistMax, ValueType::kDuration, 0.99,
       {"bb.flush_ns"}},
      {"rpc_p99_ns", SloKind::kQuantileMax, ValueType::kDuration, 0.99,
       {"net.rpc"}},
      {"stall_p99_ns", SloKind::kQuantileMax, ValueType::kDuration, 0.99,
       {"flowctl.stall_ns"}},
      {"kv_hit_ratio_min", SloKind::kRatioMin, ValueType::kFraction, 0.99,
       {"kv.hits", "kv.misses"}},
      {"degraded_window_max_ns", SloKind::kDegradedWindowMax,
       ValueType::kDuration, 0.99, {}},
      {"kv_live_min", SloKind::kGaugeMin, ValueType::kSize, 0.99,
       {"bb.kv_live"}},
      {"master_up_min", SloKind::kGaugeMin, ValueType::kSize, 0.99,
       {"bb.master_up"}},
      {"under_replicated_max", SloKind::kGaugeMax, ValueType::kSize, 0.99,
       {"kv.repl.under_replicated"}},
      {"retry_exhausted_max", SloKind::kCounterMax, ValueType::kSize, 0.99,
       {"net.retry.exhausted"}},
      {"integrity_detected_max", SloKind::kCounterMax, ValueType::kSize, 0.99,
       {"kv.integrity.detected", "kv.scrub.repaired",
        "kv.scrub.unrepairable"}},
      {"quarantined_max", SloKind::kCounterMax, ValueType::kSize, 0.99,
       {"bb.quarantined_blocks"}},
  };
  return kRules;
}

// Generic escape hatches: the metric name is embedded in the key, e.g.
// slo.counter_max.faults.injected{kind=crash} = 0.
struct GenericRule {
  const char* prefix;  // key is "slo." + prefix + "." + metric
  SloKind kind;
  ValueType value_type;
};

constexpr GenericRule kGenericRules[] = {
    {"counter_max", SloKind::kCounterMax, ValueType::kSize},
    {"gauge_min", SloKind::kGaugeMin, ValueType::kSize},
    {"gauge_max", SloKind::kGaugeMax, ValueType::kSize},
    {"p99_max", SloKind::kQuantileMax, ValueType::kDuration},
    {"max_max", SloKind::kHistMax, ValueType::kDuration},
};

Result<double> parse_threshold(const Properties& props, const std::string& key,
                               ValueType type) {
  const auto value = props.get_value(key, type);
  if (!value.is_ok()) return value.status();
  return type == ValueType::kFraction
             ? value.value().real
             : static_cast<double>(value.value().number);
}

}  // namespace

std::string_view to_string(AlertState state) noexcept {
  switch (state) {
    case AlertState::kOk: return "ok";
    case AlertState::kWarn: return "warn";
    case AlertState::kPage: return "page";
  }
  return "?";
}

std::string_view to_string(SloKind kind) noexcept {
  switch (kind) {
    case SloKind::kCounterMax: return "counter_max";
    case SloKind::kGaugeMin: return "gauge_min";
    case SloKind::kGaugeMax: return "gauge_max";
    case SloKind::kQuantileMax: return "quantile_max";
    case SloKind::kHistMax: return "hist_max";
    case SloKind::kRatioMin: return "ratio_min";
    case SloKind::kDegradedWindowMax: return "degraded_window_max";
  }
  return "?";
}

Result<HealthParams> HealthParams::from_properties(const Properties& props) {
  HealthParams out;
  for (const auto& [key, raw] : props.entries()) {
    if (key == "flightrec.bytes") {
      auto parsed = props.get_u64(key);
      if (!parsed.is_ok()) return parsed.status();
      out.flightrec_bytes = parsed.value();
      continue;
    }
    if (key.rfind("flightrec.", 0) == 0) {
      return error(StatusCode::kInvalidArgument,
                   "key " + key + ": unknown flightrec.* key");
    }
    if (key.rfind("slo.", 0) != 0) continue;
    const std::string suffix = key.substr(4);

    // Engine tunables.
    if (suffix == "fast_window" || suffix == "slow_window" ||
        suffix == "incident_max") {
      auto parsed = props.get_u64(key);
      if (!parsed.is_ok()) return parsed.status();
      if (parsed.value() == 0) {
        return error(StatusCode::kInvalidArgument,
                     "key " + key + ": must be >= 1");
      }
      if (suffix == "fast_window") {
        out.fast_window = static_cast<std::size_t>(parsed.value());
      } else if (suffix == "slow_window") {
        out.slow_window = static_cast<std::size_t>(parsed.value());
      } else {
        out.incident_max = static_cast<std::size_t>(parsed.value());
      }
      continue;
    }
    if (suffix == "warn_fast" || suffix == "page_fast" ||
        suffix == "page_slow") {
      const auto value = props.get_value(key, ValueType::kFraction);
      if (!value.is_ok() || value.value().real == 0.0) {
        return error(StatusCode::kInvalidArgument,
                     "key " + key + ": not a fraction in (0,1]");
      }
      const double fraction = value.value().real;
      if (suffix == "warn_fast") out.warn_fast = fraction;
      else if (suffix == "page_fast") out.page_fast = fraction;
      else out.page_slow = fraction;
      continue;
    }
    if (suffix == "incident_dir") {
      out.incident_dir = raw;
      continue;
    }
    if (suffix == "incident_prefix") {
      out.incident_prefix = raw;
      continue;
    }

    // Built-in rules.
    const BuiltinRule* builtin = nullptr;
    for (const BuiltinRule& candidate : builtin_rules()) {
      if (suffix == candidate.suffix) {
        builtin = &candidate;
        break;
      }
    }
    if (builtin != nullptr) {
      auto threshold = parse_threshold(props, key, builtin->value_type);
      if (!threshold.is_ok()) return threshold.status();
      out.rules.push_back(SloRule{suffix, builtin->kind, builtin->metrics,
                                  builtin->quantile, threshold.value()});
      continue;
    }

    // Generic rules with the metric embedded in the key.
    const GenericRule* generic = nullptr;
    std::string metric;
    for (const GenericRule& candidate : kGenericRules) {
      const std::string prefix = std::string(candidate.prefix) + ".";
      if (suffix.rfind(prefix, 0) == 0 && suffix.size() > prefix.size()) {
        generic = &candidate;
        metric = suffix.substr(prefix.size());
        break;
      }
    }
    if (generic != nullptr) {
      auto threshold = parse_threshold(props, key, generic->value_type);
      if (!threshold.is_ok()) return threshold.status();
      out.rules.push_back(SloRule{suffix, generic->kind, {metric}, 0.99,
                                  threshold.value()});
      continue;
    }

    return error(StatusCode::kInvalidArgument,
                 "key " + key + ": unknown slo.* key (see DESIGN.md §15)");
  }
  if (out.fast_window > out.slow_window) {
    return error(StatusCode::kInvalidArgument,
                 "slo.fast_window must be <= slo.slow_window");
  }
  if (out.warn_fast > out.page_fast) {
    return error(StatusCode::kInvalidArgument,
                 "slo.warn_fast must be <= slo.page_fast");
  }
  return out;
}

HealthMonitor::HealthMonitor(sim::Simulation& sim, HealthParams params)
    : sim_(&sim), params_(std::move(params)) {
  rules_.reserve(params_.rules.size());
  for (const SloRule& rule : params_.rules) {
    RuleState rs;
    rs.rule = rule;
    rules_.push_back(std::move(rs));
  }
}

void HealthMonitor::attach(TimeSeriesSampler& sampler) {
  sampler_ = &sampler;
  sampler.add_observer([this](const TimelinePoint& point, bool final_sample) {
    on_tick(point, final_sample);
  });
}

AlertState HealthMonitor::state(const std::string& rule) const {
  for (const RuleState& rs : rules_) {
    if (rs.rule.name == rule) return rs.state;
  }
  return AlertState::kOk;
}

std::optional<double> HealthMonitor::evaluate(RuleState& rs) const {
  MetricRegistry& metrics = sim_->metrics();
  const SloRule& rule = rs.rule;
  switch (rule.kind) {
    case SloKind::kCounterMax: {
      bool any = false;
      std::uint64_t sum = 0;
      for (const std::string& metric : rule.metrics) {
        if (const auto value = metrics.find_counter(metric)) {
          any = true;
          sum += *value;
        }
      }
      if (!any) return std::nullopt;
      return static_cast<double>(sum);
    }
    case SloKind::kGaugeMin:
    case SloKind::kGaugeMax: {
      const auto gauge = metrics.find_gauge(rule.metrics.front());
      if (!gauge) return std::nullopt;
      return static_cast<double>(gauge->value);
    }
    case SloKind::kQuantileMax: {
      const auto value =
          metrics.histogram_quantile(rule.metrics.front(), rule.quantile);
      if (!value) return std::nullopt;
      return static_cast<double>(*value);
    }
    case SloKind::kHistMax: {
      const auto snap = metrics.find_histogram(rule.metrics.front());
      if (!snap) return std::nullopt;
      return static_cast<double>(snap->max);
    }
    case SloKind::kRatioMin: {
      const auto num = metrics.find_counter(rule.metrics[0]);
      const auto mis = metrics.find_counter(rule.metrics[1]);
      if (!num && !mis) return std::nullopt;
      const std::uint64_t cum_num = num.value_or(0);
      const std::uint64_t cum_den = cum_num + mis.value_or(0);
      if (!rs.have_last) {
        rs.have_last = true;
        rs.last_num = cum_num;
        rs.last_den = cum_den;
        return std::nullopt;  // a delta needs two observations
      }
      const std::uint64_t delta_num = cum_num - rs.last_num;
      const std::uint64_t delta_den = cum_den - rs.last_den;
      rs.last_num = cum_num;
      rs.last_den = cum_den;
      if (delta_den == 0) return std::nullopt;  // no traffic this tick
      return static_cast<double>(delta_num) / static_cast<double>(delta_den);
    }
    case SloKind::kDegradedWindowMax: {
      // Open window: now - entry time while degraded; otherwise the longest
      // closed window. No detector (gauge never registered) = no data.
      const auto degraded = metrics.find_gauge("bb.degraded");
      if (!degraded) return std::nullopt;
      if (degraded->value != 0) {
        const auto since = metrics.find_gauge("bb.degraded_since_ns");
        const std::uint64_t since_ns = since ? since->value : 0;
        return static_cast<double>(sim_->now() - since_ns);
      }
      const auto closed = metrics.find_histogram("bb.degraded_window_ns");
      return closed ? static_cast<double>(closed->max) : 0.0;
    }
  }
  return std::nullopt;
}

bool HealthMonitor::breached(const SloRule& rule, double value) {
  switch (rule.kind) {
    case SloKind::kGaugeMin:
    case SloKind::kRatioMin:
      return value < rule.threshold;
    default:
      return value > rule.threshold;
  }
}

void HealthMonitor::on_tick(const TimelinePoint& point, bool /*final*/) {
  // One evaluation per simulated timestamp: a stop() landing exactly on a
  // tick boundary replaces the sampler point and re-fires the observer at
  // the same time; re-evaluating would double-count the burn windows.
  if (evaluated_once_ && point.t_ns == last_eval_ns_) return;
  evaluated_once_ = true;
  last_eval_ns_ = point.t_ns;
  for (RuleState& rs : rules_) step(rs, point.t_ns);
}

void HealthMonitor::step(RuleState& rs, sim::SimTime now) {
  const std::optional<double> value = evaluate(rs);
  if (value.has_value()) {
    rs.seen_data = true;
    ++rs.data_ticks;
    rs.value = *value;
    const bool breach = breached(rs.rule, *value);
    rs.breach_ticks += breach ? 1 : 0;
    rs.window.push_back(breach ? 1 : 0);
  } else {
    // Before the first datum the rule is pristine — a metric that never
    // appears must never trip nor decay anything. Afterwards a no-data
    // tick counts as clean so the windows drain naturally.
    if (!rs.seen_data) return;
    rs.window.push_back(0);
  }
  while (rs.window.size() > params_.slow_window) rs.window.pop_front();

  // Fixed-denominator burn rates: ticks the window has not lived yet count
  // as clean, so one early breach cannot read as a 100% burn.
  std::uint64_t slow_sum = 0;
  std::uint64_t fast_sum = 0;
  const std::size_t n = rs.window.size();
  for (std::size_t i = 0; i < n; ++i) {
    slow_sum += rs.window[i];
    if (i + params_.fast_window >= n) fast_sum += rs.window[i];
  }
  rs.fast_burn =
      static_cast<double>(fast_sum) / static_cast<double>(params_.fast_window);
  rs.slow_burn =
      static_cast<double>(slow_sum) / static_cast<double>(params_.slow_window);

  const bool page_level = rs.fast_burn >= params_.page_fast ||
                          rs.slow_burn >= params_.page_slow;
  const bool warn_level = rs.fast_burn >= params_.warn_fast;
  const bool fast_clean = fast_sum == 0;
  switch (rs.state) {
    case AlertState::kOk:
      if (page_level) {
        transition(rs, AlertState::kPage, now);
      } else if (warn_level) {
        transition(rs, AlertState::kWarn, now);
      }
      break;
    case AlertState::kWarn:
      if (page_level) {
        transition(rs, AlertState::kPage, now);
      } else if (fast_clean) {
        transition(rs, AlertState::kOk, now);
      }
      break;
    case AlertState::kPage:
      // The slow window holds the page: resolution needs the fast window
      // clean AND sustained burn back under the slow trip point.
      if (fast_clean && rs.slow_burn < params_.page_slow) {
        transition(rs, AlertState::kOk, now);
      }
      break;
  }
}

void HealthMonitor::transition(RuleState& rs, AlertState to, sim::SimTime now) {
  const char* severity = to == AlertState::kPage   ? "page"
                         : to == AlertState::kWarn ? "warn"
                                                   : "resolved";
  sim_->metrics()
      .counter("obs.alert{rule=" + rs.rule.name + ",severity=" + severity +
               "}")
      .add();
  if (sim_->trace() != nullptr) {
    sim_->trace()->record("alert." + std::string(severity) + "." +
                              rs.rule.name,
                          "alert", 0, now, now);
  } else if (flightrec_ != nullptr) {
    // No recorder to route through: feed the flight recorder directly.
    flightrec_->add_event("alert." + std::string(severity) + "." +
                              rs.rule.name,
                          "alert");
  }
  transitions_.push_back(AlertEvent{now, rs.rule.name, rs.state, to,
                                    rs.fast_burn, rs.slow_burn, rs.value});
  if (to == AlertState::kPage) ++pages_;
  else if (to == AlertState::kWarn) ++warns_;
  else ++resolves_;
  rs.state = to;
  if (to == AlertState::kPage) open_incident(rs, now);
}

void HealthMonitor::open_incident(const RuleState& rs, sim::SimTime now) {
  sim_->metrics().counter("obs.incidents").add();
  if (incidents_.size() >= params_.incident_max) return;

  std::string json = "{\"schema\":\"";
  json += kIncidentSchema;
  json += "\",\"seq\":" + std::to_string(incidents_.size() + 1);
  json += ",\"rule\":\"" + json_escape(rs.rule.name) + "\"";
  json += ",\"kind\":\"" + std::string(to_string(rs.rule.kind)) + "\"";
  json += ",\"t_ns\":" + std::to_string(now);
  json += ",\"value\":" + json_double(rs.value);
  json += ",\"threshold\":" + json_double(rs.rule.threshold);
  json += ",\"fast_burn\":" + json_double(rs.fast_burn);
  json += ",\"slow_burn\":" + json_double(rs.slow_burn);
  json += ",\"windows\":{\"fast\":" + std::to_string(params_.fast_window) +
          ",\"slow\":" + std::to_string(params_.slow_window) + "}";

  json += ",\"alerts\":[";
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    const AlertEvent& event = transitions_[i];
    if (i != 0) json += ',';
    json += "{\"t_ns\":" + std::to_string(event.t_ns) + ",\"rule\":\"" +
            json_escape(event.rule) + "\",\"from\":\"" +
            std::string(to_string(event.from)) + "\",\"to\":\"" +
            std::string(to_string(event.to)) +
            "\",\"value\":" + json_double(event.value) + "}";
  }
  json += "]";

  // Fault correlation: every injected-fault instant still in the flight
  // recorder, and the op_ids that were in flight when each one hit.
  json += ",\"faults\":[";
  std::vector<std::uint64_t> suspects;
  if (flightrec_ != nullptr) {
    const std::vector<FlightEntry> faults = flightrec_->events("fault");
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (i != 0) json += ',';
      json += "{\"name\":\"" + json_escape(faults[i].name) +
              "\",\"t_ns\":" + std::to_string(faults[i].begin_ns) + "}";
      for (const std::uint64_t op :
           flightrec_->ops_active_at(faults[i].begin_ns)) {
        suspects.push_back(op);
      }
    }
    std::sort(suspects.begin(), suspects.end());
    suspects.erase(std::unique(suspects.begin(), suspects.end()),
                   suspects.end());
  }
  json += "],\"suspect_op_ids\":[";
  for (std::size_t i = 0; i < suspects.size(); ++i) {
    if (i != 0) json += ',';
    json += std::to_string(suspects[i]);
  }
  json += "]";

  json += ",\"flightrec\":";
  json += flightrec_ != nullptr ? flightrec_->dump_json() : "null";

  // The last N sampler intervals, series names included so the bundle is
  // self-contained.
  json += ",\"timeline\":";
  if (sampler_ != nullptr) {
    json += "{\"series\":[";
    const std::vector<std::string>& names = sampler_->series_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i != 0) json += ',';
      json += '"' + json_escape(names[i]) + '"';
    }
    json += "],\"points\":[";
    const std::vector<TimelinePoint>& timeline = sampler_->timeline();
    const std::size_t start =
        timeline.size() > params_.incident_timeline_points
            ? timeline.size() - params_.incident_timeline_points
            : 0;
    for (std::size_t i = start; i < timeline.size(); ++i) {
      if (i != start) json += ',';
      json += "{\"t_ns\":" + std::to_string(timeline[i].t_ns) +
              ",\"values\":[";
      for (std::size_t j = 0; j < timeline[i].values.size(); ++j) {
        if (j != 0) json += ',';
        json += std::to_string(timeline[i].values[j]);
      }
      json += "]}";
    }
    json += "]}";
  } else {
    json += "null";
  }

  json += ",\"slowest_ops\":[";
  if (accountant_ != nullptr) {
    const auto slowest = accountant_->slowest(5);
    for (std::size_t i = 0; i < slowest.size(); ++i) {
      if (i != 0) json += ',';
      json += "{\"op_id\":" + std::to_string(slowest[i].op_id) +
              ",\"e2e_ns\":" + std::to_string(slowest[i].e2e_ns()) +
              ",\"bottleneck\":\"" + json_escape(slowest[i].bottleneck) +
              "\"}";
    }
  }
  json += "]";

  json += ",\"metrics\":{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : sim_->metrics().counters()) {
    if (!first) json += ',';
    first = false;
    json += '"' + json_escape(name) + "\":" + std::to_string(value);
  }
  json += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : sim_->metrics().gauges()) {
    if (!first) json += ',';
    first = false;
    json += '"' + json_escape(name) + "\":" + std::to_string(gauge.value);
  }
  json += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : sim_->metrics().histograms()) {
    if (!first) json += ',';
    first = false;
    json += '"' + json_escape(name) +
            "\":{\"count\":" + std::to_string(h.count) +
            ",\"p50\":" + std::to_string(h.p50) +
            ",\"p99\":" + std::to_string(h.p99) +
            ",\"max\":" + std::to_string(h.max) + "}";
  }
  json += "}}}";

  Incident incident;
  incident.rule = rs.rule.name;
  incident.t_ns = now;
  if (!params_.incident_dir.empty()) {
    incident.file = params_.incident_dir + "/" + params_.incident_prefix +
                    "-" + std::to_string(incidents_.size() + 1) + ".json";
    if (!write_text_file(incident.file, json)) incident.file.clear();
  }
  incident.json = std::move(json);
  incidents_.push_back(std::move(incident));
}

std::string HealthMonitor::to_json() const {
  std::string out = "{\"rules\":[";
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const RuleState& rs = rules_[i];
    if (i != 0) out += ',';
    out += "{\"name\":\"" + json_escape(rs.rule.name) + "\",\"kind\":\"" +
           std::string(to_string(rs.rule.kind)) +
           "\",\"threshold\":" + json_double(rs.rule.threshold) +
           ",\"state\":\"" + std::string(to_string(rs.state)) +
           "\",\"value\":" + json_double(rs.value) +
           ",\"data_ticks\":" + std::to_string(rs.data_ticks) +
           ",\"breach_ticks\":" + std::to_string(rs.breach_ticks) +
           ",\"fast_burn\":" + json_double(rs.fast_burn) +
           ",\"slow_burn\":" + json_double(rs.slow_burn) + "}";
  }
  out += "],\"warns\":" + std::to_string(warns_) +
         ",\"pages\":" + std::to_string(pages_) +
         ",\"resolves\":" + std::to_string(resolves_);
  out += ",\"transitions\":[";
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    const AlertEvent& event = transitions_[i];
    if (i != 0) out += ',';
    out += "{\"t_ns\":" + std::to_string(event.t_ns) + ",\"rule\":\"" +
           json_escape(event.rule) + "\",\"from\":\"" +
           std::string(to_string(event.from)) + "\",\"to\":\"" +
           std::string(to_string(event.to)) +
           "\",\"fast_burn\":" + json_double(event.fast_burn) +
           ",\"slow_burn\":" + json_double(event.slow_burn) +
           ",\"value\":" + json_double(event.value) + "}";
  }
  out += "],\"incidents\":[";
  for (std::size_t i = 0; i < incidents_.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"rule\":\"" + json_escape(incidents_[i].rule) +
           "\",\"t_ns\":" + std::to_string(incidents_[i].t_ns) +
           ",\"file\":\"" + json_escape(incidents_[i].file) + "\"}";
  }
  out += "]}";
  return out;
}

}  // namespace hpcbb::obs
