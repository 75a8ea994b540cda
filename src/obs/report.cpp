#include "obs/report.h"

#include <fstream>

#include "common/metrics.h"
#include "obs/attribution.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/sampler.h"

namespace hpcbb::obs {

std::string report_json(sim::Simulation& sim, const TimeSeriesSampler* sampler,
                        const SpanAccountant* attribution,
                        const HealthMonitor* health) {
  std::string out = "{\"schema\":\"";
  out += kReportSchema;
  out += "\",\"sim_time_ns\":" + std::to_string(sim.now());

  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : sim.metrics().counters()) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":" + std::to_string(value);
  }
  out += "}";

  out += ",\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : sim.metrics().gauges()) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) +
           "\":{\"value\":" + std::to_string(gauge.value) +
           ",\"high_watermark\":" + std::to_string(gauge.high_watermark) + "}";
  }
  out += "}";

  out += ",\"histograms\":{";
  first = true;
  for (const auto& [name, h] : sim.metrics().histograms()) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":" + json_histogram(h);
  }
  out += "}";

  if (sampler != nullptr) {
    out += ",\"timeline\":" + sampler->to_json();
  }
  if (attribution != nullptr) {
    out += ",\"attribution\":" + attribution->to_json();
  }
  if (health != nullptr) {
    out += ",\"health\":" + health->to_json();
  }
  out += "}";
  return out;
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file << content;
  return static_cast<bool>(file);
}

}  // namespace hpcbb::obs
