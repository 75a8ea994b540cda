// One repetition of one benchmark workload, or the host-kernel probes.
// Prints a single JSON object on stdout; run.py drives repetitions, checks
// them against each other and aggregates them.
//
//   perfbench <dfsio-async|sort-local|kv-zipf> [--seed N] [--trace]
//   perfbench probes
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>

#include "obs/json.h"
#include "probes.h"
#include "workloads.h"

namespace {

using hpcbb::obs::json_escape;

// Every digit of a double, so repeated simulated figures compare exactly.
std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ", ";
    out += "\"" + json_escape(name) + "\": " + number(value);
  }
  return out + "}";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench <dfsio-async|sort-local|kv-zipf> [--seed N] "
               "[--trace]\n       perfbench probes\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string workload = argv[1];
  if (workload == "probes") {
    std::printf("%s\n", object(hpcbb::perfbench::run_probes()).c_str());
    return 0;
  }
  std::uint64_t seed = 0;
  bool traced = false;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--trace") {
      traced = true;
    } else if (arg == "--seed" && i + 1 < argc) {
      const char* text = argv[++i];
      char* end = nullptr;
      seed = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0') return usage();
    } else {
      return usage();
    }
  }
  const hpcbb::perfbench::RepResult rep =
      hpcbb::perfbench::run_workload(workload, seed, traced);
  std::string errors = "[";
  for (const std::string& e : rep.errors) {
    if (errors.size() > 1) errors += ", ";
    errors += "\"" + json_escape(e) + "\"";
  }
  errors += "]";
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"traced\": %s, "
      "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"errors\": %s, \"setup_s\": %s, \"host_wall_s\": %s, "
      "\"peak_rss_mb\": %s, \"sim\": %s, \"report\": %s, \"layers\": %s}\n",
      json_escape(workload).c_str(), static_cast<unsigned long long>(seed),
      traced ? "true" : "false", rep.correct ? "true" : "false",
      static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(rep.failed), errors.c_str(),
      number(rep.setup_s).c_str(), number(rep.host_wall_s).c_str(),
      number(peak_rss_mb()).c_str(), object(rep.sim).c_str(),
      object(rep.report).c_str(), object(rep.layers).c_str());
  return rep.correct ? 0 : 1;
}
