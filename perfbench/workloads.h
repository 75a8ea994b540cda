// The benchmark's three workloads. Each call builds a fresh default cluster,
// sets it up (timed as setup), runs one timed phase, checks every output,
// and returns what it measured. Inputs derive from `seed` only.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hpcbb::perfbench {

struct RepResult {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // failed calls plus wrong-bytes reads
  double setup_s = 0;        // host seconds
  double host_wall_s = 0;    // host seconds of the timed phase
  // End-to-end simulated metrics shared by every workload (sim_elapsed_s,
  // sim_write_mbps, sim_read_mbps) plus sim.events.
  std::map<std::string, double> sim;
  // The workload's own simulated figures (dfsio_write_mbps, kv_get_p50_us,
  // ...), for the human-readable summary.
  std::map<std::string, double> report;
  // Per-layer metrics; filled only for a traced run.
  std::map<std::string, double> layers;
};

// Runs one repetition. An unknown workload name yields correct == false.
[[nodiscard]] RepResult run_workload(const std::string& name,
                                     std::uint64_t seed, bool traced);

}  // namespace hpcbb::perfbench
