// Host-kernel probes: the host time of the byte-path kernels the simulated
// workloads lean on (crc32c, pattern_bytes, generate_records), each timed on
// a fixed 16 MiB buffer, plus a reference loop that tracks host speed.
#pragma once

#include <map>
#include <string>

namespace hpcbb::perfbench {

// common.crc32c_gbps, common.pattern_gbps, mapred.records_gen_gbps (GB/s)
// and host.calib_s (seconds), each the median of five rounds.
[[nodiscard]] std::map<std::string, double> run_probes();

}  // namespace hpcbb::perfbench
