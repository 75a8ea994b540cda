// The experiment runner's own configuration keys; the cluster's are in
// cluster/config.h. examples/example.conf documents both tables.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "cluster/config.h"
#include "common/units.h"
#include "mapred/workloads.h"

namespace hpcbb::examples {

struct RunnerOptions {
  cluster::FsKind fs = cluster::FsKind::kBurstBuffer;
  mapred::DfsioParams workload{.files = 8, .file_size = 64 * MiB};
  sim::SimTime stats_interval_ns = 100 * duration::ms;
  std::string metrics_out;  // output files; empty = not written
  std::string timeline_out;
  std::string trace_out;
  std::uint64_t attr_topk = 5;  // slowest ops dumped with their spans
};

using cluster::field;
using enum ValueType;
using mapred::DfsioParams;

// FsKind names, in enumerator order.
inline constexpr std::string_view kFsNames[] = {"hdfs", "lustre", "bb"};

inline constexpr cluster::ConfigKey<RunnerOptions> kRunnerKeys[] = {
    {"fs", kChoice, field<&RunnerOptions::fs>, kFsNames},
    {"files", kSize, field<&RunnerOptions::workload, &DfsioParams::files>},
    {"file.size", kSize,
     field<&RunnerOptions::workload, &DfsioParams::file_size>},
    {"stats.interval", kDuration, field<&RunnerOptions::stats_interval_ns>},
    {"metrics.out", kText, field<&RunnerOptions::metrics_out>},
    {"timeline.out", kText, field<&RunnerOptions::timeline_out>},
    {"attr.topk", kSize, field<&RunnerOptions::attr_topk>},
    {"trace.out", kText, field<&RunnerOptions::trace_out>},
};

}  // namespace hpcbb::examples
