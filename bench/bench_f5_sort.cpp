// F5 — Sort execution time across storage systems. Headline claim: sort
// time reduced up to 28% vs Lustre and 19% vs HDFS. Sort is compute- and
// shuffle-heavy, so the I/O speedup dilutes to tens of percent end-to-end
// (SortJob cpu_scale calibrates the compute fraction; see EXPERIMENTS.md).
#include <cstdio>
#include <vector>

#include "bench_util.h"

// Calibrated so map+reduce compute is roughly half of HDFS sort time
// (2015-era Hadoop: JVM record paths and spill merging dominate).
constexpr double kSortCpuScale = 18.0;

int main(int argc, char** argv) {
  using namespace hpcbb;         // NOLINT
  using namespace hpcbb::bench;  // NOLINT
  JsonResult result =
      figure("F5", "Sort execution time (8 nodes, 16 reducers)",
             "sort time reduced up to 28% vs Lustre, 19% vs HDFS");

  // 100-byte records; paper sorts 8-32 GB, we run the scaled sweep.
  const std::vector<std::uint64_t> records_per_file = {320000, 640000,
                                                       1280000};
  constexpr std::uint32_t kFiles = 8;

  std::vector<Column> columns = system_columns("-makespan-s", "%.2fs");
  columns.push_back({"vs-HDFS", "BB-Local-cut-vs-HDFS", "", 1, percent_text});
  columns.push_back(
      {"vs-Lustre", "BB-Local-cut-vs-Lustre", "", 1, percent_text});
  columns.push_back(
      {"locality(BB-Local)", "BB-Local-locality", "", 1, percent_text});
  for (const SystemCase& system : all_systems()) {
    columns.push_back({system.label + std::string(" sorted"),
                       system.label + std::string("-sorted"), "", 1,
                       flag_text});
  }
  Table table(result, "dataset", columns);
  for (const std::uint64_t records : records_per_file) {
    std::vector<Outcome> outcomes;  // in all_systems() order
    for (const auto& system : all_systems()) {
      outcomes.push_back(run_case(
          default_config(system.scheme), [&](Cluster& c, Outcome& out) {
            return sort(c, system.kind,
                        {.files = kFiles,
                         .records_per_file = records,
                         .cpu_scale = kSortCpuScale},
                        out);
          }));
    }
    std::vector<double> row;
    for (const Outcome& o : outcomes) row.push_back(o.job_s);
    const Outcome& best = outcomes[4];  // BB-Local
    row.push_back(1.0 - best.job_s / outcomes[0].job_s);
    row.push_back(1.0 - best.job_s / outcomes[1].job_s);
    row.push_back(best.locality);
    for (const Outcome& o : outcomes) row.push_back(o.sorted ? 1.0 : 0.0);
    table.row(format_bytes(kFiles * records * mapred::kRecordSize), row);
  }
  std::printf("\n(reduction percentages use BB-Local, the scheme the paper "
              "recommends for MapReduce)\n");
  return finish(result, argc, argv);
}
