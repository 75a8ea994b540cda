// F6 — I/O-intensive workloads: RandomWriter (write-only record generation)
// and Grep (full-scan read) execution time per storage system. The abstract:
// "our design can also significantly benefit I/O-intensive workloads".
#include "bench_util.h"

namespace {

using namespace hpcbb;         // NOLINT
using namespace hpcbb::bench;  // NOLINT

// RandomWriter writes a record file per node (generate_ns), then Grep scans
// them all (job_s).
sim::Task<void> random_writer_grep(Cluster& c, FsKind kind,
                                   std::uint64_t records, Outcome& out) {
  mapred::GenerateParams gen;
  gen.files = static_cast<std::uint32_t>(c.compute_nodes().size());
  gen.records_per_file = records;
  mapred::GrepJob job;
  const std::string out_dir = "/out/grep";
  co_await record_job(c, kind, gen, job, out_dir, out);
}

}  // namespace

int main(int argc, char** argv) {
  JsonResult result =
      figure("F6", "I/O-intensive workloads: RandomWriter + Grep (8 nodes)",
             "significant benefit for I/O-intensive workloads");

  constexpr std::uint64_t kRecordsPerFile = 640000;  // ~64 MB per node
  Table table(result, "system",
              {{"RandomWriter", "random-writer-s", "%.2fs"},
               {"Grep(scan)", "grep-s", "%.2fs"},
               {"RandomWriter vs HDFS", "random-writer-vs-HDFS", "%.1fx"},
               {"Grep vs HDFS", "grep-vs-HDFS", "%.1fx"}},
              "dataset: 8 x " +
                  format_bytes(kRecordsPerFile * mapred::kRecordSize) +
                  " of 100-byte records");
  double hdfs_rw = 0, hdfs_grep = 0;
  for (const auto& system : all_systems()) {
    const Outcome o = run_case(
        default_config(system.scheme), [&](Cluster& c, Outcome& out) {
          return random_writer_grep(c, system.kind, kRecordsPerFile, out);
        });
    const double rw = ns_to_sec(o.generate_ns);
    const bool baseline = std::string(system.label) == "HDFS";
    if (baseline) {
      hdfs_rw = rw;
      hdfs_grep = o.job_s;
    }
    table.row(system.label,
              {rw, o.job_s, baseline ? kNone : ratio(hdfs_rw, rw),
               baseline ? kNone : ratio(hdfs_grep, o.job_s)},
              baseline ? "(baseline)" : "");
  }
  return finish(result, argc, argv);
}
