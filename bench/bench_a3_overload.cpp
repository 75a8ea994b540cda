// A3 — sustained overload and flow control: BB-Async writers drive a burst
// several times larger than the buffer, i.e. the KV servers ingest far
// faster than Lustre can drain. The flow-control subsystem must (1) keep
// dirty+reserved bytes bounded by the high watermark (± one in-flight
// block), (2) delay — never fail — every write, and (3) converge the
// sustained throughput toward the Lustre drain rate while clean blocks are
// evicted to make room. Reports throughput, p99 admission stall, and the
// dirty-bytes bound check per overload factor.
#include <cstdio>
#include <vector>

#include "bench_util.h"

namespace {

using namespace hpcbb;          // NOLINT
using hpcbb::bench::Cluster;
using sim::Task;

struct OverloadPoint {
  double write_mbps = 0;
  sim::SimTime p99_stall_ns = 0;
  std::uint64_t stalls = 0;
  std::uint64_t peak_dirty = 0;
  std::uint64_t high_bytes = 0;
  std::uint64_t block_size = 0;
  std::uint64_t evicted_bytes = 0;
  std::uint64_t urgent_flushes = 0;
  std::uint64_t lost_blocks = 0;
  bool all_acked = false;

  [[nodiscard]] bool dirty_bounded() const {
    return peak_dirty <= high_bytes + block_size;
  }
};

OverloadPoint run_case(std::uint64_t buffer_total, std::uint64_t dataset) {
  cluster::ClusterConfig config =
      hpcbb::bench::default_config(bb::Scheme::kAsync);
  config.kv_memory_per_server = buffer_total / config.kv_servers;
  Cluster cluster(config);
  OverloadPoint point;
  hpcbb::bench::run_to_completion(
      cluster, [](Cluster& c, std::uint64_t data_total,
                  OverloadPoint& out) -> Task<void> {
        const auto kind = cluster::FsKind::kBurstBuffer;
        mapred::DfsioParams params;
        params.files = 8;
        params.file_size = data_total / 8;
        auto result = co_await mapred::dfsio_write(
            c.filesystem(kind), c.hub_for(kind), c.compute_nodes(), params);
        if (!result.is_ok()) co_return;
        out.all_acked = true;  // every write completed (delayed, not failed)
        out.write_mbps = result.value().aggregate_mbps;
        co_await c.bb_master().wait_all_flushed();
      }(cluster, dataset, point));

  const auto& fc = cluster.bb_master().flow_control();
  auto& metrics = cluster.sim().metrics();
  // No stalls at low offered load is a real 0, not "no data" — fold the
  // never-recorded case back to 0 explicitly.
  point.p99_stall_ns =
      metrics.histogram_quantile("flowctl.stall_ns", 0.99).value_or(0);
  point.stalls = metrics.counter("flowctl.stalls").get();
  point.peak_dirty = fc.peak_dirty_bytes();
  point.high_bytes = fc.high_bytes();
  point.block_size = cluster.bb_master().common().block_size;
  point.evicted_bytes = metrics.counter("flowctl.evicted_bytes").get();
  point.urgent_flushes = metrics.counter("flowctl.urgent_flushes").get();
  point.lost_blocks = cluster.bb_master().lost_blocks();
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  using hpcbb::bench::print_header;
  print_header("A3", "flow control under sustained overload (BB-Async)",
               "dirty bytes stay bounded by the high watermark and writes "
               "are delayed, never rejected, as the burst exceeds the "
               "buffer by 2-4x");
  hpcbb::bench::JsonResult result(
      "a3", "flow control under sustained overload (BB-Async)");

  constexpr std::uint64_t kBufferTotal = 512 * MiB;
  const std::vector<double> overload_factors = {0.5, 1.0, 2.0, 4.0};

  std::printf("\n%-10s  %10s  %12s  %8s  %14s  %12s  %8s  %9s  %6s\n",
              "burst/buf", "MB/s", "p99 stall", "stalls", "peak dirty",
              "evicted", "urgent", "bounded", "acked");
  bool all_ok = true;
  for (const double factor : overload_factors) {
    const auto dataset = static_cast<std::uint64_t>(
        factor * static_cast<double>(kBufferTotal));
    const OverloadPoint point = run_case(kBufferTotal, dataset);
    std::printf(
        "%-10.1f  %10.0f  %12s  %8llu  %14s  %12s  %8llu  %9s  %6s\n", factor,
        point.write_mbps, format_duration_ns(point.p99_stall_ns).c_str(),
        static_cast<unsigned long long>(point.stalls),
        format_bytes(point.peak_dirty).c_str(),
        format_bytes(point.evicted_bytes).c_str(),
        static_cast<unsigned long long>(point.urgent_flushes),
        point.dirty_bounded() ? "yes" : "NO",
        point.all_acked && point.lost_blocks == 0 ? "yes" : "NO");
    all_ok = all_ok && point.dirty_bounded() && point.all_acked &&
             point.lost_blocks == 0;
    char x[16];
    std::snprintf(x, sizeof x, "%.1f", factor);
    result.add("write-mbps", x, point.write_mbps);
    result.add("p99-stall-ns", x, static_cast<double>(point.p99_stall_ns));
    result.add("stalls", x, static_cast<double>(point.stalls));
    result.add("peak-dirty-bytes", x, static_cast<double>(point.peak_dirty));
    result.add("evicted-bytes", x, static_cast<double>(point.evicted_bytes));
  }
  std::printf("\n%s: dirty bytes %s bounded by the high watermark "
              "(+1 block) and all writes acked\n",
              all_ok ? "PASS" : "FAIL", all_ok ? "stayed" : "were NOT");
  const int gate_rc = hpcbb::bench::finish(result, argc, argv);
  return all_ok ? gate_rc : 1;
}
