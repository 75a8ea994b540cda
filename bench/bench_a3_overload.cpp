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

using namespace hpcbb;         // NOLINT
using namespace hpcbb::bench;  // NOLINT

struct OverloadOutcome : Outcome {
  bool dirty_bounded = false;  // peak dirty <= high watermark + one block
  bool acked = false;          // every write delayed, not failed, none lost
  std::uint64_t peak_dirty = 0;
};

// The burst, then the drain; every write completing means it was delayed,
// not failed.
sim::Task<void> overload(Cluster& c, std::uint64_t dataset,
                         OverloadOutcome& out) {
  const mapred::DfsioParams dfsio{.files = 8, .file_size = dataset / 8};
  co_await dfsio_write(c, FsKind::kBurstBuffer, dfsio, out);
  if (out.write_ok) co_await c.bb_master().wait_all_flushed();
}

void read_flow_control(Cluster& c, OverloadOutcome& out) {
  const auto& fc = c.bb_master().flow_control();
  out.peak_dirty = fc.peak_dirty_bytes();
  out.dirty_bounded =
      out.peak_dirty <= fc.high_bytes() + c.bb_master().common().block_size;
  out.acked = out.write_ok && c.bb_master().lost_blocks() == 0;
}

}  // namespace

int main(int argc, char** argv) {
  JsonResult result =
      figure("A3", "flow control under sustained overload (BB-Async)",
             "dirty bytes stay bounded by the high watermark and writes are "
             "delayed, never rejected, as the burst exceeds the buffer by "
             "2-4x");

  constexpr std::uint64_t kBufferTotal = 512 * MiB;
  const std::vector<double> overload_factors = {0.5, 1.0, 2.0, 4.0};

  Table table(result, "burst/buf",
              {{"MB/s", "write-mbps"},
               {"p99 stall", "p99-stall-ns", "", 1, duration_text},
               {"stalls", "stalls"},
               {"peak dirty", "peak-dirty-bytes", "", 1, bytes_text},
               {"evicted", "evicted-bytes", "", 1, bytes_text},
               {"urgent", "urgent-flushes"},
               {"bounded", "dirty-bounded", "", 1, flag_text},
               {"acked", "all-acked", "", 1, flag_text}});
  bool all_ok = true;
  for (const double factor : overload_factors) {
    ClusterConfig config = default_config(bb::Scheme::kAsync);
    config.kv_memory_per_server = kBufferTotal / config.kv_servers;
    const auto dataset = static_cast<std::uint64_t>(
        factor * static_cast<double>(kBufferTotal));
    const auto o = run_case<OverloadOutcome>(
        config,
        [dataset](Cluster& c, OverloadOutcome& out) {
          return overload(c, dataset, out);
        },
        read_flow_control);
    all_ok = all_ok && o.dirty_bounded && o.acked;
    char x[16];
    std::snprintf(x, sizeof x, "%.1f", factor);
    const Metrics& m = o.metrics;
    table.row(x, {o.write_mbps,
                  static_cast<double>(m.histogram("flowctl.stall_ns").p99),
                  m.counter("flowctl.stalls"),
                  static_cast<double>(o.peak_dirty),
                  m.counter("flowctl.evicted_bytes"),
                  m.counter("flowctl.urgent_flushes"),
                  o.dirty_bounded ? 1.0 : 0.0, o.acked ? 1.0 : 0.0});
  }
  std::printf("\n%s: dirty bytes %s bounded by the high watermark "
              "(+1 block) and all writes acked\n",
              all_ok ? "PASS" : "FAIL", all_ok ? "stayed" : "were NOT");
  const int gate_rc = finish(result, argc, argv);
  return all_ok ? gate_rc : 1;
}
