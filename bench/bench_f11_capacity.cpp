// F11 — buffer capacity sensitivity: BB-Async write throughput as the KV
// memory shrinks relative to the burst. With ample memory the buffer
// absorbs the whole burst at RDMA speed; as it shrinks, admission control +
// eviction backpressure throttle the writer toward the Lustre drain rate.
#include <cstdio>
#include <vector>

#include "bench_util.h"

namespace {

using namespace hpcbb;         // NOLINT
using namespace hpcbb::bench;  // NOLINT

struct CapacityOutcome : Outcome {
  std::uint64_t backpressure_retries = 0;
  std::uint64_t evictions = 0;
};

// An 8-file DFSIO write of `dataset` bytes, and the backpressure it met.
sim::Task<void> burst(Cluster& c, std::uint64_t dataset, CapacityOutcome& out) {
  const mapred::DfsioParams dfsio{.files = 8, .file_size = dataset / 8};
  co_await dfsio_write(c, FsKind::kBurstBuffer, dfsio, out);
  if (!out.write_ok) co_return;
  out.backpressure_retries =
      c.sim().metrics().counter_value("bb.store.backpressure_retries");
  for (std::uint32_t i = 0; i < c.kv_server_count(); ++i) {
    out.evictions += c.kv_server(i).store().stats().evictions;
  }
}

}  // namespace

int main(int argc, char** argv) {
  JsonResult result =
      figure("F11", "buffer capacity sensitivity (BB-Async, 1 GiB burst)",
             "throughput degrades gracefully toward the flush rate as the "
             "buffer shrinks below the burst size");

  constexpr std::uint64_t kDataset = 1 * GiB;
  const std::vector<double> capacity_ratios = {0.25, 0.5, 1.0, 2.0, 4.0};

  Table table(result, "buffer/burst",
              {{"MB/s", "write-mbps"},
               {"backpressure retries", "backpressure-retries"},
               {"evictions", "evictions"}});
  for (const double capacity : capacity_ratios) {
    ClusterConfig config = default_config(bb::Scheme::kAsync);
    config.kv_memory_per_server =
        static_cast<std::uint64_t>(capacity * static_cast<double>(kDataset)) /
        config.kv_servers;
    const auto o = run_case<CapacityOutcome>(
        config, [](Cluster& c, CapacityOutcome& out) {
          return burst(c, kDataset, out);
        });
    char x[16];
    std::snprintf(x, sizeof x, "%.2f", capacity);
    table.row(x, {o.write_mbps, static_cast<double>(o.backpressure_retries),
                  static_cast<double>(o.evictions)});
  }
  return finish(result, argc, argv);
}
