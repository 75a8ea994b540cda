// A2 (ablation/extension) — read promotion: after the buffer has lost its
// copy (restart/eviction), repeated reads of a hot input either keep paying
// the Lustre price (promotion off — the paper's base design) or return to
// RDMA speed after the first pass (promotion on — buffer as read cache).
#include <vector>

#include "bench_util.h"

namespace {

using namespace hpcbb;         // NOLINT
using namespace hpcbb::bench;  // NOLINT

constexpr int kPasses = 3;

struct PassOutcome : Outcome {
  std::vector<double> pass_mbps;
};

sim::Task<void> cold_passes(Cluster& c, PassOutcome& out) {
  const auto kind = FsKind::kBurstBuffer;
  const mapred::DfsioParams params{.files = 8, .file_size = 32 * MiB};
  co_await dfsio_write(c, kind, params, out);
  if (!out.write_ok) co_return;
  co_await c.bb_master().wait_all_flushed();
  // Cold buffer: restart the KV tier (contents gone, Lustre has all).
  for (std::uint32_t i = 0; i < c.kv_server_count(); ++i) {
    c.kv_server(i).crash();
    c.kv_server(i).restart();
  }
  for (int pass = 0; pass < kPasses; ++pass) {
    auto read_result = co_await mapred::dfsio_read(
        c.filesystem(kind), c.hub_for(kind), c.compute_nodes(), params);
    if (!read_result.is_ok()) co_return;
    out.pass_mbps.push_back(read_result.value().aggregate_mbps);
    co_await c.sim().delay(50 * duration::ms);  // let promotions land
  }
}

}  // namespace

int main(int argc, char** argv) {
  JsonResult result =
      figure("A2 (ablation)",
             "read promotion: repeated reads of a cold (flushed) dataset",
             "with promotion the second pass returns to buffer speed");

  std::vector<Column> columns;
  for (int p = 1; p <= kPasses; ++p) {
    const std::string pass = "pass" + std::to_string(p);
    columns.push_back({pass + " MB/s", "{row}-mbps", "%.0f", 1,
                       nullptr, pass});
  }
  Table table(result, "mode", columns);
  for (const bool promote : {false, true}) {
    ClusterConfig config = default_config(bb::Scheme::kAsync);
    config.bb_promote_on_read = promote;
    const auto o = run_case<PassOutcome>(config, cold_passes);
    std::vector<double> row = o.pass_mbps;
    row.resize(kPasses, kNone);
    table.row(promote ? "promotion-on" : "promotion-off", row);
  }
  return finish(result, argc, argv);
}
