// A1 (ablation) — what does RDMA buy the burst buffer? Run the identical
// BB-Async stack over native verbs vs IPoIB vs 10GigE and compare DFSIO
// write/read. In this paper series the RDMA transport is the foundation:
// socket transports erase most of the read gain and a chunk of the write
// gain.
#include <utility>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace hpcbb;         // NOLINT
  using namespace hpcbb::bench;  // NOLINT
  JsonResult result =
      figure("A1 (ablation)",
             "the burst buffer over RDMA vs socket transports",
             "RDMA is load-bearing: socket transports forfeit most of the "
             "read gain");

  const std::vector<std::pair<const char*, net::TransportKind>> transports = {
      {"RDMA", net::TransportKind::kRdma},
      {"IPoIB", net::TransportKind::kIpoib},
      {"10GigE", net::TransportKind::kTenGigE}};

  Table table(result, "transport",
              {{"write MB/s", "write-mbps"},
               {"read MB/s", "read-mbps"},
               {"read loss vs RDMA", "read-loss-vs-RDMA", "%.1fx"}});
  double rdma_read = 0;
  for (const auto& [label, kind] : transports) {
    ClusterConfig config = default_config(bb::Scheme::kAsync);
    config.fast_transport = kind;  // the whole BB + Lustre stack's transport
    const Outcome o = run_case(config, [](Cluster& c, Outcome& out) {
      return dfsio_write_read(c, FsKind::kBurstBuffer,
                              {.files = 8, .file_size = 64 * MiB}, out);
    });
    const bool baseline = std::string(label) == "RDMA";
    if (baseline) rdma_read = o.read_mbps;
    table.row(label,
              {o.write_mbps, o.read_mbps,
               baseline ? kNone : ratio(rdma_read, o.read_mbps)},
              baseline ? "(baseline)" : "");
  }
  return finish(result, argc, argv);
}
