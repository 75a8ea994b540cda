// F10 — weak scaling: aggregate DFSIO write/read throughput as the cluster
// grows, fixed data per node. The burst-buffer advantage must hold (or
// grow) with scale, since the KV tier scales with the cluster while Lustre
// stays fixed.
#include <algorithm>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace hpcbb;         // NOLINT
  using namespace hpcbb::bench;  // NOLINT
  JsonResult result =
      figure("F10", "weak scaling: aggregate MB/s, 64 MiB per node",
             "BB advantage holds as the cluster grows");

  const std::vector<std::uint32_t> node_counts = {4, 8, 16};
  std::vector<SystemCase> systems = all_systems();
  systems.resize(3);  // HDFS, Lustre, BB-Async

  std::vector<Column> columns;
  for (const auto& system : systems) {
    const std::string label = system.label;
    columns.push_back({label + "-wr", label + "-write-mbps"});
    columns.push_back({label + "-rd", label + "-read-mbps"});
  }
  Table table(result, "nodes", columns);
  for (const std::uint32_t nodes : node_counts) {
    std::vector<double> row;
    for (const auto& system : systems) {
      ClusterConfig config = default_config(system.scheme);
      config.compute_nodes = nodes;
      config.kv_servers = std::max(2u, nodes / 2);  // BB tier scales with nodes
      const Outcome o = run_case(config, [&](Cluster& c, Outcome& out) {
        return dfsio_write_read(c, system.kind,
                                {.files = nodes, .file_size = 64 * MiB}, out);
      });
      row.push_back(o.write_mbps);
      row.push_back(o.read_mbps);
    }
    table.row(std::to_string(nodes), row);
  }
  return finish(result, argc, argv);
}
