// F2 — KV aggregate throughput vs client count and server count: the burst
// buffer must absorb many concurrent writers; throughput should scale with
// servers and saturate the fabric, with RDMA far above IPoIB.
#include <tuple>
#include <vector>

#include "bench_util.h"

namespace {

using namespace hpcbb;          // NOLINT
using net::NodeId;
using sim::Task;

double aggregate_mbps(net::TransportKind kind, std::uint32_t clients,
                      std::uint32_t servers, std::uint64_t value_size,
                      std::uint32_t ops_per_client) {
  bench::KvRig rig(kind, clients, servers, 2 * GiB / servers);
  for (NodeId c = 0; c < clients; ++c) {
    rig.sim.spawn([](kv::Client& client, NodeId id, std::uint32_t ops,
                     std::uint64_t size) -> Task<void> {
      for (std::uint32_t i = 0; i < ops; ++i) {
        // Appends only: GCC 12 at -O3 reports a false -Wrestrict inside
        // libstdc++ for "literal" + std::string (GCC bug 105651).
        std::string key = "c";
        key += std::to_string(id);
        key += '-';
        key += std::to_string(i);
        (void)co_await client.set(key, make_bytes(Bytes(size, 0x5A)));
      }
    }(*rig.clients[c], c, ops_per_client, value_size));
  }
  rig.sim.run();
  const std::uint64_t total =
      static_cast<std::uint64_t>(clients) * ops_per_client * value_size;
  return throughput_mbps(total, rig.sim.now());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hpcbb::bench;  // NOLINT
  JsonResult result =
      figure("F2", "KV aggregate SET throughput (512 KiB values)",
             "burst absorption scales with servers; RDMA >> IPoIB");

  const std::vector<std::uint32_t> client_counts = {1, 4, 16, 64};
  const std::vector<std::uint32_t> server_counts = {1, 2, 4, 8};
  constexpr std::uint64_t kValue = 512 * KiB;

  for (const auto& [name, prefix, kind] :
       {std::tuple{"RDMA", "rdma", hpcbb::net::TransportKind::kRdma},
        std::tuple{"IPoIB", "ipoib", hpcbb::net::TransportKind::kIpoib}}) {
    // A row per client count, a column per server count: each row is its
    // own series, and the server count is the point's x.
    std::vector<Column> columns;
    for (const std::uint32_t s : server_counts) {
      columns.push_back({std::to_string(s),
                         std::string(prefix) + "-c{row}-mbps", "%.0f", 1,
                         nullptr, std::to_string(s)});
    }
    Table table(result, "clients \\ servers", columns,
                std::string("(MB/s, ") + name + ")");
    for (const std::uint32_t c : client_counts) {
      std::vector<double> row;
      for (const std::uint32_t s : server_counts) {
        row.push_back(aggregate_mbps(kind, c, s, kValue, 24));
      }
      table.row(std::to_string(c), row);
    }
  }
  return finish(result, argc, argv);
}
