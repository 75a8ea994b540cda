// F2 — KV aggregate throughput vs client count and server count: the burst
// buffer must absorb many concurrent writers; throughput should scale with
// servers and saturate the fabric, with RDMA far above IPoIB.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "kvstore/client.h"
#include "kvstore/server.h"

namespace {

using namespace hpcbb;          // NOLINT
using namespace hpcbb::duration;  // NOLINT
using net::NodeId;
using sim::SimTime;
using sim::Task;

double run_case(net::TransportKind kind, std::uint32_t clients,
                std::uint32_t servers, std::uint64_t value_size,
                std::uint32_t ops_per_client) {
  sim::Simulation sim;
  net::Fabric fabric(sim, clients + servers, net::FabricParams{});
  net::Transport transport(fabric, net::transport_preset(kind));
  net::RpcHub hub(transport);

  std::vector<std::unique_ptr<kv::Server>> server_objs;
  std::vector<NodeId> server_nodes;
  for (std::uint32_t s = 0; s < servers; ++s) {
    kv::ServerParams params;
    params.store.memory_budget = 2 * GiB / servers;
    server_objs.push_back(
        std::make_unique<kv::Server>(hub, clients + s, params));
    server_nodes.push_back(clients + s);
  }

  std::vector<std::unique_ptr<kv::Client>> client_objs;
  for (NodeId c = 0; c < clients; ++c) {
    client_objs.push_back(std::make_unique<kv::Client>(hub, c, server_nodes));
    sim.spawn([](kv::Client& client, NodeId id, std::uint32_t ops,
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
    }(*client_objs.back(), c, ops_per_client, value_size));
  }
  sim.run();
  const std::uint64_t total =
      static_cast<std::uint64_t>(clients) * ops_per_client * value_size;
  return throughput_mbps(total, sim.now());
}

}  // namespace

int main(int argc, char** argv) {
  using hpcbb::bench::print_header;
  print_header("F2", "KV aggregate SET throughput (512 KiB values)",
               "burst absorption scales with servers; RDMA >> IPoIB");
  hpcbb::bench::JsonResult result(
      "f2", "KV aggregate SET throughput (512 KiB values)");

  const std::vector<std::uint32_t> client_counts = {1, 4, 16, 64};
  const std::vector<std::uint32_t> server_counts = {1, 2, 4, 8};
  constexpr std::uint64_t kValue = 512 * KiB;

  std::printf("\n%-22s", "clients \\ servers");
  for (const std::uint32_t s : server_counts) std::printf("  %6u", s);
  std::printf("   (MB/s, RDMA)\n");
  for (const std::uint32_t c : client_counts) {
    std::printf("%-22u", c);
    for (const std::uint32_t s : server_counts) {
      const double mbps = run_case(hpcbb::net::TransportKind::kRdma, c, s,
                                   kValue, 24);
      std::printf("  %6.0f", mbps);
      result.add("rdma-c" + std::to_string(c) + "-mbps", s, mbps);
    }
    std::printf("\n");
  }

  std::printf("\n%-22s", "clients \\ servers");
  for (const std::uint32_t s : server_counts) std::printf("  %6u", s);
  std::printf("   (MB/s, IPoIB)\n");
  for (const std::uint32_t c : client_counts) {
    std::printf("%-22u", c);
    for (const std::uint32_t s : server_counts) {
      const double mbps = run_case(hpcbb::net::TransportKind::kIpoib, c, s,
                                   kValue, 24);
      std::printf("  %6.0f", mbps);
      result.add("ipoib-c" + std::to_string(c) + "-mbps", s, mbps);
    }
    std::printf("\n");
  }
  return hpcbb::bench::finish(result, argc, argv);
}
