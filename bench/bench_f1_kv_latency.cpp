// F1 — KV operation latency: RDMA vs IPoIB vs 10GigE vs 1GigE, set/get
// latency across value sizes. The enabling microbenchmark of the paper:
// native-verbs KV ops are roughly an order of magnitude faster than the
// socket paths for small and mid-size values.
#include <vector>

#include "bench_util.h"

namespace {

using namespace hpcbb;          // NOLINT
using sim::SimTime;
using sim::Task;

struct OpLatency {
  SimTime set_ns = 0;
  SimTime get_ns = 0;
};

OpLatency measure(net::TransportKind kind, std::uint64_t value_size) {
  bench::KvRig rig(kind, 1, 1, 256 * MiB);
  sim::Simulation& sim = rig.sim;
  OpLatency result;
  sim.spawn([](sim::Simulation& s, kv::Client& c, std::uint64_t size,
               OpLatency& out) -> Task<void> {
    // Warm-up op to populate connection-independent state.
    (void)co_await c.set("warm", make_bytes(Bytes(64, 1)));
    constexpr int kReps = 20;
    SimTime set_total = 0, get_total = 0;
    for (int i = 0; i < kReps; ++i) {
      const std::string key = "key-" + std::to_string(i);
      SimTime t0 = s.now();
      (void)co_await c.set(key, make_bytes(Bytes(size, 0xAA)));
      set_total += s.now() - t0;
      t0 = s.now();
      (void)co_await c.get(key);
      get_total += s.now() - t0;
    }
    out.set_ns = set_total / kReps;
    out.get_ns = get_total / kReps;
  }(sim, *rig.clients[0], value_size, result));
  sim.run();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hpcbb::bench;  // NOLINT
  JsonResult result =
      figure("F1", "KV store op latency by transport and value size",
             "RDMA ops ~an order of magnitude faster than socket paths");

  const std::vector<std::pair<const char*, hpcbb::net::TransportKind>>
      transports = {{"RDMA", hpcbb::net::TransportKind::kRdma},
                    {"IPoIB", hpcbb::net::TransportKind::kIpoib},
                    {"10GigE", hpcbb::net::TransportKind::kTenGigE},
                    {"1GigE", hpcbb::net::TransportKind::kGigE}};
  const std::vector<std::uint64_t> sizes = {1 * KiB,  4 * KiB,   16 * KiB,
                                            64 * KiB, 256 * KiB, 1 * MiB};

  std::vector<Column> columns;
  for (const auto& [label, kind] : transports) {
    for (const char* op : {"set", "get"}) {
      const std::string name = std::string(label) + "-" + op;
      columns.push_back({name, name + "-ns", "%.1fus", 1000.0});
    }
  }
  columns.push_back({"RDMA-get-speedup-vs-IPoIB", "RDMA-get-speedup-vs-IPoIB",
                     "%.1fx"});
  Table table(result, "value", columns);
  for (const std::uint64_t size : sizes) {
    std::vector<double> row;
    for (const auto& [label, kind] : transports) {
      const OpLatency lat = measure(kind, size);
      row.push_back(static_cast<double>(lat.set_ns));
      row.push_back(static_cast<double>(lat.get_ns));
    }
    row.push_back(ratio(row[3], row[1]));  // IPoIB-get over RDMA-get
    table.row(hpcbb::format_bytes(size), row);
  }
  return finish(result, argc, argv);
}
