// Quickstart: build a simulated HPC cluster, write a file through the
// RDMA-KV burst buffer, watch it flush to Lustre, and read it back.
//
//   ./quickstart [key=value ...]     e.g.  ./quickstart bb.scheme=local
//
// Accepts every cluster key of examples/example.conf (bb.scheme,
// cluster.nodes, kv.servers, ...) plus file.size (e.g. 256m).
#include <cstdio>
#include <string>

#include "cluster/cluster.h"
#include "cluster/config.h"
#include "common/properties.h"
#include "common/strings.h"
#include "common/units.h"
#include "sim/sync.h"

namespace {

using namespace hpcbb;          // NOLINT
using namespace hpcbb::duration;  // NOLINT
using cluster::Cluster;
using cluster::FsKind;
using sim::Task;

struct DemoOptions {
  std::uint64_t file_size = 256 * MiB;
};

constexpr ConfigKey<DemoOptions> kDemoKeys[] = {
    {"file.size", ValueType::kSize, field<&DemoOptions::file_size>},
};

Task<void> demo(Cluster& c, std::uint64_t file_size) {
  fs::FileSystem& fs = c.filesystem(FsKind::kBurstBuffer);
  const net::NodeId writer_node = c.compute_nodes().front();
  const net::NodeId reader_node = c.compute_nodes().back();

  std::printf("== writing %s through %s from node %u ==\n",
              format_bytes(file_size).c_str(), fs.name().c_str(), writer_node);
  const sim::SimTime t0 = c.sim().now();
  auto writer = co_await fs.create("/demo/checkpoint.dat", writer_node);
  if (!writer.is_ok()) {
    std::printf("create failed: %s\n", writer.status().to_string().c_str());
    co_return;
  }
  for (std::uint64_t off = 0; off < file_size; off += 4 * MiB) {
    const std::uint64_t len = std::min<std::uint64_t>(4 * MiB, file_size - off);
    Status st = co_await writer.value()->append(
        make_bytes(pattern_bytes(/*seed=*/7, off, len)));
    if (!st.is_ok()) {
      std::printf("append failed: %s\n", st.to_string().c_str());
      co_return;
    }
  }
  Status st = co_await writer.value()->close();
  const sim::SimTime write_ns = c.sim().now() - t0;
  std::printf("write acked in %s  (%.0f MB/s)%s\n",
              format_duration_ns(write_ns).c_str(),
              throughput_mbps(file_size, write_ns),
              st.is_ok() ? "" : "  [CLOSE FAILED]");
  std::printf("dirty blocks awaiting flush: %llu\n",
              static_cast<unsigned long long>(c.bb_master().dirty_blocks()));

  // Wait for the asynchronous drain to Lustre.
  const sim::SimTime f0 = c.sim().now();
  co_await c.bb_master().wait_all_flushed();
  std::printf("flush to Lustre completed %s after the ack (%s durable)\n",
              format_duration_ns(c.sim().now() - f0).c_str(),
              format_bytes(c.bb_master().flushed_bytes()).c_str());

  // Read back (buffer-resident: RDMA speed) and verify every byte.
  const sim::SimTime r0 = c.sim().now();
  auto reader = co_await fs.open("/demo/checkpoint.dat", reader_node);
  if (!reader.is_ok()) {
    std::printf("open failed: %s\n", reader.status().to_string().c_str());
    co_return;
  }
  bool ok = true;
  for (std::uint64_t off = 0; off < file_size; off += 4 * MiB) {
    const std::uint64_t len = std::min<std::uint64_t>(4 * MiB, file_size - off);
    auto data = co_await reader.value()->read(off, len);
    if (!data.is_ok() || !verify_pattern(7, off, data.value())) {
      ok = false;
      break;
    }
  }
  const sim::SimTime read_ns = c.sim().now() - r0;
  std::printf("read back in %s (%.0f MB/s), content %s\n",
              format_duration_ns(read_ns).c_str(),
              throughput_mbps(file_size, read_ns),
              ok ? "verified" : "MISMATCH");
}

}  // namespace

int main(int argc, char** argv) {
  const Result<Properties> props = Properties::from_args(argc, argv);
  cluster::ClusterConfig config;
  DemoOptions options;
  const Status status =
      props.is_ok()
          ? cluster::apply_properties(props.value(), config, kDemoKeys, options)
          : props.status();
  if (!status.is_ok()) {
    std::fprintf(stderr, "bad config: %s\n", status.to_string().c_str());
    return 2;
  }

  std::printf("cluster: %u compute nodes, %u KV burst-buffer servers, "
              "%u OSS; scheme=%s\n",
              config.compute_nodes, config.kv_servers, config.oss_count,
              std::string(to_string(config.scheme)).c_str());

  Cluster cluster(config);
  cluster.sim().spawn(demo(cluster, options.file_size));
  cluster.sim().run();
  std::printf("simulation: %llu events, %s simulated\n",
              static_cast<unsigned long long>(cluster.sim().events_processed()),
              format_duration_ns(cluster.sim().now()).c_str());
  return 0;
}
