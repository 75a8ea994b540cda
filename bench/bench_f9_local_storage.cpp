// F9 — node-local storage requirement: bytes of compute-node-local storage
// consumed by a DFSIO write, per system. The paper's deployment motivation:
// HPC compute nodes have little local storage; the burst buffer frees it.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"

namespace {

using namespace hpcbb;         // NOLINT
using namespace hpcbb::bench;  // NOLINT

struct StorageOutcome : Outcome {
  std::uint64_t total_local = 0;
  std::uint64_t max_node_local = 0;
  std::uint64_t lustre_bytes = 0;
  std::uint64_t buffer_bytes = 0;
};

// A 512 MiB DFSIO write (8 files of 64 MiB), flushed if buffered, then
// where its bytes sit.
sim::Task<void> storage_task(Cluster& c, FsKind kind, StorageOutcome& out) {
  const mapred::DfsioParams dfsio{.files = 8, .file_size = 64 * MiB};
  co_await dfsio_write(c, kind, dfsio, out);
  if (!out.write_ok) co_return;
  if (kind == FsKind::kBurstBuffer) co_await c.bb_master().wait_all_flushed();
  out.total_local = c.total_local_bytes_used();
  for (std::uint32_t i = 0; i < c.config().compute_nodes; ++i) {
    out.max_node_local = std::max(out.max_node_local, c.local_bytes_used(i));
  }
  for (std::uint32_t i = 0; i < c.oss_count(); ++i) {
    out.lustre_bytes += c.oss(i).used_bytes();
  }
  for (std::uint32_t i = 0; i < c.kv_server_count(); ++i) {
    out.buffer_bytes += c.kv_server(i).store().stats().bytes;
  }
}

}  // namespace

int main(int argc, char** argv) {
  JsonResult result =
      figure("F9", "node-local storage consumed by a 512 MiB DFSIO write",
             "reduced local storage requirement vs HDFS's 3x replication");

  Table table(result, "system",
              {{"local (total)", "local-total-bytes", "", 1, bytes_text},
               {"local (max/node)", "local-max-node-bytes", "", 1, bytes_text},
               {"on Lustre", "lustre-bytes", "", 1, bytes_text},
               {"in buffer", "buffer-bytes", "", 1, bytes_text}});
  for (const auto& system : all_systems()) {
    const auto o = run_case<StorageOutcome>(
        default_config(system.scheme),
        [&](Cluster& c, StorageOutcome& out) {
          return storage_task(c, system.kind, out);
        });
    table.row(system.label,
              {static_cast<double>(o.total_local),
               static_cast<double>(o.max_node_local),
               static_cast<double>(o.lustre_bytes),
               static_cast<double>(o.buffer_bytes)});
  }
  std::printf("\nexpected: HDFS 1.5 GiB local (3x replicas); BB-Async/Sync "
              "zero local;\nBB-Local 512 MiB (one RAM-disk replica).\n");
  return finish(result, argc, argv);
}
