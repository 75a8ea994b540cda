// F8 — fault tolerance: crash one burst-buffer server immediately after the
// write burst is acknowledged (worst case: nothing flushed yet) and measure
// per scheme what survives; plus HDFS DataNode-loss re-replication for
// comparison.
#include "bench_util.h"

namespace {

using namespace hpcbb;         // NOLINT
using namespace hpcbb::bench;  // NOLINT

const mapred::DfsioParams kDfsio{.files = 8, .file_size = 64 * MiB};

sim::Task<void> crash_after_ack(Cluster& c, Outcome& out) {
  co_await dfsio_write(c, FsKind::kBurstBuffer, kDfsio, out);
  if (!out.write_ok) co_return;
  // Crash one of the KV servers the moment the burst is acked. Routed
  // through the fault injector so the crash is counted and traced
  // (faults.injected{kind=crash}) like any scheduled fault.
  c.injector().crash_target(0);
  co_await c.bb_master().wait_all_flushed();
  out.blocks_lost = c.bb_master().lost_blocks();
  out.blocks_recovered = c.bb_master().recovered_blocks();
  // How many files remain fully readable (from any source)?
  co_await verified_readback(c, kDfsio, {}, out);
}

// HDFS loses a DataNode after the same burst: the NameNode re-replicates
// its blocks (blocks_recovered), then every file is read whole from node 1.
sim::Task<void> hdfs_datanode_loss(Cluster& c, Outcome& out) {
  const auto kind = FsKind::kHdfs;
  co_await dfsio_write(c, kind, kDfsio, out);
  if (!out.write_ok) co_return;
  c.datanode(0).crash();
  out.blocks_recovered = c.namenode().mark_datanode_dead(0);
  for (std::uint32_t i = 0; i < kDfsio.files; ++i) {
    const std::string path = kDfsio.dir + "/io_file_" + std::to_string(i);
    auto reader = co_await c.filesystem(kind).open(path, 1);
    if (!reader.is_ok()) continue;
    auto data = co_await reader.value()->read(0, reader.value()->size());
    if (data.is_ok()) ++out.files_readable;
  }
}

}  // namespace

int main(int argc, char** argv) {
  print_header("F8",
               "fault tolerance: 1 of 4 buffer servers crashes right after "
               "the write burst ack",
               "Sync loses nothing; Local recovers from RAM-disk replicas; "
               "Async has a durability window");
  JsonResult result(
      "f8", "fault tolerance: buffer-server crash after write-burst ack");

  const std::string of_files = "%.0f/" + std::to_string(kDfsio.files);
  Table table(result, "scheme",
              {{"lost", "blocks-lost"},
               {"recovered", "blocks-recovered"},
               {"re-replicated", "re-replicated"},
               {"files readable", "files-readable", of_files}});
  for (const bb::Scheme scheme :
       {bb::Scheme::kAsync, bb::Scheme::kSync, bb::Scheme::kLocal}) {
    const Outcome o = run_case(default_config(scheme), crash_after_ack);
    table.row(std::string(to_string(scheme)),
              {static_cast<double>(o.blocks_lost),
               static_cast<double>(o.blocks_recovered), kNone,
               static_cast<double>(o.files_readable)});
  }
  const Outcome hdfs =
      run_case(default_config(bb::Scheme::kAsync), hdfs_datanode_loss);
  table.row("HDFS", {kNone, kNone, static_cast<double>(hdfs.blocks_recovered),
                     static_cast<double>(hdfs.files_readable)});
  return finish(result, argc, argv);
}
