// F7 — Scheme ablation: the three burst-buffer schemes against the axes the
// paper designed them for — write ack time (I/O), map locality
// (data-locality), and the durability window (fault-tolerance).
#include <cstdio>

#include "bench_util.h"

namespace {

using namespace hpcbb;         // NOLINT
using namespace hpcbb::bench;  // NOLINT
using sim::SimTime;

struct SchemeOutcome : Outcome {
  SimTime durability_window = 0;  // last ack -> all blocks durable
  std::uint64_t local_bytes = 0;  // node-local storage consumed
};

// A DFSIO write (ack time = write_ns), the flush that makes it durable,
// then a Sort for its map locality.
sim::Task<void> scheme_task(Cluster& c, SchemeOutcome& out) {
  const auto kind = FsKind::kBurstBuffer;
  const mapred::DfsioParams dfsio{.files = 8, .file_size = 64 * MiB};
  co_await dfsio_write(c, kind, dfsio, out);
  if (!out.write_ok) co_return;
  const SimTime ack_done = c.sim().now();
  co_await c.bb_master().wait_all_flushed();
  out.durability_window = c.sim().now() - ack_done;
  out.local_bytes = c.total_local_bytes_used();
  const SortParams sort_params{.files = 8, .records_per_file = 320000};
  co_await sort(c, kind, sort_params, out);
}

}  // namespace

int main(int argc, char** argv) {
  JsonResult result =
      figure("F7", "scheme ablation: I/O vs data-locality vs fault-tolerance",
             "three schemes trade write latency, locality, durability");

  Table table(result, "scheme",
              {{"write(512MiB)", "write-ack-s", "%.2fs"},
               {"durability window", "durability-window-s", "%.2fs"},
               {"map locality", "map-locality", "", 1, percent_text},
               {"local bytes", "local-bytes", "", 1, bytes_text}});
  for (const bb::Scheme scheme :
       {bb::Scheme::kAsync, bb::Scheme::kSync, bb::Scheme::kLocal}) {
    const SchemeOutcome o =
        run_case<SchemeOutcome>(default_config(scheme), scheme_task);
    table.row(std::string(to_string(scheme)),
              {ns_to_sec(o.write_ns), ns_to_sec(o.durability_window),
               o.locality, static_cast<double>(o.local_bytes)});
  }
  std::printf("\nexpected shape: Async fastest ack but longest window; Sync "
              "zero window,\nslowest ack; Local adds locality and a RAM-disk "
              "copy for modest local storage.\n");
  return finish(result, argc, argv);
}
