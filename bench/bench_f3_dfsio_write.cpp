// F3 — TestDFSIO write throughput: HDFS vs Lustre vs the three burst-buffer
// schemes across dataset sizes. Headline claim: BB write throughput up to
// 2.6x HDFS and 1.5x Lustre. Scaled-down sweep: the paper sweeps 20-80 GB on
// 128 MiB blocks; we run 0.25-1 GB on 32 MiB blocks (EXPERIMENTS.md
// "Scaling").
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace hpcbb::bench;  // NOLINT
  JsonResult result =
      figure("F3", "TestDFSIO write throughput (aggregate MB/s, 8 nodes)",
             "write up to 2.6x over HDFS and 1.5x over Lustre");
  dfsio_sweep(result, dfsio_write, &Outcome::write_mbps);
  return finish(result, argc, argv);
}
