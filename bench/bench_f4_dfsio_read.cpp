// F4 — TestDFSIO read throughput, buffer-resident and after flush+crash
// (Lustre fallback). Headline claim: read gains up to 8x.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace hpcbb::bench;  // NOLINT
  JsonResult result =
      figure("F4", "TestDFSIO read throughput (aggregate MB/s, 8 nodes)",
             "read gains up to 8x (buffer-resident data at RDMA speed)");
  dfsio_sweep(result, dfsio_write_read, &Outcome::read_mbps);
  return finish(result, argc, argv);
}
