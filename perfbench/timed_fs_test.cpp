// TimedFileSystem must be invisible: the same statuses and bytes as the file
// system it wraps, and a simulation that ends at the same instant after the
// same number of events.
#include "timed_fs.h"

#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.h"
#include "common/bytes.h"

namespace hpcbb::perfbench {
namespace {

using cluster::Cluster;
using cluster::FsKind;
using sim::Task;

constexpr std::uint64_t kChunk = 1 * MiB;
constexpr std::uint64_t kSeed = 7;

struct Outcome {
  std::vector<StatusCode> codes;  // every call's status, in call order
  Bytes read_back;
  std::uint64_t stat_size = 0;
  sim::SimTime end_ns = 0;
  std::uint64_t events = 0;
};

Task<void> scenario(Cluster& c, fs::FileSystem& f, Outcome& out) {
  const net::NodeId writer = c.compute_nodes()[0];
  const net::NodeId reader = c.compute_nodes()[1];
  auto w = co_await f.create("/t/a", writer);
  out.codes.push_back(w.code());
  if (w.is_ok()) {
    for (std::uint64_t off = 0; off < 3 * kChunk; off += kChunk) {
      Status st = co_await w.value()->append(
          make_bytes(pattern_bytes(kSeed, off, kChunk)));
      out.codes.push_back(st.code());
    }
    Status st = co_await w.value()->close();
    out.codes.push_back(st.code());
  }
  auto duplicate = co_await f.create("/t/a", writer);
  out.codes.push_back(duplicate.code());
  auto missing = co_await f.open("/t/missing", reader);
  out.codes.push_back(missing.code());
  co_await c.bb_master().wait_all_flushed();
  auto r = co_await f.open("/t/a", reader);
  out.codes.push_back(r.code());
  if (r.is_ok()) {
    auto data = co_await r.value()->read(0, r.value()->size());
    out.codes.push_back(data.code());
    if (data.is_ok()) out.read_back = data.value();
    auto past_end = co_await r.value()->read(r.value()->size() + kChunk, 1);
    out.codes.push_back(past_end.code());
  }
  auto info = co_await f.stat("/t/a", reader);
  out.codes.push_back(info.code());
  if (info.is_ok()) out.stat_size = info.value().size;
  c.bb_master().stop_heartbeat();
}

Outcome run(bool decorated, CallTimes& times) {
  Cluster cluster(cluster::ClusterConfig{});
  TimedFileSystem timed(cluster.filesystem(FsKind::kBurstBuffer),
                        cluster.sim(), times);
  fs::FileSystem& f =
      decorated ? timed : cluster.filesystem(FsKind::kBurstBuffer);
  Outcome out;
  cluster.sim().spawn(scenario(cluster, f, out));
  cluster.sim().run();
  out.end_ns = cluster.sim().now();
  out.events = cluster.sim().events_processed();
  return out;
}

TEST(TimedFileSystemTest, PassesBytesAndStatusesThrough) {
  CallTimes plain_times, timed_times;
  const Outcome plain = run(false, plain_times);
  const Outcome timed = run(true, timed_times);

  EXPECT_EQ(plain.codes, timed.codes);
  EXPECT_EQ(plain.read_back, timed.read_back);
  EXPECT_EQ(timed.read_back, pattern_bytes(kSeed, 0, 3 * kChunk));
  EXPECT_EQ(plain.stat_size, timed.stat_size);
  // The failure paths really were exercised.
  EXPECT_NE(timed.codes[5], StatusCode::kOk);  // duplicate create
  EXPECT_NE(timed.codes[6], StatusCode::kOk);  // open of a missing file
}

TEST(TimedFileSystemTest, SimulationIsIdenticalWithAndWithoutIt) {
  CallTimes plain_times, timed_times;
  const Outcome plain = run(false, plain_times);
  const Outcome timed = run(true, timed_times);

  EXPECT_EQ(plain.end_ns, timed.end_ns);
  EXPECT_EQ(plain.events, timed.events);
}

TEST(TimedFileSystemTest, RecordsOneDurationPerCall) {
  CallTimes times;
  (void)run(true, times);

  EXPECT_EQ(times.create.size(), 2u);
  EXPECT_EQ(times.append.size(), 3u);
  EXPECT_EQ(times.close.size(), 1u);
  EXPECT_EQ(times.open.size(), 2u);
  EXPECT_EQ(times.read.size(), 2u);
  // Appends inside the write window may return at once; the read may not.
  EXPECT_GT(times.read.front(), 0u);
}

}  // namespace
}  // namespace hpcbb::perfbench
