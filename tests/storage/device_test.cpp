#include "storage/device.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "sim/sync.h"

namespace hpcbb::storage {
namespace {

using namespace hpcbb::duration;  // NOLINT
using sim::Simulation;
using sim::SimTime;
using sim::Task;

DeviceParams simple_disk() {
  return DeviceParams{.kind = MediaKind::kHdd,
                      .read_bytes_per_sec = 100 * MB,
                      .write_bytes_per_sec = 50 * MB,
                      .seek_ns = 1 * ms,
                      .capacity_bytes = 100 * MiB};
}

TEST(DeviceTest, SequentialWriteNoExtraSeeks) {
  Simulation sim;
  Device disk(sim, simple_disk());
  sim.spawn([](Device& d) -> Task<void> {
    co_await d.write(0, 10 * MB);        // seek (first op) + 200 ms
    co_await d.write(10 * MB, 10 * MB);  // sequential: 200 ms
  }(disk));
  sim.run();
  EXPECT_EQ(sim.now(), 1 * ms + 400 * ms);
  EXPECT_EQ(disk.seek_count(), 1u);
  EXPECT_EQ(disk.io_count(), 2u);
}

TEST(DeviceTest, RandomAccessPaysSeeks) {
  Simulation sim;
  Device disk(sim, simple_disk());
  sim.spawn([](Device& d) -> Task<void> {
    co_await d.write(0, 1 * MB);
    co_await d.write(50 * MB, 1 * MB);  // jump: seek
    co_await d.write(10 * MB, 1 * MB);  // jump: seek
  }(disk));
  sim.run();
  EXPECT_EQ(disk.seek_count(), 3u);
}

TEST(DeviceTest, ReadsFasterThanWrites) {
  Simulation s1, s2;
  Device d1(s1, simple_disk()), d2(s2, simple_disk());
  s1.spawn([](Device& d) -> Task<void> { co_await d.read(0, 10 * MB); }(d1));
  s2.spawn([](Device& d) -> Task<void> { co_await d.write(0, 10 * MB); }(d2));
  s1.run();
  s2.run();
  EXPECT_EQ(s1.now(), 1 * ms + 100 * ms);
  EXPECT_EQ(s2.now(), 1 * ms + 200 * ms);
}

TEST(DeviceTest, ConcurrentRequestsQueue) {
  Simulation sim;
  Device disk(sim, simple_disk());
  std::vector<SimTime> done;
  for (int i = 0; i < 2; ++i) {
    sim.spawn([](Device& d, int id, std::vector<SimTime>& out) -> Task<void> {
      co_await d.write(static_cast<std::uint64_t>(id) * 50 * MB, 5 * MB);
      out.push_back(100);  // marker; time checked via sim
    }(disk, i, done));
  }
  sim.run();
  // Two 100 ms writes with seeks (interleaved offsets): both serialized.
  EXPECT_EQ(sim.now(), 2 * ms + 200 * ms);
  EXPECT_EQ(done.size(), 2u);
}

TEST(DeviceTest, SlowdownPricesTransfersAtSubmission) {
  // A limpware episode slows the transfers submitted during it; one already
  // queued keeps the price it was given, and so does the seek.
  Simulation sim;
  Device disk(sim, simple_disk());
  std::vector<SimTime> done(3);
  sim.spawn([](Simulation& s, Device& d, SimTime& out) -> Task<void> {
    co_await d.write(0, 5 * MB);  // seek + 100 ms
    out = s.now();
  }(sim, disk, done[0]));
  sim.spawn([](Simulation& s, Device& d, std::vector<SimTime>& out)
                -> Task<void> {
    co_await s.delay(50 * ms);
    d.set_slowdown(4.0);
    co_await d.write(5 * MB, 5 * MB);  // sequential: 4 x 100 ms
    out[1] = s.now();
    d.set_slowdown(1.0);
    co_await d.write(10 * MB, 5 * MB);  // healthy again: 100 ms
    out[2] = s.now();
  }(sim, disk, done));
  sim.run();
  EXPECT_EQ(done[0], 101 * ms);
  EXPECT_EQ(done[1], 501 * ms);
  EXPECT_EQ(done[2], 601 * ms);
}

TEST(DeviceTest, CapacityEnforced) {
  Simulation sim;
  Device disk(sim, simple_disk());  // 100 MiB capacity
  EXPECT_TRUE(disk.reserve(60 * MiB).is_ok());
  EXPECT_EQ(disk.reserve(60 * MiB).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(disk.used_bytes(), 60 * MiB);
  disk.release(30 * MiB);
  EXPECT_TRUE(disk.reserve(60 * MiB).is_ok());
  EXPECT_EQ(disk.used_bytes(), 90 * MiB);
}

TEST(DeviceTest, ReleaseClampsAtZero) {
  Simulation sim;
  Device disk(sim, simple_disk());
  ASSERT_TRUE(disk.reserve(10).is_ok());
  disk.release(100);
  EXPECT_EQ(disk.used_bytes(), 0u);
}

TEST(DeviceTest, PresetOrdering) {
  // RAM disk >> SSD >> HDD in bandwidth; seeks in reverse.
  const auto hdd = hdd_preset();
  const auto ssd = ssd_preset();
  const auto ram = ramdisk_preset();
  EXPECT_GT(ssd.write_bytes_per_sec, 3 * hdd.write_bytes_per_sec);
  EXPECT_GT(ram.write_bytes_per_sec, 4 * ssd.write_bytes_per_sec);
  EXPECT_GT(hdd.seek_ns, 50 * ssd.seek_ns);
  EXPECT_GT(ssd.seek_ns, 10 * ram.seek_ns);
}

}  // namespace
}  // namespace hpcbb::storage
