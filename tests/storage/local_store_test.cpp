#include "storage/local_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "testing/co_assert.h"
#include "common/corrupt.h"
#include "common/rng.h"
#include "common/units.h"
#include "sim/sync.h"

namespace hpcbb::storage {
namespace {

using namespace hpcbb::duration;  // NOLINT
using sim::Simulation;
using sim::Task;

DeviceParams small_ram() {
  DeviceParams p = ramdisk_preset(4 * MiB);
  return p;
}

TEST(LocalStoreTest, AppendReadRoundTrip) {
  Simulation sim;
  Device dev(sim, small_ram());
  LocalStore store(dev);
  const Bytes payload = pattern_bytes(11, 0, 1000);
  Bytes got;
  sim.spawn([](LocalStore& ls, const Bytes& data, Bytes& out) -> Task<void> {
    CO_ASSERT((co_await ls.append("blk_1", data)).is_ok());
    auto r = co_await ls.read("blk_1", 0, data.size());
    CO_ASSERT(r.is_ok());
    out = std::move(r).value();
  }(store, payload, got));
  sim.run();
  EXPECT_EQ(got, payload);
  EXPECT_EQ(store.object_size("blk_1"), 1000u);
  EXPECT_EQ(store.used_bytes(), 1000u);
}

TEST(LocalStoreTest, MultipleAppendsConcatenate) {
  Simulation sim;
  Device dev(sim, small_ram());
  LocalStore store(dev);
  Bytes got;
  sim.spawn([](LocalStore& ls, Bytes& out) -> Task<void> {
    CO_ASSERT((co_await ls.append("obj", pattern_bytes(5, 0, 100))).is_ok());
    CO_ASSERT((co_await ls.append("obj", pattern_bytes(5, 100, 60))).is_ok());
    auto r = co_await ls.read("obj", 0, 160);
    CO_ASSERT(r.is_ok());
    out = std::move(r).value();
  }(store, got));
  sim.run();
  EXPECT_TRUE(verify_pattern(5, 0, got));
}

TEST(LocalStoreTest, PartialReads) {
  Simulation sim;
  Device dev(sim, small_ram());
  LocalStore store(dev);
  Bytes got;
  sim.spawn([](LocalStore& ls, Bytes& out) -> Task<void> {
    CO_ASSERT((co_await ls.append("obj", pattern_bytes(9, 0, 4096))).is_ok());
    auto r = co_await ls.read("obj", 1024, 512);
    CO_ASSERT(r.is_ok());
    out = std::move(r).value();
  }(store, got));
  sim.run();
  EXPECT_TRUE(verify_pattern(9, 1024, got));
}

TEST(LocalStoreTest, ReadErrors) {
  Simulation sim;
  Device dev(sim, small_ram());
  LocalStore store(dev);
  StatusCode missing{}, range{};
  sim.spawn([](LocalStore& ls, StatusCode& m, StatusCode& r) -> Task<void> {
    m = (co_await ls.read("ghost", 0, 1)).code();
    CO_ASSERT((co_await ls.append("obj", pattern_bytes(1, 0, 10))).is_ok());
    r = (co_await ls.read("obj", 5, 10)).code();
  }(store, missing, range));
  sim.run();
  EXPECT_EQ(missing, StatusCode::kNotFound);
  EXPECT_EQ(range, StatusCode::kOutOfRange);
}

TEST(LocalStoreTest, RemoveFreesSpace) {
  Simulation sim;
  Device dev(sim, small_ram());
  LocalStore store(dev);
  sim.spawn([](LocalStore& ls) -> Task<void> {
    CO_ASSERT((co_await ls.append("a", pattern_bytes(1, 0, 2048))).is_ok());
  }(store));
  sim.run();
  EXPECT_EQ(store.used_bytes(), 2048u);
  EXPECT_TRUE(store.remove("a").is_ok());
  EXPECT_EQ(store.used_bytes(), 0u);
  EXPECT_FALSE(store.contains("a"));
  EXPECT_EQ(store.remove("a").code(), StatusCode::kNotFound);
}

TEST(LocalStoreTest, CapacityExhaustion) {
  Simulation sim;
  Device dev(sim, small_ram());  // 4 MiB
  LocalStore store(dev);
  Status status;
  sim.spawn([](LocalStore& ls, Status& out) -> Task<void> {
    CO_ASSERT(
        (co_await ls.append("a", pattern_bytes(1, 0, 3 * MiB))).is_ok());
    out = co_await ls.append("b", pattern_bytes(2, 0, 2 * MiB));
  }(store, status));
  sim.run();
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(store.contains("b"));
}

TEST(LocalStoreTest, WipeDropsEverythingInstantly) {
  Simulation sim;
  Device dev(sim, small_ram());
  LocalStore store(dev);
  sim.spawn([](LocalStore& ls) -> Task<void> {
    CO_ASSERT((co_await ls.append("a", pattern_bytes(1, 0, 100))).is_ok());
    CO_ASSERT((co_await ls.append("b", pattern_bytes(2, 0, 100))).is_ok());
  }(store));
  sim.run();
  store.wipe();
  EXPECT_EQ(store.object_count(), 0u);
  EXPECT_EQ(store.used_bytes(), 0u);
}

TEST(LocalStoreTest, DeviceTimeCharged) {
  Simulation sim;
  DeviceParams p = small_ram();
  p.write_bytes_per_sec = 1 * MB;
  p.seek_ns = 0;
  Device dev(sim, p);
  LocalStore store(dev);
  sim.spawn([](LocalStore& ls) -> Task<void> {
    CO_ASSERT((co_await ls.append("a", pattern_bytes(1, 0, 1 * MB))).is_ok());
  }(store));
  sim.run();
  EXPECT_EQ(sim.now(), 1 * sec);
}

TEST(LocalStoreTest, GapBeyondAPartialLastPageReadsZero) {
  // The first write leaves its last page half used; growing past it must
  // zero the rest of that page, whatever the allocator handed out.
  Simulation sim;
  Device dev(sim, ramdisk_preset(32 * MiB));
  LocalStore store(dev);
  Bytes got;
  sim.spawn([](LocalStore& ls, Bytes& out) -> Task<void> {
    // Leave freed pages full of nonzero bytes below a live object, where
    // the allocator is likely to hand them out again.
    for (const char* name : {"junk", "filler", "guard"}) {
      CO_ASSERT_OK(co_await ls.write_at(name, 0, pattern_bytes(1, 0, 4 * MiB)));
    }
    CO_ASSERT_OK(ls.remove("junk"));
    CO_ASSERT_OK(ls.remove("filler"));
    CO_ASSERT_OK(
        co_await ls.write_at("obj", 0, pattern_bytes(3, 0, 3 * MiB / 2)));
    CO_ASSERT_OK(co_await ls.write_at("obj", 3 * MiB, pattern_bytes(3, 0, 10)));
    auto r = co_await ls.read("obj", 3 * MiB / 2, 3 * MiB / 2);
    CO_ASSERT_OK(r);
    out = std::move(r).value();
  }(store, got));
  sim.run();
  ASSERT_EQ(got.size(), 3 * MiB / 2);
  EXPECT_TRUE(std::all_of(got.begin(), got.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST(LocalStoreTest, SmallAppendsWidenTheLastPageWithoutLosingBytes) {
  // The last page is sized to what it holds, so small appends widen it
  // again and again, and appends past a page boundary fill it out first.
  Simulation sim;
  Device dev(sim, ramdisk_preset(32 * MiB));
  LocalStore store(dev);
  Bytes got;
  const std::uint64_t kAppend = 1000;
  const std::uint64_t kTotal = 2 * LocalStore::kPageSize + 12345;
  sim.spawn([](LocalStore& ls, Bytes& out, std::uint64_t step,
               std::uint64_t total) -> Task<void> {
    for (std::uint64_t at = 0; at < total; at += step) {
      CO_ASSERT_OK(co_await ls.append(
          "obj", pattern_bytes(5, at, std::min(step, total - at))));
    }
    auto r = co_await ls.read("obj", 0, total);
    CO_ASSERT_OK(r);
    out = std::move(r).value();
  }(store, got, kAppend, kTotal));
  sim.run();
  EXPECT_EQ(store.object_size("obj"), kTotal);
  EXPECT_TRUE(verify_pattern(5, 0, got));
}

// Differential test of the paged object layout against a flat buffer per
// object: seeded out-of-order write_at calls with gaps, appends, removals
// and reads that cross page boundaries, then every corruption hook applied
// to both.
class LocalStoreModelTest : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, LocalStoreModelTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST_P(LocalStoreModelTest, MatchesAFlatReferenceByteForByte) {
  Simulation sim;
  Device dev(sim, ramdisk_preset(256 * MiB));
  LocalStore store(dev);
  std::map<std::string, Bytes> model;
  sim.spawn([](LocalStore& ls, std::map<std::string, Bytes>& ref,
               std::uint64_t seed) -> Task<void> {
    Rng rng(seed);
    const std::uint64_t kPage = LocalStore::kPageSize;
    // Offsets and lengths cluster around page boundaries.
    const auto position = [&rng, kPage](std::uint64_t limit) {
      const std::uint64_t page = rng.uniform(0, limit / kPage);
      const std::uint64_t jitter = rng.uniform(0, 4096);
      const std::uint64_t near =
          rng.uniform(0, 1) == 0 ? page * kPage + jitter
                                 : (page + 1) * kPage - std::min(jitter, kPage);
      return std::min(near, limit);
    };
    for (int op = 0; op < 300; ++op) {
      const std::string name = "obj" + std::to_string(rng.uniform(0, 3));
      Bytes& flat = ref[name];
      const std::uint64_t kind = rng.uniform(0, 9);
      if (kind <= 3) {
        const std::uint64_t offset = position(5 * kPage);
        const Bytes data = pattern_bytes(rng.next(), offset,
                                         position(2 * kPage));
        CO_ASSERT_OK(co_await ls.write_at(name, offset, data));
        if (offset + data.size() > flat.size()) {
          flat.resize(offset + data.size(), 0);
        }
        std::copy(data.begin(), data.end(),
                  flat.begin() + static_cast<std::ptrdiff_t>(offset));
      } else if (kind <= 5) {
        const Bytes data = pattern_bytes(rng.next(), 0, position(kPage));
        CO_ASSERT_OK(co_await ls.append(name, data));
        flat.insert(flat.end(), data.begin(), data.end());
      } else if (kind == 6) {
        // Frees pages still holding bytes, for later objects to reuse.
        if (ls.contains(name)) {
          CO_ASSERT_OK(ls.remove(name));
        }
        ref.erase(name);
      } else if (!flat.empty()) {
        const std::uint64_t offset = rng.uniform(0, flat.size() - 1);
        const std::uint64_t length =
            std::min(flat.size() - offset, position(3 * kPage));
        auto got = co_await ls.read(name, offset, length);
        CO_ASSERT_OK(got);
        CO_ASSERT(std::equal(got.value().begin(), got.value().end(),
                             flat.begin() + static_cast<std::ptrdiff_t>(offset),
                             flat.begin() +
                                 static_cast<std::ptrdiff_t>(offset + length)));
      }
    }
    std::uint64_t used = 0;
    for (auto& [name, flat] : ref) {
      if (!ls.contains(name)) continue;
      used += flat.size();
      CO_ASSERT(ls.object_size(name) == flat.size());
      for (const CorruptKind kind :
           {CorruptKind::kBitFlip, CorruptKind::kTornWrite,
            CorruptKind::kStaleRead}) {
        const std::uint64_t selector = rng.next();
        CO_ASSERT(ls.corrupt_one(name, selector, kind) ==
                  (apply_corruption(flat, kind, selector) ? name : ""));
      }
      const std::uint64_t index = rng.uniform(0, flat.size());
      ls.flip_byte(name, index);
      if (index < flat.size()) flat[index] ^= 0xFF;
      auto whole = co_await ls.read(name, 0, flat.size());
      CO_ASSERT_OK(whole);
      CO_ASSERT(whole.value() == flat);
    }
    CO_ASSERT(ls.used_bytes() == used);
  }(store, model, GetParam()));
  sim.run();
}

}  // namespace
}  // namespace hpcbb::storage
