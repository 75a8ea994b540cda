// Parameterized property sweeps over the KV store: invariants that must
// hold across shard counts, budgets, and value-size mixes.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <unordered_map>

#include "common/rng.h"
#include "common/strings.h"
#include "common/units.h"
#include "kvstore/store.h"

namespace hpcbb::kv {
namespace {

// (shard_count, memory_budget_mib, max_value_bytes)
using SweepParam = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;

class StoreSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  StoreParams make_params() const {
    const auto [shards, budget_mib, max_value] = GetParam();
    (void)max_value;
    StoreParams p;
    p.memory_budget = static_cast<std::uint64_t>(budget_mib) * MiB;
    p.shard_count = shards;
    p.buckets_per_shard = 1u << 10;
    p.slab.page_size = 256 * KiB;
    p.slab.chunk_max = 128 * KiB;
    return p;
  }
  std::uint32_t max_value() const { return std::get<2>(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(
    Sweep, StoreSweep,
    ::testing::Values(SweepParam{1, 4, 1000}, SweepParam{2, 8, 4000},
                      SweepParam{4, 16, 16000}, SweepParam{8, 32, 60000},
                      SweepParam{16, 64, 100000}),
    [](const auto& param_info) {
      return "s" + std::to_string(std::get<0>(param_info.param)) + "_m" +
             std::to_string(std::get<1>(param_info.param)) + "_v" +
             std::to_string(std::get<2>(param_info.param));
    });

TEST_P(StoreSweep, StatsNeverDriftFromContents) {
  KvStore store(make_params());
  Rng rng(fnv1a("drift"));
  std::unordered_map<std::string, std::uint64_t> live;  // key -> value size
  std::uint64_t evicted_or_expired_baseline = 0;
  for (int op = 0; op < 8000; ++op) {
    const std::string key = "k" + std::to_string(rng.uniform(0, 499));
    if (rng.uniform(0, 2) != 0) {
      const std::uint64_t n = rng.uniform(0, max_value());
      if (store.set(key, Bytes(n, 0x7)).is_ok()) {
        live[key] = n;
      }
    } else {
      store.erase(key);
      live.erase(key);
    }
    // Track evictions: evicted keys leave `live` stale; prune by probing.
    const StoreStats stats = store.stats();
    if (stats.evictions + stats.expired != evicted_or_expired_baseline) {
      evicted_or_expired_baseline = stats.evictions + stats.expired;
      for (auto it = live.begin(); it != live.end();) {
        if (!store.contains(it->first)) {
          it = live.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  // Invariant: stats.items equals the number of keys actually present.
  const StoreStats stats = store.stats();
  std::uint64_t present = 0, bytes = 0;
  for (const auto& [key, size] : live) {
    if (store.contains(key)) {
      ++present;
      bytes += key.size() + size;
    }
  }
  EXPECT_EQ(stats.items, present);
  EXPECT_EQ(stats.bytes, bytes);
}

TEST_P(StoreSweep, MemoryCeilingRespected) {
  KvStore store(make_params());
  Rng rng(fnv1a("ceiling"));
  for (int op = 0; op < 5000; ++op) {
    const std::string key = "k" + std::to_string(rng.uniform(0, 9999));
    (void)store.set(key, Bytes(rng.uniform(0, max_value()), 0x1));
  }
  // Payload bytes can never exceed the configured budget.
  EXPECT_LE(store.stats().bytes, store.memory_budget());
}

TEST_P(StoreSweep, GetAlwaysReturnsLatestWrittenValue) {
  KvStore store(make_params());
  Rng rng(fnv1a("latest"));
  std::unordered_map<std::string, std::uint64_t> version;  // key -> seed
  for (int op = 0; op < 4000; ++op) {
    const std::string key = "k" + std::to_string(rng.uniform(0, 99));
    const std::uint64_t seed = rng.next();
    const std::uint64_t n = rng.uniform(1, max_value());
    if (store.set(key, pattern_bytes(seed, 0, n)).is_ok()) {
      version[key] = seed;
    }
    const std::string probe = "k" + std::to_string(rng.uniform(0, 99));
    const auto r = store.get(probe);
    if (r.is_ok()) {
      const auto it = version.find(probe);
      ASSERT_NE(it, version.end()) << "value appeared from nowhere";
      EXPECT_TRUE(verify_pattern(it->second, 0, r.value()))
          << "stale or corrupt value under " << probe;
    }
  }
}

TEST_P(StoreSweep, EraseAllLeavesEmptyStore) {
  KvStore store(make_params());
  std::vector<std::string> keys;
  for (int i = 0; i < 300; ++i) {
    const std::string key = "k" + std::to_string(i);
    if (store.set(key, Bytes(static_cast<std::size_t>(i % 2000), 0x3))
            .is_ok()) {
      keys.push_back(key);
    }
  }
  for (const auto& key : keys) {
    if (store.contains(key)) {
      EXPECT_TRUE(store.erase(key));
    }
  }
  EXPECT_EQ(store.stats().items, 0u);
  EXPECT_EQ(store.stats().bytes, 0u);
  // Freed memory is reusable: a fresh burst of sets succeeds.
  int ok = 0;
  for (int i = 0; i < 50; ++i) {
    ok += store.set("fresh" + std::to_string(i), Bytes(1000, 0x4)).is_ok();
  }
  EXPECT_EQ(ok, 50);
}

TEST_P(StoreSweep, LruEvictsOldestUnpinnedFirst) {
  // Fill one size class beyond capacity with strictly ordered keys and no
  // touches: surviving keys must be a suffix of the insertion order.
  const StoreParams params = make_params();
  KvStore store(params);
  const std::uint64_t value_size = 32 * KiB;  // single class, big enough
  // Twice the point's budget in values: every point must evict.
  const int n = static_cast<int>(2 * params.memory_budget / value_size);
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(store.set("k" + std::to_string(i), Bytes(value_size, 0x5),
                          SetOptions{})
                    .is_ok());
  }
  ASSERT_GT(store.stats().evictions, 0u);
  // Per shard the survivors are a suffix; globally: once we see a present
  // key, every later key in the same shard must be present. Approximate the
  // global property: the oldest present key must be newer than the newest
  // absent key... per-shard hashing breaks total order, so check weaker but
  // meaningful: the most recent kNewest keys all survived.
  for (int i = n - 8; i < n; ++i) {
    EXPECT_TRUE(store.contains("k" + std::to_string(i))) << i;
  }
}

}  // namespace
}  // namespace hpcbb::kv
