#include "kvstore/store.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/units.h"

namespace hpcbb::kv {
namespace {

StoreParams small_store(std::uint64_t budget = 8 * MiB,
                        std::uint32_t shards = 2) {
  StoreParams p;
  p.memory_budget = budget;
  p.shard_count = shards;
  p.buckets_per_shard = 1u << 10;
  p.slab.page_size = 256 * KiB;
  p.slab.chunk_max = 64 * KiB;
  return p;
}

Bytes value_of(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

TEST(KvStoreTest, SetGetRoundTrip) {
  KvStore store(small_store());
  ASSERT_TRUE(store.set("k1", value_of("hello")).is_ok());
  auto r = store.get("k1");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), value_of("hello"));
}

TEST(KvStoreTest, MissReturnsNotFound) {
  KvStore store(small_store());
  EXPECT_EQ(store.get("ghost").code(), StatusCode::kNotFound);
  EXPECT_EQ(store.stats().misses, 1u);
}

TEST(KvStoreTest, OverwriteReplacesValue) {
  KvStore store(small_store());
  ASSERT_TRUE(store.set("k", value_of("v1")).is_ok());
  ASSERT_TRUE(store.set("k", value_of("v2-longer-value")).is_ok());
  EXPECT_EQ(store.get("k").value(), value_of("v2-longer-value"));
  EXPECT_EQ(store.stats().items, 1u);
}

TEST(KvStoreTest, EraseRemoves) {
  KvStore store(small_store());
  ASSERT_TRUE(store.set("k", value_of("v")).is_ok());
  EXPECT_TRUE(store.erase("k"));
  EXPECT_FALSE(store.erase("k"));
  EXPECT_EQ(store.get("k").code(), StatusCode::kNotFound);
  EXPECT_EQ(store.stats().items, 0u);
  EXPECT_EQ(store.stats().bytes, 0u);
}

TEST(KvStoreTest, ContainsAndValueSize) {
  KvStore store(small_store());
  ASSERT_TRUE(store.set("k", Bytes(1234, 0xAB)).is_ok());
  EXPECT_TRUE(store.contains("k"));
  EXPECT_FALSE(store.contains("other"));
  EXPECT_EQ(store.get("k").value().size(), 1234u);
}

TEST(KvStoreTest, BinaryValuesPreserved) {
  KvStore store(small_store());
  const Bytes payload = pattern_bytes(77, 0, 10000);
  ASSERT_TRUE(store.set("bin", payload).is_ok());
  EXPECT_EQ(store.get("bin").value(), payload);
}

TEST(KvStoreTest, EmptyValue) {
  KvStore store(small_store());
  ASSERT_TRUE(store.set("empty", Bytes{}).is_ok());
  EXPECT_TRUE(store.contains("empty"));
  EXPECT_EQ(store.get("empty").value(), Bytes{});
}

TEST(KvStoreTest, ValueTooLargeRejected) {
  KvStore store(small_store());
  const Status st = store.set("big", Bytes(1 * MiB, 0));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(KvStoreTest, MaxValueSizeIsStorable) {
  KvStore store(small_store());
  const std::uint64_t max = store.max_value_size(3);
  EXPECT_GT(max, 32 * KiB);
  ASSERT_TRUE(store.set("key", Bytes(max, 0x5A)).is_ok());
  EXPECT_EQ(store.set("key", Bytes(max + 1, 0)).code(),
            StatusCode::kInvalidArgument);
}

TEST(KvStoreTest, TtlExpiry) {
  KvStore store(small_store());
  ASSERT_TRUE(
      store.set("k", value_of("v"), SetOptions{.expiry_ns = 1000}).is_ok());
  EXPECT_TRUE(store.get("k", 999).is_ok());
  EXPECT_EQ(store.get("k", 1000).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.stats().expired, 1u);
  EXPECT_EQ(store.stats().items, 0u);
}

TEST(KvStoreTest, LruEvictionUnderPressure) {
  KvStore store(small_store(2 * MiB, 1));
  const Bytes chunk(40 * KiB, 0x11);
  // Fill beyond budget; early keys must be evicted, later keys resident.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.set("key-" + std::to_string(i), chunk).is_ok())
        << "set " << i;
  }
  const StoreStats s = store.stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_TRUE(store.contains("key-99"));
  EXPECT_FALSE(store.contains("key-0"));
}

TEST(KvStoreTest, GetProtectsFromEviction) {
  KvStore store(small_store(2 * MiB, 1));
  const Bytes chunk(40 * KiB, 0x22);
  ASSERT_TRUE(store.set("hot", chunk).is_ok());
  for (int i = 0; i < 200; ++i) {
    // Touch "hot" between inserts: it stays at the LRU head.
    ASSERT_TRUE(store.get("hot").is_ok()) << "iteration " << i;
    ASSERT_TRUE(store.set("cold-" + std::to_string(i), chunk).is_ok());
  }
  EXPECT_TRUE(store.contains("hot"));
}

TEST(KvStoreTest, PinnedItemsSurviveEviction) {
  KvStore store(small_store(2 * MiB, 1));
  const Bytes chunk(40 * KiB, 0x33);
  ASSERT_TRUE(store.set("pinned", chunk, SetOptions{.pinned = true}).is_ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store.set("filler-" + std::to_string(i), chunk).is_ok());
  }
  EXPECT_TRUE(store.contains("pinned"));
  EXPECT_GT(store.stats().evictions, 0u);
}

TEST(KvStoreTest, AllPinnedMeansExhaustion) {
  KvStore store(small_store(1 * MiB, 1));
  const Bytes chunk(40 * KiB, 0x44);
  Status last;
  int stored = 0;
  for (int i = 0; i < 200; ++i) {
    last = store.set("p-" + std::to_string(i), chunk,
                     SetOptions{.pinned = true});
    if (!last.is_ok()) break;
    ++stored;
  }
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(stored, 10);
  EXPECT_GT(store.stats().set_failures, 0u);
  // Unpinning frees the logjam.
  ASSERT_TRUE(store.set_pinned("p-0", false).is_ok());
  EXPECT_TRUE(store.set("new-key", chunk).is_ok());
  EXPECT_FALSE(store.contains("p-0"));  // it was the eviction victim
}

TEST(KvStoreTest, FailedSetKeepsOldValue) {
  KvStore store(small_store(1 * MiB, 1));
  const Bytes big_chunk(40 * KiB, 0x55);
  ASSERT_TRUE(store.set("victim?", Bytes(100, 0x66),
                        SetOptions{.pinned = true}).is_ok());
  // Exhaust the large class with pinned data.
  for (int i = 0; i < 200; ++i) {
    (void)store.set("p-" + std::to_string(i), big_chunk,
                    SetOptions{.pinned = true});
  }
  // Replacing the small value with an unallocatable large one must fail
  // AND leave the old small value intact.
  const Status st = store.set("victim?", big_chunk);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(store.get("victim?").value(), Bytes(100, 0x66));
}

TEST(KvStoreTest, WipeClearsEverything) {
  KvStore store(small_store());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.set("k" + std::to_string(i), Bytes(100, 1)).is_ok());
  }
  store.wipe();
  EXPECT_EQ(store.stats().items, 0u);
  EXPECT_EQ(store.stats().bytes, 0u);
  EXPECT_FALSE(store.contains("k0"));
  // Store remains usable.
  ASSERT_TRUE(store.set("fresh", Bytes(10, 2)).is_ok());
  EXPECT_TRUE(store.contains("fresh"));
}

TEST(KvStoreTest, StatsTrackHitsMisses) {
  KvStore store(small_store());
  ASSERT_TRUE(store.set("k", value_of("v")).is_ok());
  (void)store.get("k");
  (void)store.get("k");
  (void)store.get("nope");
  const StoreStats s = store.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.items, 1u);
  EXPECT_EQ(s.bytes, 2u);  // "k" + "v"
}

// ---- values kept by reference ------------------------------------------

// SETs a fresh buffer whole and returns a watch on it: from here on the
// store holds the buffer's only reference.
std::weak_ptr<const Bytes> set_watched(KvStore& store, const std::string& key,
                                       std::uint64_t size) {
  BytesPtr buffer = make_bytes(Bytes(size, 0x7E));
  std::weak_ptr<const Bytes> watch = buffer;
  EXPECT_TRUE(store.set(key, whole(std::move(buffer))).is_ok());
  return watch;
}

TEST(KvStoreTest, SetKeepsTheSendersSliceUncopied) {
  KvStore store(small_store());
  const BytesPtr sent = make_bytes(pattern_bytes(9, 0, 3000));
  ASSERT_TRUE(store.set("k", ByteSlice{sent, 1000, 1500}).is_ok());
  auto got = store.get_verified("k");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().value.bytes, sent);
  EXPECT_EQ(got.value().value.offset, 1000u);
  EXPECT_EQ(got.value().value.length, 1500u);
  EXPECT_TRUE(verify_pattern(9, 1000, store.get("k").value()));
  EXPECT_EQ(store.stats().bytes, 1u + 1500u);  // "k" + the slice
}

TEST(KvStoreTest, EvictionReleasesTheSendersBuffer) {
  KvStore store(small_store(2 * MiB, 1));
  const auto watch = set_watched(store, "first", 40 * KiB);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        store.set("filler-" + std::to_string(i), Bytes(40 * KiB, 1)).is_ok());
  }
  EXPECT_FALSE(store.contains("first"));
  EXPECT_TRUE(watch.expired());
}

TEST(KvStoreTest, OverwriteReleasesTheSendersBuffer) {
  KvStore store(small_store());
  const auto watch = set_watched(store, "k", 1000);
  EXPECT_FALSE(watch.expired());
  ASSERT_TRUE(store.set("k", value_of("next")).is_ok());
  EXPECT_TRUE(watch.expired());
}

TEST(KvStoreTest, EraseReleasesTheSendersBuffer) {
  KvStore store(small_store());
  const auto watch = set_watched(store, "k", 1000);
  ASSERT_TRUE(store.erase("k"));
  EXPECT_TRUE(watch.expired());
}

TEST(KvStoreTest, WipeReleasesTheSendersBuffers) {
  KvStore store(small_store());
  const auto a = set_watched(store, "a", 1000);
  const auto b = set_watched(store, "b", 1000);
  store.wipe();
  EXPECT_TRUE(a.expired());
  EXPECT_TRUE(b.expired());
}

TEST(KvStoreTest, DestructionReleasesTheSendersBuffers) {
  std::weak_ptr<const Bytes> watch;
  {
    KvStore store(small_store());
    watch = set_watched(store, "k", 1000);
    ASSERT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(KvStoreTest, CorruptionDamagesAPrivateCopyOnly) {
  // Two stores hold one SET's buffer, as two replicas do. Corrupting one
  // must leave the sender's buffer, and so the other replica, intact.
  for (const CorruptKind kind : {CorruptKind::kBitFlip,
                                 CorruptKind::kTornWrite,
                                 CorruptKind::kStaleRead}) {
    KvStore damaged(small_store());
    KvStore replica(small_store());
    const BytesPtr sent = make_bytes(pattern_bytes(4, 0, 32 * KiB));
    ASSERT_TRUE(damaged.set("k", whole(sent)).is_ok());
    ASSERT_TRUE(replica.set("k", whole(sent)).is_ok());
    ASSERT_EQ(damaged.corrupt_one(5, kind, "k"), "k") << to_string(kind);
    EXPECT_TRUE(verify_pattern(4, 0, *sent)) << to_string(kind);
    auto other = replica.get("k");
    ASSERT_TRUE(other.is_ok()) << to_string(kind);
    EXPECT_TRUE(verify_pattern(4, 0, other.value())) << to_string(kind);
    EXPECT_EQ(damaged.get("k").code(), StatusCode::kDataLoss)
        << to_string(kind);
    EXPECT_EQ(damaged.stats().integrity_failures, 1u) << to_string(kind);
  }
}

// Property test: random operation stream vs std::unordered_map reference.
// Eviction is disabled by using a budget far above the working set, so the
// store must agree with the reference exactly.
TEST(KvStoreTest, RandomOpsMatchReferenceModel) {
  KvStore store(small_store(64 * MiB, 4));
  std::unordered_map<std::string, Bytes> reference;
  Rng rng(2024);
  for (int op = 0; op < 20000; ++op) {
    const std::string key = "key-" + std::to_string(rng.uniform(0, 199));
    switch (rng.uniform(0, 9)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // set
        const Bytes value =
            pattern_bytes(rng.next(), 0, rng.uniform(0, 2000));
        ASSERT_TRUE(store.set(key, value).is_ok());
        reference[key] = value;
        break;
      }
      case 4:
      case 5: {  // erase
        const bool existed = store.erase(key);
        EXPECT_EQ(existed, reference.erase(key) > 0) << "op " << op;
        break;
      }
      default: {  // get
        const auto r = store.get(key);
        const auto it = reference.find(key);
        if (it == reference.end()) {
          EXPECT_EQ(r.code(), StatusCode::kNotFound) << "op " << op;
        } else {
          ASSERT_TRUE(r.is_ok()) << "op " << op;
          EXPECT_EQ(r.value(), it->second) << "op " << op;
        }
        break;
      }
    }
  }
  EXPECT_EQ(store.stats().items, reference.size());
  EXPECT_EQ(store.stats().evictions, 0u);
}

// Thread-safety: concurrent writers/readers on disjoint and overlapping key
// ranges; run under the sanitizer jobs in CI to catch races.
TEST(KvStoreTest, ConcurrentMixedWorkload) {
  KvStore store(small_store(64 * MiB, 8));
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 5000;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &failures, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "key-" + std::to_string(rng.uniform(0, 499));
        if (rng.uniform(0, 2) == 0) {
          const Bytes value = pattern_bytes(fnv1a(key), 0, 256);
          if (!store.set(key, value).is_ok()) ++failures;
        } else {
          const auto r = store.get(key);
          // A present value must always be internally consistent.
          if (r.is_ok() && !verify_pattern(fnv1a(key), 0, r.value())) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const StoreStats s = store.stats();
  EXPECT_GT(s.hits + s.misses, 0u);
}

}  // namespace
}  // namespace hpcbb::kv
