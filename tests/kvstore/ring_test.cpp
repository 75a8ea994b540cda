#include "kvstore/ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

namespace hpcbb::kv {
namespace {

TEST(HashRingTest, DeterministicMapping) {
  HashRing a(4), b(4);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "key-" + std::to_string(i);
    EXPECT_EQ(a.server_for(key), b.server_for(key));
  }
}

TEST(HashRingTest, AllServersReceiveLoad) {
  HashRing ring(8);
  std::map<std::uint32_t, int> counts;
  for (int i = 0; i < 8000; ++i) {
    ++counts[ring.server_for("key-" + std::to_string(i))];
  }
  ASSERT_EQ(counts.size(), 8u);
  for (const auto& [server, count] : counts) {
    // With 100 vnodes the imbalance should stay well under 2x.
    EXPECT_GT(count, 400) << "server " << server;
    EXPECT_LT(count, 2000) << "server " << server;
  }
}

TEST(HashRingTest, SingleServerOwnsEverything) {
  HashRing ring(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(ring.server_for("key-" + std::to_string(i)), 0u);
  }
  EXPECT_EQ(ring.successors("any", 2), std::vector<std::uint32_t>{0u});
}

TEST(HashRingTest, FailoverTargetDiffersFromPrimary) {
  HashRing ring(4);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key-" + std::to_string(i);
    EXPECT_NE(ring.server_for(key), ring.successors(key, 2)[1]) << key;
  }
}

TEST(HashRingTest, SuccessorsStartAtOwnerAndAreDistinct) {
  HashRing ring(6);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const auto repl = ring.successors(key, 3);
    ASSERT_EQ(repl.size(), 3u) << key;
    // The replica list is the owner followed by the ring-walk successors,
    // so R=1 placement and the failover target fall out of it.
    EXPECT_EQ(repl[0], ring.server_for(key)) << key;
    EXPECT_EQ(repl[1], ring.successors(key, 2)[1]) << key;
    EXPECT_NE(repl[0], repl[1]) << key;
    EXPECT_NE(repl[0], repl[2]) << key;
    EXPECT_NE(repl[1], repl[2]) << key;
  }
}

TEST(HashRingTest, SuccessorsDeterministicAcrossInstances) {
  HashRing a(5), b(5);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key-" + std::to_string(i);
    EXPECT_EQ(a.successors(key, 3), b.successors(key, 3)) << key;
  }
}

TEST(HashRingTest, SuccessorCountClampedToServerCount) {
  HashRing ring(3);
  // Asking for more replicas than servers yields every server exactly once.
  const auto all = ring.successors("k", 10);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_NE(std::find(all.begin(), all.end(), 0u), all.end());
  EXPECT_NE(std::find(all.begin(), all.end(), 1u), all.end());
  EXPECT_NE(std::find(all.begin(), all.end(), 2u), all.end());
  // count=0 is treated as 1: the owner alone.
  const auto one = ring.successors("k", 0);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], ring.server_for("k"));
}

TEST(HashRingTest, GrowingClusterRemapsMinority) {
  HashRing small(4), large(5);
  int moved = 0;
  constexpr int kKeys = 5000;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "key-" + std::to_string(i);
    // Keys that stay must map to the same server index; consistent hashing
    // moves roughly 1/5 of keys to the new server.
    if (small.server_for(key) != large.server_for(key)) ++moved;
  }
  EXPECT_GT(moved, kKeys / 10);
  EXPECT_LT(moved, kKeys / 2);
}

}  // namespace
}  // namespace hpcbb::kv
