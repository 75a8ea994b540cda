#include "mapred/records.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

namespace hpcbb::mapred {
namespace {

TEST(RecordsTest, GenerationDeterministic) {
  EXPECT_EQ(generate_records(5, 100), generate_records(5, 100));
  EXPECT_NE(generate_records(5, 100), generate_records(6, 100));
}

// The byte-at-a-time generator generate_records replaced.
Bytes records_reference(std::uint64_t seed, std::uint64_t count) {
  Bytes out(count * kRecordSize);
  Rng rng(seed);
  for (std::uint64_t r = 0; r < count; ++r) {
    std::uint8_t* rec = out.data() + r * kRecordSize;
    for (std::uint64_t k = 0; k < kKeySize; k += 8) {
      const std::uint64_t word = rng.next();
      for (std::uint64_t b = 0; b < 8 && k + b < kKeySize; ++b) {
        rec[k + b] = static_cast<std::uint8_t>(word >> (8 * b));
      }
    }
    SplitMix64 payload(seed ^ r);
    for (std::uint64_t p = kKeySize; p < kRecordSize; p += 8) {
      const std::uint64_t word = payload.next();
      for (std::uint64_t b = 0; b < 8 && p + b < kRecordSize; ++b) {
        rec[p + b] = static_cast<std::uint8_t>(word >> (8 * b));
      }
    }
  }
  return out;
}

TEST(RecordsTest, GenerationMatchesByteReference) {
  for (std::uint64_t count = 0; count <= 16; ++count) {
    ASSERT_EQ(generate_records(count, count), records_reference(count, count))
        << "count " << count;
  }
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t seed = rng.next();
    const std::uint64_t count = rng.uniform(0, 2000);
    ASSERT_EQ(generate_records(seed, count), records_reference(seed, count))
        << "seed " << seed << " count " << count;
  }
}

TEST(RecordsTest, SizesExact) {
  EXPECT_EQ(generate_records(1, 7).size(), 7 * kRecordSize);
  EXPECT_TRUE(generate_records(1, 0).empty());
}

TEST(RecordsTest, SortedDetection) {
  Bytes data = generate_records(9, 1000);
  EXPECT_FALSE(records_sorted(data));  // random keys: virtually never sorted

  // Sort it the dumb way and re-check.
  std::vector<std::uint64_t> order(1000);
  for (std::uint64_t i = 0; i < 1000; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint64_t a, std::uint64_t b) {
    return compare_keys(data.data() + a * kRecordSize,
                        data.data() + b * kRecordSize) < 0;
  });
  Bytes sorted(data.size());
  for (std::uint64_t i = 0; i < 1000; ++i) {
    std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(order[i] * kRecordSize),
                kRecordSize,
                sorted.begin() + static_cast<std::ptrdiff_t>(i * kRecordSize));
  }
  EXPECT_TRUE(records_sorted(sorted));
  // Same multiset of records: checksum matches.
  EXPECT_EQ(records_checksum(data), records_checksum(sorted));
}

TEST(RecordsTest, ChecksumDetectsContentChange) {
  Bytes data = generate_records(3, 100);
  const std::uint64_t clean = records_checksum(data);
  data[50] ^= 1;
  EXPECT_NE(records_checksum(data), clean);
}

TEST(RecordsTest, ChecksumOrderIndependent) {
  Bytes a = generate_records(4, 2);
  Bytes b(a.begin() + kRecordSize, a.end());
  b.insert(b.end(), a.begin(), a.begin() + kRecordSize);
  EXPECT_EQ(records_checksum(a), records_checksum(b));
}

TEST(RecordsTest, PartitionCoversAllAndBalances) {
  const Bytes data = generate_records(11, 20000);
  std::map<std::uint32_t, int> counts;
  for (std::uint64_t r = 0; r < 20000; ++r) {
    const std::uint32_t p = partition_of(data.data() + r * kRecordSize, 8);
    ASSERT_LT(p, 8u);
    ++counts[p];
  }
  ASSERT_EQ(counts.size(), 8u);
  for (const auto& [p, n] : counts) {
    EXPECT_GT(n, 2000) << "partition " << p;
    EXPECT_LT(n, 3100) << "partition " << p;
  }
}

TEST(RecordsTest, PartitionIsOrderPreserving) {
  // If key(a) <= key(b) then partition(a) <= partition(b): required for
  // concatenated reducer outputs to be globally sorted.
  const Bytes data = generate_records(13, 1000);
  for (std::uint64_t i = 0; i < 999; ++i) {
    const std::uint8_t* a = data.data() + i * kRecordSize;
    for (std::uint64_t j = i + 1; j < std::min<std::uint64_t>(i + 20, 1000);
         ++j) {
      const std::uint8_t* b = data.data() + j * kRecordSize;
      const std::uint8_t* lo = compare_keys(a, b) <= 0 ? a : b;
      const std::uint8_t* hi = lo == a ? b : a;
      EXPECT_LE(partition_of(lo, 16), partition_of(hi, 16));
    }
  }
}

}  // namespace
}  // namespace hpcbb::mapred
