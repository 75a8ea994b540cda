// Differential tests of the reduce side: each job's reduce over a list of
// map partitions must match a plain reference fold of the same bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "mapred/workloads.h"

namespace hpcbb::mapred {
namespace {

// A stable index sort of the concatenated input by memcmp on the keys.
Bytes reference_sort(const std::vector<BytesPtr>& parts) {
  Bytes input;
  for (const BytesPtr& part : parts) {
    input.insert(input.end(), part->begin(), part->end());
  }
  std::vector<std::uint64_t> order(input.size() / kRecordSize);
  std::iota(order.begin(), order.end(), std::uint64_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&input](std::uint64_t a, std::uint64_t b) {
                     return compare_keys(input.data() + a * kRecordSize,
                                         input.data() + b * kRecordSize) < 0;
                   });
  Bytes out;
  for (const std::uint64_t i : order) {
    const auto* rec = input.data() + i * kRecordSize;
    out.insert(out.end(), rec, rec + kRecordSize);
  }
  return out;
}

enum class Keys {
  kUniform,        // random 10-byte keys
  kFewDistinct,    // duplicates spread across parts
  kAllEqual,       // one key for every record
  kPrefix60,       // keys share their first 60 bits
  kLastTwoBytes,   // keys differ only in bytes 8-9
};

// Records whose payload holds a serial number, so a reordering of equal
// keys shows in the output bytes.
struct RecordMaker {
  Rng rng;
  Keys keys;
  std::uint64_t serial = 0;

  void key(std::uint8_t* k) {
    switch (keys) {
      case Keys::kUniform:
        store_le(k, rng.next());
        store_le(k + 8, rng.next(), 2);
        break;
      case Keys::kFewDistinct: {
        const std::uint64_t pick = rng.uniform(0, 4);
        store_le(k, pick * 0x0123456789ABCDEFull);
        store_le(k + 8, pick, 2);
        break;
      }
      case Keys::kAllEqual:
        std::fill(k, k + kKeySize, std::uint8_t{0x5A});
        break;
      case Keys::kPrefix60:
        std::fill(k, k + 7, std::uint8_t{0x9C});
        k[7] = static_cast<std::uint8_t>(0x30 | rng.uniform(0, 15));
        store_le(k + 8, rng.uniform(0, 3), 2);
        break;
      case Keys::kLastTwoBytes:
        std::fill(k, k + 8, std::uint8_t{0xE1});
        store_le(k + 8, rng.uniform(0, 300), 2);
        break;
    }
  }

  BytesPtr part(std::uint64_t records) {
    Bytes out(records * kRecordSize);
    for (std::uint64_t r = 0; r < records; ++r) {
      std::uint8_t* rec = out.data() + r * kRecordSize;
      key(rec);
      std::fill(rec + kKeySize, rec + kRecordSize, std::uint8_t{0});
      store_le(rec + kKeySize, ++serial);
    }
    return make_bytes(std::move(out));
  }
};

void expect_matches_reference(const std::vector<BytesPtr>& parts) {
  SortJob job(4);
  auto sorted = job.reduce(0, parts);
  ASSERT_TRUE(sorted.is_ok()) << sorted.status().to_string();
  EXPECT_EQ(sorted.value(), reference_sort(parts));
}

TEST(SortReduceTest, NoPartsAndEmptyParts) {
  expect_matches_reference({});
  expect_matches_reference({make_bytes({}), make_bytes({})});
}

TEST(SortReduceTest, SingleRecord) {
  RecordMaker maker{Rng(1), Keys::kUniform};
  expect_matches_reference({maker.part(1)});
}

TEST(SortReduceTest, MatchesStableReferenceOnRandomPartLists) {
  for (const Keys keys : {Keys::kUniform, Keys::kFewDistinct, Keys::kAllEqual,
                          Keys::kPrefix60, Keys::kLastTwoBytes}) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      RecordMaker maker{Rng(seed * 31 + static_cast<std::uint64_t>(keys)),
                        keys};
      std::vector<BytesPtr> parts;
      const std::uint64_t nparts = maker.rng.uniform(0, 6);
      for (std::uint64_t p = 0; p < nparts; ++p) {
        // Every third part is empty or a single record.
        const std::uint64_t records =
            p % 3 == 2 ? maker.rng.uniform(0, 1) : maker.rng.uniform(0, 400);
        parts.push_back(maker.part(records));
      }
      SCOPED_TRACE("keys=" + std::to_string(static_cast<int>(keys)) +
                   " seed=" + std::to_string(seed));
      expect_matches_reference(parts);
    }
  }
}

TEST(SortReduceTest, GeneratedRecordsMatchReference) {
  // TeraGen-shaped input in the range one reducer of eight receives.
  SortJob map_side(8);
  std::vector<Bytes> buckets(8);
  const Bytes input = generate_records(7, 20000);
  map_side.map_chunk(InputSplit{}, input, buckets);
  std::vector<BytesPtr> parts;
  const Bytes& bucket = buckets[3];
  for (std::uint64_t off = 0; off < bucket.size(); off += 500 * kRecordSize) {
    const auto first = bucket.begin() + static_cast<std::ptrdiff_t>(off);
    const auto last = bucket.begin() + static_cast<std::ptrdiff_t>(std::min<
                          std::uint64_t>(off + 500 * kRecordSize, bucket.size()));
    parts.push_back(make_bytes(Bytes(first, last)));
  }
  expect_matches_reference(parts);
}

TEST(SortReduceTest, TornPartIsInternalError) {
  RecordMaker maker{Rng(2), Keys::kUniform};
  Bytes torn = *maker.part(3);
  torn.pop_back();
  SortJob job(1);
  auto result = job.reduce(0, std::vector<BytesPtr>{maker.part(2),
                                                    make_bytes(std::move(torn))});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(SortMapTest, BucketsMatchRecordAtATimeAppend) {
  constexpr std::uint32_t kReducers = 5;
  SortJob job(kReducers);
  std::vector<Bytes> buckets(kReducers);
  std::vector<Bytes> want(kReducers);
  for (std::uint64_t chunk = 0; chunk < 4; ++chunk) {
    const Bytes data = generate_records(chunk, 300 + 700 * chunk);
    job.map_chunk(InputSplit{}, data, buckets);
    for (std::uint64_t off = 0; off < data.size(); off += kRecordSize) {
      Bytes& bucket = want[partition_of(data.data() + off, kReducers)];
      bucket.insert(bucket.end(), data.begin() + static_cast<std::ptrdiff_t>(off),
                    data.begin() +
                        static_cast<std::ptrdiff_t>(off + kRecordSize));
    }
  }
  EXPECT_EQ(buckets, want);
}

// Splits `stream` into k parts at multiples of `entry` bytes.
std::vector<BytesPtr> split_parts(const Bytes& stream, std::uint64_t entry,
                                  std::uint64_t k, Rng& rng) {
  const std::uint64_t entries = stream.size() / entry;
  std::vector<std::uint64_t> cuts{0, entries};
  for (std::uint64_t i = 1; i < k; ++i) cuts.push_back(rng.uniform(0, entries));
  std::sort(cuts.begin(), cuts.end());
  std::vector<BytesPtr> parts;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    if (cuts[i] == cuts[i + 1]) continue;  // the engine sends no empty part
    parts.push_back(make_bytes(Bytes(
        stream.begin() + static_cast<std::ptrdiff_t>(cuts[i] * entry),
        stream.begin() + static_cast<std::ptrdiff_t>(cuts[i + 1] * entry))));
  }
  return parts;
}

// Map output of `job` over random chunks, as one stream per reducer.
template <typename J>
std::vector<Bytes> map_output(J& job, std::uint32_t reducers, Rng& rng) {
  std::vector<Bytes> out(reducers);
  for (int chunk = 0; chunk < 12; ++chunk) {
    Bytes data(rng.uniform(1, 3000));
    for (auto& byte : data) {
      // Skewed toward the grep marker so matches are common.
      byte = static_cast<std::uint8_t>(rng.uniform(0, 3) == 0
                                           ? (rng.uniform(0, 1) ? 0xAB : 0xCD)
                                           : rng.uniform(0, 255));
    }
    job.map_chunk(InputSplit{}, data, out);
  }
  return out;
}

TEST(GrepReduceTest, SplitInputFoldsLikeOnePart) {
  Rng rng(11);
  GrepJob mapper;
  const Bytes stream = map_output(mapper, 1, rng)[0];
  for (std::uint64_t k = 1; k <= 6; ++k) {
    GrepJob whole, split;
    auto want = whole.reduce(0, std::vector<BytesPtr>{make_bytes(stream)});
    auto got = split.reduce(0, split_parts(stream, 8, k, rng));
    ASSERT_TRUE(want.is_ok() && got.is_ok());
    EXPECT_EQ(got.value(), want.value()) << "k=" << k;
    EXPECT_EQ(split.total_matches(), whole.total_matches());
  }
  GrepJob torn;
  const Bytes short_count(7);
  auto result = torn.reduce(0, std::vector<BytesPtr>{make_bytes(stream),
                                                     make_bytes(short_count)});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(ByteHistogramReduceTest, SplitInputFoldsLikeOnePart) {
  constexpr std::uint32_t kReducers = 3;
  Rng rng(12);
  ByteHistogramJob mapper(kReducers);
  const std::vector<Bytes> streams = map_output(mapper, kReducers, rng);
  for (std::uint32_t r = 0; r < kReducers; ++r) {
    for (std::uint64_t k = 1; k <= 6; ++k) {
      ByteHistogramJob whole(kReducers), split(kReducers);
      auto want =
          whole.reduce(r, std::vector<BytesPtr>{make_bytes(streams[r])});
      auto got = split.reduce(r, split_parts(streams[r], 9, k, rng));
      ASSERT_TRUE(want.is_ok() && got.is_ok());
      EXPECT_EQ(got.value(), want.value()) << "r=" << r << " k=" << k;
      EXPECT_EQ(split.total_count(), whole.total_count());
    }
  }
  ByteHistogramJob torn(kReducers);
  auto result = torn.reduce(0, std::vector<BytesPtr>{make_bytes(Bytes(10))});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace hpcbb::mapred
