// The byte kernels that split one call across the byte pool: each must
// return exactly what its serial path does, also when every pool thread is
// busy and the caller runs every part itself. Then the spare list: which
// buffers it keeps and hands out, and that a reused spare's stale bytes
// never show.
#include "common/byte_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/crc32c_internal.h"
#include "common/pattern_internal.h"
#include "common/rng.h"
#include "common/units.h"

namespace hpcbb {
namespace {

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

Bytes scalar_pattern(std::uint64_t seed, std::uint64_t offset,
                     std::size_t size) {
  Bytes out(size);
  pattern_detail::fill_scalar(seed, offset, out.data(), size);
  return out;
}

// Bytes [from, from + length) of the pieces laid back to back, or fewer if
// they end first: what gather returns, computed the plain way.
Bytes concatenated(const std::vector<ByteSlice>& pieces, std::uint64_t from,
                   std::uint64_t length) {
  Bytes all;
  for (const ByteSlice& piece : pieces) {
    all.insert(all.end(), piece.span().begin(), piece.span().end());
  }
  if (from >= all.size()) return {};
  const std::uint64_t n = std::min<std::uint64_t>(length, all.size() - from);
  return Bytes(all.begin() + static_cast<std::ptrdiff_t>(from),
               all.begin() + static_cast<std::ptrdiff_t>(from + n));
}

constexpr std::size_t kCrcLengths[] = {
    kSplitCrcBytes - 1, kSplitCrcBytes, kSplitCrcBytes + 1,
    1 * MiB,            1 * MiB + 13,   4 * MiB + 7};
constexpr std::size_t kCrcOffsets[] = {0, 1, 17, 63};

TEST(BytePoolTest, PartsCoverTheBufferInOrder) {
  for (const std::size_t n :
       {kSplitCrcBytes, kSplitBytes + 13, 4 * MiB + 5, 64 * MiB + 1}) {
    const std::size_t parts = split_parts(n);
    ASSERT_GE(parts, 2u);
    ASSERT_LE(parts, kMaxSplitParts);
    std::size_t at = 0;
    for (std::size_t i = 0; i < parts; ++i) {
      const SplitRange range = split_range(n, parts, i);
      EXPECT_EQ(range.begin, at) << "n " << n << " part " << i;
      EXPECT_GT(range.size(), 0u) << "n " << n << " part " << i;
      EXPECT_EQ(range.begin % kSplitAlign, 0u);
      at = range.end;
    }
    EXPECT_EQ(at, n);
  }
  EXPECT_EQ(split_parts(1), 1u);
}

TEST(BytePoolTest, SplitCrcMatchesTablePath) {
  const Bytes buf = random_bytes(4 * MiB + 7 + 64, 11);
  for (const std::size_t n : kCrcLengths) {
    for (const std::size_t off : kCrcOffsets) {
      for (const std::uint32_t init : {0u, 0xDEADBEEFu}) {
        EXPECT_EQ(crc32c(init, buf.data() + off, n),
                  crc32c_detail::crc32c_table(init, buf.data() + off, n))
            << "length " << n << " offset " << off << " crc " << init;
      }
    }
  }
}

TEST(BytePoolTest, SplitCrcCountsEveryByteOnceOnTheCaller) {
  const Bytes buf = random_bytes(4 * MiB + 7, 12);
  const std::uint64_t before = crc32c_bytes();
  (void)crc32c(buf);
  EXPECT_EQ(crc32c_bytes() - before, buf.size());
}

TEST(BytePoolTest, CombineMatchesDirectCrc) {
  const Bytes buf = random_bytes(1 * MiB + 300, 13);
  for (const std::size_t second : {std::size_t{0}, std::size_t{1},
                                   std::size_t{63}, std::size_t{64}, 1 * MiB}) {
    for (const std::uint32_t init : {0u, 0x12345678u}) {
      const std::size_t first = 300;
      const std::uint32_t crc_a =
          crc32c_detail::crc32c_table(init, buf.data(), first);
      const std::uint32_t crc_b =
          crc32c_detail::crc32c_table(0, buf.data() + first, second);
      EXPECT_EQ(crc32c_detail::crc32c_combine(crc_a, crc_b, second),
                crc32c_detail::crc32c_table(init, buf.data(), first + second))
          << "second part " << second << " crc " << init;
    }
  }
}

TEST(BytePoolTest, SplitPatternMatchesScalarReference) {
  for (const std::size_t size : {1 * MiB, 4 * MiB + 5}) {
    for (const std::uint64_t off : {0u, 3u, 4093u}) {
      const Bytes expected = scalar_pattern(9, off, size);
      EXPECT_EQ(pattern_bytes(9, off, size), expected)
          << "size " << size << " offset " << off;
      EXPECT_TRUE(verify_pattern(9, off, expected))
          << "size " << size << " offset " << off;
      EXPECT_FALSE(verify_pattern(9, off + 1, expected))
          << "size " << size << " offset " << off;
    }
  }
}

TEST(BytePoolTest, SplitVerifyFindsOneFlippedByteInEveryPart) {
  const std::size_t size = 4 * MiB + 5;
  const std::uint64_t off = 3;
  Bytes data = scalar_pattern(21, off, size);
  const std::size_t parts = split_parts(size);
  std::vector<std::size_t> flips = {
      10, split_range(size, parts, parts / 2).begin + 100, size - 1};
  for (std::size_t i = 1; i < parts; ++i) {
    const std::size_t boundary = split_range(size, parts, i).begin;
    flips.insert(flips.end(), {boundary - 1, boundary, boundary + 1});
  }
  for (const std::size_t at : flips) {
    data[at] ^= 0x40;
    EXPECT_FALSE(verify_pattern(21, off, data)) << "flipped byte " << at;
    data[at] ^= 0x40;
  }
  EXPECT_TRUE(verify_pattern(21, off, data));
}

TEST(BytePoolTest, SplitGatherMatchesConcatenation) {
  Rng rng(31);
  const Bytes source = random_bytes(6 * MiB, 32);
  const BytesPtr shared = make_bytes(source);
  for (int round = 0; round < 12; ++round) {
    // Pieces of 1 byte to 1.5 MiB at random places in one shared buffer,
    // so many of them cross the parts' boundaries.
    std::vector<ByteSlice> pieces;
    std::uint64_t total = 0;
    while (total < 3 * MiB + rng.uniform(0, 2 * MiB)) {
      const std::uint64_t length = rng.uniform(0, 3) == 0
                                       ? rng.uniform(1, 64)
                                       : rng.uniform(1, 1536 * KiB);
      const std::uint64_t offset = rng.uniform(0, shared->size() - length);
      pieces.push_back(ByteSlice{shared, offset, length});
      total += length;
    }
    const std::uint64_t from = rng.uniform(1, 512 * KiB);
    // Lengths from the threshold to past the pieces' end.
    const std::uint64_t length = rng.uniform(kSplitBytes, total);
    EXPECT_EQ(gather(pieces, from, length), concatenated(pieces, from, length))
        << "round " << round << " from " << from << " length " << length;
  }
}

TEST(BytePoolTest, KernelsRunOnTheCallerWhilePoolThreadsAreBlocked) {
  const unsigned threads = byte_pool_threads();
  if (threads == 0) GTEST_SKIP() << "the byte pool has no thread on this host";
  // One call whose parts block: its caller takes one, each pool thread one.
  const std::size_t n = (threads + 1) * kSplitPartBytes;
  ASSERT_EQ(split_parts(n), threads + 1);
  std::latch release(1);
  std::atomic<unsigned> blocked{0};
  auto block = [&](std::size_t, SplitRange) noexcept {
    blocked.fetch_add(1);
    release.wait();
  };
  std::thread holder([&] { EXPECT_TRUE(split_run(n, block)); });
  while (blocked.load() < threads + 1) std::this_thread::yield();

  const Bytes buf = random_bytes(4 * MiB + 7, 41);
  EXPECT_EQ(crc32c(5, buf.data() + 1, buf.size() - 1),
            crc32c_detail::crc32c_table(5, buf.data() + 1, buf.size() - 1));
  const Bytes expected = scalar_pattern(3, 4093, 4 * MiB + 5);
  EXPECT_EQ(pattern_bytes(3, 4093, expected.size()), expected);
  EXPECT_TRUE(verify_pattern(3, 4093, expected));
  const std::vector<ByteSlice> pieces = {
      ByteSlice{make_bytes(buf), 7, 3 * MiB}, whole(make_bytes(expected))};
  EXPECT_EQ(gather(pieces, 5, 5 * MiB), concatenated(pieces, 5, 5 * MiB));

  release.count_down();
  holder.join();
  // The pool threads went back to serving; a split call still works.
  EXPECT_EQ(crc32c(buf), crc32c_detail::crc32c_table(0, buf.data(), buf.size()));
}

// The spare list is process-wide: each test starts and ends with it empty.
class SpareTest : public ::testing::Test {
 protected:
  void SetUp() override { drop_spares(); }
  void TearDown() override { drop_spares(); }
};

TEST_F(SpareTest, GatherOverwritesAReusedSpareWhole) {
  Bytes spare(3 * MiB, 0xA5);
  const std::uint8_t* const reused = spare.data();
  give_back(std::move(spare));
  ASSERT_EQ(spare_count(), 1u);
  const Bytes source = random_bytes(4 * MiB, 51);
  const std::vector<ByteSlice> pieces = {
      ByteSlice{make_bytes(source), 9, 1 * MiB + 77},
      ByteSlice{make_bytes(source), 2 * MiB, 2 * MiB}};
  const std::uint64_t reuses = buffer_reuses();
  const std::uint64_t fresh = buffer_fresh();
  // 2 MiB + 3 bytes: no byte of the spare's 0xA5 fill may survive.
  const Bytes got = gather(pieces, 3, 2 * MiB + 3);
  EXPECT_EQ(got.data(), reused);
  EXPECT_EQ(got, concatenated(pieces, 3, 2 * MiB + 3));
  EXPECT_EQ(buffer_reuses(), reuses + 1);
  EXPECT_EQ(buffer_fresh(), fresh);
  EXPECT_EQ(spare_count(), 0u);
}

TEST_F(SpareTest, TakesOnlyASpareOfNToTwoNBytes) {
  constexpr std::size_t n = 2 * MiB;
  Bytes larger(2 * n + 1, 0xA5);
  Bytes smaller(n - 1, 0xA5);
  const std::uint8_t* const not_taken[] = {larger.data(), smaller.data()};
  give_back(std::move(larger));
  give_back(std::move(smaller));
  ASSERT_EQ(spare_count(), 2u);
  const std::uint64_t reuses = buffer_reuses();
  const std::uint64_t fresh = buffer_fresh();
  const Bytes got = take_buffer(n);
  ASSERT_EQ(got.size(), n);
  EXPECT_NE(got.data(), not_taken[0]);
  EXPECT_NE(got.data(), not_taken[1]);
  EXPECT_TRUE(std::all_of(got.begin(), got.end(),
                          [](std::uint8_t b) { return b == 0; }));
  EXPECT_EQ(buffer_fresh(), fresh + 1);
  EXPECT_EQ(buffer_reuses(), reuses);
  EXPECT_EQ(spare_count(), 2u);

  // Both ends of the window fit.
  drop_spares();
  for (const std::size_t size : {n, 2 * n}) {
    Bytes spare(size, 0xA5);
    const std::uint8_t* const at = spare.data();
    give_back(std::move(spare));
    const Bytes taken = take_buffer(n);
    EXPECT_EQ(taken.data(), at) << "spare of " << size;
    EXPECT_EQ(taken.size(), n);
  }
  EXPECT_EQ(buffer_reuses(), reuses + 2);
}

TEST_F(SpareTest, TakeReservedClearsASpareOrReservesFresh) {
  Bytes spare(3 * MiB, 0xA5);
  const std::uint8_t* const at = spare.data();
  give_back(std::move(spare));
  const std::uint64_t reuses = buffer_reuses();
  const std::uint64_t fresh = buffer_fresh();
  const Bytes reused = take_reserved(2 * MiB);
  EXPECT_TRUE(reused.empty());
  EXPECT_GE(reused.capacity(), 2 * MiB);
  EXPECT_EQ(reused.data(), at);
  const Bytes reserved = take_reserved(2 * MiB);
  EXPECT_TRUE(reserved.empty());
  EXPECT_GE(reserved.capacity(), 2 * MiB);
  EXPECT_EQ(buffer_reuses(), reuses + 1);
  EXPECT_EQ(buffer_fresh(), fresh + 1);
  // A small read neither looks for a spare nor counts.
  EXPECT_GE(take_reserved(kSplitBytes - 1).capacity(), kSplitBytes - 1);
  EXPECT_EQ(take_buffer(kSplitBytes - 1), Bytes(kSplitBytes - 1));
  EXPECT_EQ(buffer_reuses(), reuses + 1);
  EXPECT_EQ(buffer_fresh(), fresh + 1);
}

TEST_F(SpareTest, KeepsNoBufferBelowTheSplitThreshold) {
  give_back(Bytes(kSplitBytes - 1, 0xA5));
  give_back(Bytes{});
  EXPECT_EQ(spare_count(), 0u);
  give_back(Bytes(kSplitBytes, 0xA5));
  EXPECT_EQ(spare_count(), 1u);
}

TEST_F(SpareTest, HoldsAtMostTheCap) {
  for (std::size_t i = 0; i < kMaxSpares + 4; ++i) {
    give_back(Bytes(kSplitBytes, 0xA5));
  }
  EXPECT_EQ(spare_count(), kMaxSpares);
  const std::uint64_t reuses = buffer_reuses();
  const std::uint64_t fresh = buffer_fresh();
  for (std::size_t i = 0; i < kMaxSpares + 4; ++i) {
    EXPECT_EQ(take_buffer(kSplitBytes).size(), kSplitBytes);
  }
  EXPECT_EQ(buffer_reuses(), reuses + kMaxSpares);
  EXPECT_EQ(buffer_fresh(), fresh + 4);
}

TEST_F(SpareTest, DropSparesEmptiesTheList) {
  for (int i = 0; i < 3; ++i) give_back(Bytes(2 * MiB, 0xA5));
  ASSERT_EQ(spare_count(), 3u);
  drop_spares();
  EXPECT_EQ(spare_count(), 0u);
  const std::uint64_t fresh = buffer_fresh();
  EXPECT_EQ(take_buffer(2 * MiB), Bytes(2 * MiB));
  EXPECT_EQ(buffer_fresh(), fresh + 1);
}

}  // namespace
}  // namespace hpcbb
