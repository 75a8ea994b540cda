#include "common/bytes.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace hpcbb {
namespace {

// The byte-at-a-time generator pattern_bytes replaced: byte b of word
// `pos` is bits [8b, 8b+8) of SplitMix64(seed ^ pos * golden).
Bytes pattern_reference(std::uint64_t seed, std::uint64_t offset,
                        std::size_t size) {
  Bytes out(size);
  for (std::size_t i = 0; i < size; ++i) {
    const std::uint64_t at = offset + i;
    const std::uint64_t word =
        SplitMix64(seed ^ ((at / 8) * 0x9E3779B97F4A7C15ull)).next();
    out[i] = static_cast<std::uint8_t>(word >> (8 * (at % 8)));
  }
  return out;
}

TEST(BytesTest, PatternMatchesByteReference) {
  for (std::uint64_t off = 0; off <= 16; ++off) {
    for (std::size_t size = 0; size <= 64; ++size) {
      ASSERT_EQ(pattern_bytes(5, off, size), pattern_reference(5, off, size))
          << "offset " << off << " size " << size;
    }
  }
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t seed = rng.next();
    const std::uint64_t off = rng.uniform(0, 1ull << 40);
    const std::size_t size = rng.uniform(0, 5000);
    const Bytes data = pattern_bytes(seed, off, size);
    ASSERT_EQ(data, pattern_reference(seed, off, size))
        << "seed " << seed << " offset " << off << " size " << size;
    EXPECT_TRUE(verify_pattern(seed, off, data));
  }
}

TEST(BytesTest, VerifyPatternRejectsOneFlippedByteAnywhere) {
  // Head bytes (before the first whole word), middle words and tail bytes
  // take different compare paths; each must catch a single flipped byte.
  for (const std::uint64_t off : {0ull, 3ull, 8ull, 13ull}) {
    for (const std::size_t size : {1ul, 7ul, 8ul, 29ul, 100ul}) {
      const Bytes clean = pattern_bytes(77, off, size);
      ASSERT_TRUE(verify_pattern(77, off, clean));
      for (const std::size_t pos : {std::size_t{0}, size / 2, size - 1}) {
        Bytes data = clean;
        data[pos] ^= 0x10;
        EXPECT_FALSE(verify_pattern(77, off, data))
            << "offset " << off << " size " << size << " flip " << pos;
      }
    }
  }
}

TEST(BytesTest, PatternIsDeterministic) {
  const Bytes a = pattern_bytes(42, 0, 256);
  const Bytes b = pattern_bytes(42, 0, 256);
  EXPECT_EQ(a, b);
}

TEST(BytesTest, PatternDependsOnSeed) {
  EXPECT_NE(pattern_bytes(1, 0, 64), pattern_bytes(2, 0, 64));
}

TEST(BytesTest, SlicesComposeIntoWhole) {
  // Generating [0,100) must equal generating [0,37) ++ [37,100).
  const Bytes whole = pattern_bytes(7, 0, 100);
  const Bytes head = pattern_bytes(7, 0, 37);
  const Bytes tail = pattern_bytes(7, 37, 63);
  Bytes glued = head;
  glued.insert(glued.end(), tail.begin(), tail.end());
  EXPECT_EQ(glued, whole);
}

TEST(BytesTest, UnalignedOffsetsCompose) {
  const Bytes whole = pattern_bytes(9, 0, 64);
  for (std::uint64_t off = 1; off < 16; ++off) {
    const Bytes slice = pattern_bytes(9, off, 64 - off);
    const Bytes expect(whole.begin() + static_cast<long>(off), whole.end());
    EXPECT_EQ(slice, expect) << "offset " << off;
  }
}

TEST(BytesTest, VerifyPatternAcceptsCorrectSlice) {
  const Bytes data = pattern_bytes(123, 4096, 500);
  EXPECT_TRUE(verify_pattern(123, 4096, data));
}

TEST(BytesTest, VerifyPatternRejectsCorruption) {
  Bytes data = pattern_bytes(123, 4096, 500);
  data[250] ^= 0xFF;
  EXPECT_FALSE(verify_pattern(123, 4096, data));
}

TEST(BytesTest, VerifyPatternRejectsWrongOffset) {
  const Bytes data = pattern_bytes(123, 0, 500);
  EXPECT_FALSE(verify_pattern(123, 8, data));
}

TEST(BytesTest, EmptyPattern) {
  EXPECT_TRUE(pattern_bytes(1, 0, 0).empty());
  EXPECT_TRUE(verify_pattern(1, 0, Bytes{}));
}

}  // namespace
}  // namespace hpcbb
