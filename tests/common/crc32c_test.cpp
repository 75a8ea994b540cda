#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/crc32c_internal.h"
#include "common/rng.h"

namespace hpcbb {
namespace {

// Known-answer vectors for CRC32C (RFC 3720 appendix B.4 and classics).
TEST(Crc32cTest, KnownAnswers) {
  EXPECT_EQ(crc32c(""), 0u);
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c("a"), 0xC1D04330u);
  EXPECT_EQ(crc32c("abc"), 0x364B3FB7u);
  EXPECT_EQ(crc32c("The quick brown fox jumps over the lazy dog"),
            0x22620404u);
}

TEST(Crc32cTest, AllZeros32Bytes) {
  const std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const std::string data = "hello burst buffer world, hello lustre";
  const std::uint32_t whole = crc32c(data);
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    std::uint32_t crc = crc32c(0, data.data(), cut);
    crc = crc32c(crc, data.data() + cut, data.size() - cut);
    EXPECT_EQ(crc, whole) << "cut at " << cut;
  }
}

TEST(Crc32cTest, SensitiveToSingleBitFlip) {
  std::vector<std::uint8_t> data(1024, 0xAB);
  const std::uint32_t clean = crc32c(data);
  for (const std::size_t pos : {0u, 511u, 1023u}) {
    data[pos] ^= 0x01;
    EXPECT_NE(crc32c(data), clean) << "flip at " << pos;
    data[pos] ^= 0x01;
  }
}

// Bit-at-a-time CRC32C straight from the polynomial: the reference both
// implementation paths are compared against.
std::uint32_t crc32c_bitwise(std::uint32_t crc, const std::uint8_t* p,
                             std::size_t n) {
  crc = ~crc;
  while (n-- > 0) {
    crc ^= *p++;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
  }
  return ~crc;
}

using Crc32cFn = std::uint32_t (*)(std::uint32_t, const void*,
                                   std::size_t) noexcept;

// Checks `fn` against the bitwise reference on every length up to
// 3 * kStride + 64 (past the first three-stream block) at start alignments
// 0..15, from random initial CRCs, and chained across the stride boundary.
void expect_matches_reference(Crc32cFn fn) {
  constexpr std::size_t kMaxLen = 3 * crc32c_detail::kStride + 64;
  Rng rng(2024);
  std::vector<std::uint8_t> buf(kMaxLen + 16);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t align = 0; align < 16; ++align) {
    const std::uint8_t* p = buf.data() + align;
    const auto init = static_cast<std::uint32_t>(rng.next());
    // The reference for length n+1 extends the one for length n by a byte.
    std::uint32_t ref = init;
    for (std::size_t n = 0; n <= kMaxLen; ++n) {
      ASSERT_EQ(fn(init, p, n), ref) << "align " << align << " len " << n;
      if (n < kMaxLen) ref = crc32c_bitwise(ref, p + n, 1);
    }
    for (const std::size_t cut : {std::size_t{1}, crc32c_detail::kStride - 1,
                                  3 * crc32c_detail::kStride - 8,
                                  3 * crc32c_detail::kStride,
                                  3 * crc32c_detail::kStride + 3}) {
      const std::uint32_t head = fn(init, p, cut);
      EXPECT_EQ(fn(head, p + cut, kMaxLen - cut), ref)
          << "align " << align << " cut " << cut;
    }
  }
}

TEST(Crc32cTest, TablePathMatchesBitwiseReference) {
  expect_matches_reference(&crc32c_detail::crc32c_table);
}

TEST(Crc32cTest, HardwarePathMatchesBitwiseReference) {
  if (!crc32c_detail::crc32c_hw_supported()) {
    GTEST_SKIP() << "CPU has no SSE4.2 crc32 instruction";
  }
  expect_matches_reference(&crc32c_detail::crc32c_hw);
}

TEST(Crc32cTest, PathsAgreeOnLargeRandomBuffers) {
  // Many three-stream blocks plus a ragged tail, at random offsets.
  Rng rng(7);
  std::vector<std::uint8_t> buf(256 * 1024 + 77);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  for (int i = 0; i < 32; ++i) {
    const std::size_t off = rng.uniform(0, 4095);
    const std::size_t len = rng.uniform(0, buf.size() - off);
    const auto init = static_cast<std::uint32_t>(rng.next());
    const std::uint32_t table =
        crc32c_detail::crc32c_table(init, buf.data() + off, len);
    EXPECT_EQ(crc32c(init, buf.data() + off, len), table);
    if (crc32c_detail::crc32c_hw_supported()) {
      EXPECT_EQ(crc32c_detail::crc32c_hw(init, buf.data() + off, len), table);
    }
  }
}

TEST(Crc32cTest, UnalignedStartMatches) {
  const std::string data = "0123456789abcdef0123456789abcdef";
  for (std::size_t off = 0; off < 8; ++off) {
    const std::string_view suffix(data.data() + off, data.size() - off);
    const std::uint32_t direct = crc32c(suffix);
    const std::uint32_t copied = crc32c(std::string(suffix));
    EXPECT_EQ(direct, copied);
  }
}

}  // namespace
}  // namespace hpcbb
