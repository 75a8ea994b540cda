#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32c_internal.h"
#include "common/rng.h"
#include "common/units.h"

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

// Bit-at-a-time CRC32C straight from the polynomial: the reference every
// implementation path is compared against.
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

// One implementation path of crc32c.
struct Crc32cPath {
  const char* name;
  Crc32cFn fn;
};

// Every path this CPU can run: the table one always, the crc32 instruction
// and the folding path where the CPU has them. The names go to the test
// log and its XML report, so a CI log shows which paths were tested.
std::vector<Crc32cPath> supported_paths() {
  std::vector<Crc32cPath> paths = {{"table", &crc32c_detail::crc32c_table}};
  std::string names = "table";
  if (crc32c_detail::crc32c_hw_supported()) {
    paths.push_back({"sse4.2", &crc32c_detail::crc32c_hw});
    names += " sse4.2";
  }
  if (crc32c_detail::crc32c_fold_supported()) {
    paths.push_back({"vpclmulqdq", &crc32c_detail::crc32c_fold});
    names += " vpclmulqdq";
  }
  std::cout << "crc32c paths tested: " << names << std::endl;
  ::testing::Test::RecordProperty("crc32c_paths", names);
  return paths;
}

// Checks `fn` against the bitwise reference from a random initial CRC at
// every start offset 0..63: over every length up to 1100 (the folding
// path's first blocks and ragged tails), over 4 KiB + 13 and 1 MiB + 7
// (many folding blocks and three-stream strides), and chained at every
// 64-byte boundary +-1 inside the first 2 KiB and across the three-stream
// stride, as verify_chunks chains across pieces.
void expect_matches_reference(Crc32cFn fn) {
  constexpr std::size_t kMaxExhaustive = 1100;
  constexpr std::size_t kLong[] = {4 * KiB + 13, 1 * MiB + 7};
  std::vector<std::size_t> cuts;
  for (std::size_t boundary = 64; boundary < 2 * KiB; boundary += 64) {
    cuts.insert(cuts.end(), {boundary - 1, boundary, boundary + 1});
  }
  cuts.insert(cuts.end(), {crc32c_detail::kStride - 1,
                           3 * crc32c_detail::kStride - 8,
                           3 * crc32c_detail::kStride,
                           3 * crc32c_detail::kStride + 3});
  Rng rng(2024);
  std::vector<std::uint8_t> buf(kLong[1] + 64);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t offset = 0; offset < 64; ++offset) {
    const std::uint8_t* p = buf.data() + offset;
    const auto init = static_cast<std::uint32_t>(rng.next());
    // The reference for length n+1 extends the one for length n by a byte.
    std::uint32_t ref = init;
    for (std::size_t n = 0; n <= kMaxExhaustive; ++n) {
      ASSERT_EQ(fn(init, p, n), ref) << "offset " << offset << " len " << n;
      ref = crc32c_bitwise(ref, p + n, 1);
    }
    for (const std::size_t len : kLong) {
      const std::uint32_t whole = crc32c_bitwise(init, p, len);
      ASSERT_EQ(fn(init, p, len), whole) << "offset " << offset << " len "
                                         << len;
      if (len != kLong[0]) continue;
      for (const std::size_t cut : cuts) {
        const std::uint32_t head = fn(init, p, cut);
        ASSERT_EQ(fn(head, p + cut, len - cut), whole)
            << "offset " << offset << " cut " << cut;
      }
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

TEST(Crc32cTest, FoldingPathMatchesBitwiseReference) {
  if (!crc32c_detail::crc32c_fold_supported()) {
    GTEST_SKIP() << "CPU has no AVX-512 VPCLMULQDQ";
  }
  expect_matches_reference(&crc32c_detail::crc32c_fold);
}

TEST(Crc32cTest, FoldConstantsMatchPublishedValues) {
  // Bit-reflected x^(8D+31) and x^(8D-33) mod P, the multipliers the
  // CRC32C folding kernels in the literature use for these distances.
  struct Row {
    std::size_t distance;
    std::uint32_t low;
    std::uint32_t high;
  };
  constexpr Row kRows[] = {{256, 0xdcb17aa4u, 0xb9e02b86u},
                           {64, 0x740eef02u, 0x9e4addf8u},
                           {48, 0x1c291d04u, 0xddc0152bu},
                           {32, 0x3da6d0cbu, 0xba4fc28eu},
                           {16, 0xf20c0dfeu, 0x493c7d27u}};
  for (const Row& row : kRows) {
    const crc32c_detail::FoldConstants k =
        crc32c_detail::fold_constants(row.distance);
    EXPECT_EQ(k.low, row.low) << "distance " << row.distance;
    EXPECT_EQ(k.high, row.high) << "distance " << row.distance;
  }
}

TEST(Crc32cTest, PathsAgreeOnLargeRandomBuffers) {
  // Many folding blocks and three-stream strides plus a ragged tail, at
  // random offsets, on every path this CPU has.
  const std::vector<Crc32cPath> paths = supported_paths();
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
    for (const Crc32cPath& path : paths) {
      EXPECT_EQ(path.fn(init, buf.data() + off, len), table) << path.name;
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

TEST(Crc32cTest, ByteCountIsPerThread) {
  const std::string data(1000, 'x');
  const std::uint64_t before = crc32c_bytes();
  std::uint64_t other = 0;
  std::thread worker([&data, &other] {
    const std::uint64_t start = crc32c_bytes();
    for (int i = 0; i < 100; ++i) (void)crc32c(data);
    other = crc32c_bytes() - start;
  });
  (void)crc32c(data);
  worker.join();
  EXPECT_EQ(other, 100 * data.size());
  EXPECT_EQ(crc32c_bytes() - before, data.size());
}

}  // namespace
}  // namespace hpcbb
