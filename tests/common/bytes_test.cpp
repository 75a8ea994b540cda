#include "common/bytes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/pattern_internal.h"
#include "common/rng.h"
#include "common/units.h"

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

// One implementation path of the pattern kernel.
struct PatternPath {
  const char* name;
  void (*fill)(std::uint64_t, std::uint64_t, std::uint8_t*,
               std::size_t) noexcept;
  bool (*verify)(std::uint64_t, std::uint64_t, const std::uint8_t*,
                 std::size_t) noexcept;
};

// Every path this CPU can run: the scalar one always, AVX-512 where the CPU
// has it. The names go to the test log and its XML report, so a CI log
// shows whether the vector path was tested.
std::vector<PatternPath> supported_paths() {
  std::vector<PatternPath> paths = {{"scalar", &pattern_detail::fill_scalar,
                                     &pattern_detail::verify_scalar}};
  std::string names = "scalar";
  if (pattern_detail::avx512_supported()) {
    paths.push_back({"avx512", &pattern_detail::fill_avx512,
                     &pattern_detail::verify_avx512});
    names += " avx512";
  }
  std::cout << "pattern paths tested: " << names << std::endl;
  ::testing::Test::RecordProperty("pattern_paths", names);
  return paths;
}

constexpr std::size_t kBlock = pattern_detail::kBlockBytes;
// Sizes from a ragged fraction of a block to many blocks plus a tail.
constexpr std::size_t kLongSizes[] = {kBlock - 1,       kBlock,
                                      kBlock + 1,       2 * kBlock + 7,
                                      40 * kBlock + 13, 4 * KiB + 7,
                                      64 * KiB + 3,     1 * MiB + 13};
// Offsets of the buffer's start from a 64-byte boundary.
constexpr std::size_t kShifts[] = {0, 1, 7, 33};

// A buffer whose data() starts `shift` bytes past a 64-byte boundary, with
// canary bytes on both sides of [data(), data() + size).
class ShiftedBuffer {
 public:
  static constexpr std::uint8_t kCanary = 0xA5;

  ShiftedBuffer(std::size_t size, std::size_t shift)
      : storage_(size + 2 * kBlock + shift, kCanary), size_(size) {
    const auto at = reinterpret_cast<std::uintptr_t>(storage_.data());
    start_ = (kBlock - at % kBlock) % kBlock + shift;
  }

  std::uint8_t* data() { return storage_.data() + start_; }

  // True when no byte outside [data(), data() + size) was written.
  bool canaries_intact() const {
    const auto intact = [](std::uint8_t b) { return b == kCanary; };
    const std::uint8_t* begin = storage_.data();
    return std::all_of(begin, begin + start_, intact) &&
           std::all_of(begin + start_ + size_, begin + storage_.size(),
                       intact);
  }

 private:
  Bytes storage_;
  std::size_t start_ = 0;
  std::size_t size_;
};

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
  // Each path on its own: every size to three blocks, then sizes spanning
  // many blocks, at offsets 0-15 into buffers that start off a 64-byte
  // boundary. The expected bytes at offset `off` are stream[off, ...).
  constexpr std::uint64_t kSeed = 0xC0FFEE;
  const Bytes stream = pattern_reference(kSeed, 0, 1 * MiB + 13 + 16);
  for (const PatternPath& path : supported_paths()) {
    const auto expect_fills = [&](std::uint64_t off, std::size_t size,
                                  std::size_t shift) {
      SCOPED_TRACE(::testing::Message() << path.name << " offset " << off
                                        << " size " << size << " shift "
                                        << shift);
      ShiftedBuffer buf(size, shift);
      path.fill(kSeed, off, buf.data(), size);
      const auto want = std::span(stream).subspan(off, size);
      ASSERT_TRUE(std::equal(want.begin(), want.end(), buf.data()));
      ASSERT_TRUE(buf.canaries_intact());
      ASSERT_TRUE(path.verify(kSeed, off, buf.data(), size));
    };
    for (std::uint64_t off = 0; off < 16; ++off) {
      for (std::size_t size = 0; size <= 3 * kBlock; ++size) {
        expect_fills(off, size, off % 8);
      }
      for (const std::size_t size : kLongSizes) {
        for (const std::size_t shift : kShifts) expect_fills(off, size, shift);
      }
    }
  }
}

// Positions to flip in a buffer of `size` bytes at stream offset `off`:
// every byte of the first and last two blocks and, with `boundaries`, both
// bytes at each boundary of the blocks the vector path compares (they start
// at the first whole word).
std::vector<std::size_t> flip_positions(std::uint64_t off, std::size_t size,
                                        bool boundaries) {
  std::vector<std::size_t> at;
  for (std::size_t i = 0; i < std::min(size, 2 * kBlock); ++i) {
    at.push_back(i);
    at.push_back(size - 1 - i);
  }
  const std::size_t head = (8 - off % 8) % 8;
  for (std::size_t edge = head + kBlock; boundaries && edge < size;
       edge += kBlock) {
    at.push_back(edge - 1);
    at.push_back(edge);
  }
  return at;
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
  // Each path on its own, across block boundaries. Past 4 KiB a flip near
  // the end verifies the whole buffer, so those sizes flip only in their
  // first and last two blocks, and 1 MiB takes four offsets.
  for (const PatternPath& path : supported_paths()) {
    for (std::uint64_t off = 0; off < 16; ++off) {
      const std::size_t shift = kShifts[(off + off / 4) % 4];
      for (const std::size_t size : kLongSizes) {
        if (size >= 1 * MiB && off % 4 != 1) continue;
        SCOPED_TRACE(::testing::Message() << path.name << " offset " << off
                                          << " size " << size << " shift "
                                          << shift);
        ShiftedBuffer buf(size, shift);
        path.fill(77, off, buf.data(), size);
        ASSERT_TRUE(path.verify(77, off, buf.data(), size));
        for (const std::size_t pos :
             flip_positions(off, size, size <= 4 * KiB + 7)) {
          const auto mask = static_cast<std::uint8_t>(1u << (pos % 8));
          buf.data()[pos] ^= mask;
          EXPECT_FALSE(path.verify(77, off, buf.data(), size))
              << "flip " << pos;
          buf.data()[pos] ^= mask;
        }
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
