#include "common/strings.h"

#include <gtest/gtest.h>

namespace hpcbb {
namespace {

TEST(StringsTest, SplitBasic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = split(",x,,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitEmptyString) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t a b \r\n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(starts_with("/user/data", "/user"));
  EXPECT_FALSE(starts_with("/usr", "/user"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(StringsTest, Fnv1aIsStableAndDistinguishes) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a"), fnv1a("a"));
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
  EXPECT_NE(fnv1a("/f1#0"), fnv1a("/f1#1"));
}

TEST(StringsTest, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512.0 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KiB");
  EXPECT_EQ(format_bytes(3 * 1024 * 1024), "3.00 MiB");
}

TEST(StringsTest, FormatDuration) {
  EXPECT_EQ(format_duration_ns(500), "500.0 ns");
  EXPECT_EQ(format_duration_ns(1500), "1.50 us");
  EXPECT_EQ(format_duration_ns(2'500'000'000ull), "2.50 s");
}

TEST(StringsTest, ParseDurationSuffixes) {
  EXPECT_EQ(parse_duration_ns("250ns"), 250u);
  EXPECT_EQ(parse_duration_ns("5us"), 5'000u);
  EXPECT_EQ(parse_duration_ns("100ms"), 100'000'000u);
  EXPECT_EQ(parse_duration_ns("2s"), 2'000'000'000u);
  EXPECT_EQ(parse_duration_ns("750"), 750u);  // bare count = nanoseconds
}

TEST(StringsTest, ParseDurationFractionsAndWhitespace) {
  EXPECT_EQ(parse_duration_ns("1.5ms"), 1'500'000u);
  EXPECT_EQ(parse_duration_ns("0.25s"), 250'000'000u);
  EXPECT_EQ(parse_duration_ns(" 10ms "), 10'000'000u);
}

TEST(StringsTest, ParseDurationRejectsGarbage) {
  EXPECT_FALSE(parse_duration_ns("").has_value());
  EXPECT_FALSE(parse_duration_ns("fast").has_value());
  EXPECT_FALSE(parse_duration_ns("-5ms").has_value());
  EXPECT_FALSE(parse_duration_ns("6O0ms").has_value());
  EXPECT_FALSE(parse_duration_ns("nan").has_value());
  EXPECT_FALSE(parse_duration_ns("infs").has_value());
  EXPECT_FALSE(parse_duration_ns("1e30s").has_value());  // past 2^64 ns
  EXPECT_FALSE(parse_duration_ns("10 q").has_value());
  EXPECT_FALSE(parse_duration_ns("ms").has_value());
}

}  // namespace
}  // namespace hpcbb
