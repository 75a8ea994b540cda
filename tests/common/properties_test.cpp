#include "common/properties.h"

#include <gtest/gtest.h>

#include "common/units.h"

namespace hpcbb {
namespace {

TEST(PropertiesTest, ParsesBasicPairs) {
  auto r = Properties::parse("a=1\nb = hello \n\n# comment\nc=2 # tail");
  ASSERT_TRUE(r.is_ok());
  const Properties& p = r.value();
  EXPECT_EQ(p.get("a"), "1");
  EXPECT_EQ(p.get("b"), "hello");
  EXPECT_EQ(p.get("c"), "2");
  EXPECT_FALSE(p.get("missing").has_value());
}

TEST(PropertiesTest, LaterKeysWin) {
  auto r = Properties::parse("k=1\nk=2");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().get("k"), "2");
}

TEST(PropertiesTest, RejectsMalformedLine) {
  EXPECT_FALSE(Properties::parse("just_a_token").is_ok());
  EXPECT_FALSE(Properties::parse("=value").is_ok());
}

TEST(PropertiesTest, SizeSuffixes) {
  Properties p;
  p.set("block", "128m");
  p.set("mem", "4g");
  p.set("small", "512");
  p.set("kay", "2K");
  EXPECT_EQ(p.get_u64("block").value(), 128 * MiB);
  EXPECT_EQ(p.get_u64("mem").value(), 4 * GiB);
  EXPECT_EQ(p.get_u64("small").value(), 512u);
  EXPECT_EQ(p.get_u64("kay").value(), 2 * KiB);
}

TEST(PropertiesTest, U64Errors) {
  Properties p;
  p.set("bad", "12x34");
  p.set("empty", "");
  p.set("negative", "-5");
  EXPECT_EQ(p.get_u64("bad").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(p.get_u64("empty").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(p.get_u64("negative").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(p.get_u64("missing").code(), StatusCode::kNotFound);
}

// 17179869184g is 2^64 bytes: the suffix multiply used to wrap to 0.
TEST(PropertiesTest, U64RejectsOverflow) {
  Properties p;
  p.set("wraps", "17179869184g");
  p.set("largest_g", "17179869183g");
  p.set("digits", "18446744073709551616");  // 2^64
  p.set("max", "18446744073709551615");
  EXPECT_EQ(p.get_u64("wraps").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(p.get_u64("largest_g").value(), 17179869183ull * GiB);
  EXPECT_EQ(p.get_u64("digits").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(p.get_u64("max").value(), UINT64_MAX);
}

TEST(PropertiesTest, BoolAndDouble) {
  Properties p;
  p.set("t1", "true");
  p.set("t2", "1");
  p.set("f1", "no");
  p.set("bad", "maybe");
  p.set("d", "2.5");
  EXPECT_EQ(p.get_value("t1", ValueType::kBool).value().number, 1u);
  EXPECT_EQ(p.get_value("t2", ValueType::kBool).value().number, 1u);
  EXPECT_EQ(p.get_value("f1", ValueType::kBool).value().number, 0u);
  EXPECT_EQ(p.get_value("bad", ValueType::kBool).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(p.get_value("missing", ValueType::kBool).code(),
            StatusCode::kNotFound);
  EXPECT_DOUBLE_EQ(p.get_value("d", ValueType::kReal).value().real, 2.5);
  EXPECT_EQ(p.get_value("d", ValueType::kFraction).code(),
            StatusCode::kInvalidArgument);
}

// std::stod accepted all of these; a config value must be a finite number
// and nothing else.
TEST(PropertiesTest, DoubleRejectsWhatStodAccepted) {
  Properties p;
  p.set("trailing", "0.5x");
  p.set("nan", "nan");
  p.set("inf", "inf");
  p.set("empty", "");
  p.set("huge", "1e999");
  p.set("exp", "1e-3");
  for (const char* key : {"trailing", "nan", "inf", "empty", "huge"}) {
    EXPECT_EQ(p.get_value(key, ValueType::kReal).code(),
              StatusCode::kInvalidArgument)
        << key;
  }
  EXPECT_DOUBLE_EQ(p.get_value("exp", ValueType::kReal).value().real, 0.001);
}

TEST(PropertiesTest, MicrosChoiceAndText) {
  Properties p;
  p.set("pace", "250");
  p.set("too_long", "18446744073709551615");
  p.set("scheme", "sync");
  p.set("path", "/tmp/x");
  p.set("blank", " ");
  constexpr std::string_view kNames[] = {"async", "sync"};
  EXPECT_EQ(p.get_value("pace", ValueType::kMicros).value().number, 250'000u);
  EXPECT_EQ(p.get_value("too_long", ValueType::kMicros).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(p.get_value("scheme", ValueType::kChoice, kNames).value().number,
            1u);
  const Status bad = p.get_value("path", ValueType::kChoice, kNames).status();
  EXPECT_NE(bad.message().find("async|sync"), std::string::npos);
  EXPECT_EQ(p.get_value("path", ValueType::kText).value().text, "/tmp/x");
  EXPECT_EQ(p.get_value("blank", ValueType::kText).code(),
            StatusCode::kInvalidArgument);
}

TEST(PropertiesTest, SetOverrides) {
  Properties p;
  p.set("k", "a");
  p.set("k", "b");
  EXPECT_EQ(p.get("k"), "b");
  EXPECT_TRUE(p.contains("k"));
}

}  // namespace
}  // namespace hpcbb
