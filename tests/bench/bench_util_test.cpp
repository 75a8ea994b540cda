// The bench harness's result table and JSON writer (bench/bench_util.h):
// what a row prints and records, the number format, escaping, and where the
// host points go.
#include "bench_util.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace hpcbb::bench {
namespace {

struct Point {
  std::string series, x, value;
};

struct Written {
  std::string text;
  std::vector<Point> points;  // in file order
};

// Writes `result` into a scratch directory, reads the file back and
// removes it. The writer puts one point per line.
Written write(const JsonResult& result) {
  const std::string dir = ::testing::TempDir();
  setenv("HPCBB_BENCH_OUT", dir.c_str(), 1);
  testing::internal::CaptureStdout();  // its "results: ..." line
  const std::string path = result.write();
  testing::internal::GetCapturedStdout();
  unsetenv("HPCBB_BENCH_OUT");
  EXPECT_EQ(path, dir + "/" + result.id() + "_result.json");
  Written out;
  {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    out.text = text.str();
  }
  std::remove(path.c_str());
  const auto field = [](const std::string& text, const std::string& key) {
    const std::string open = "\"" + key + "\": ";
    std::size_t at = text.find(open);
    if (at == std::string::npos) return std::string();
    at += open.size();
    if (text[at] != '"') return text.substr(at, text.find('}', at) - at);
    std::size_t end = at + 1;
    while (text[end] != '"') end += text[end] == '\\' ? 2u : 1u;
    return text.substr(at + 1, end - at - 1);
  };
  std::istringstream lines(out.text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("{\"series\"") == std::string::npos) continue;
    out.points.push_back({field(line, "series"), field(line, "x"),
                          field(line, "value")});
  }
  return out;
}

TEST(BenchTableTest, RowPrintsEveryColumnAndRecordsOnePointEachInOrder) {
  JsonResult result("t1", "table");
  testing::internal::CaptureStdout();
  Table table(result, "case",
              {{"MB/s", "write-mbps"},
               {"lat", "{row}-lat-ns", "%.1fus", 1000.0},
               {"size", "bytes", "", 1, bytes_text},
               {"ok", "ok", "", 1, flag_text},
               {"", "hidden"},
               {"4", "c{row}-mbps", "%.0f", 1, nullptr, "4"}});
  table.row("a", {1988.4, 5500, 1024, 1, 7, 12});
  table.row("b", {10, kNone, 0, 0, 8, 13}, "note");
  const std::string printed = testing::internal::GetCapturedStdout();

  std::istringstream lines(printed);
  std::string blank, header, row_a, row_b;
  std::getline(lines, blank);
  std::getline(lines, header);
  std::getline(lines, row_a);
  std::getline(lines, row_b);
  EXPECT_EQ(blank, "");
  EXPECT_EQ(header.substr(0, 4), "case");
  for (const char* text : {"MB/s", "lat", "size", "ok", "4"}) {
    EXPECT_NE(header.find(text), std::string::npos) << text;
  }
  EXPECT_EQ(row_a.substr(0, 1), "a");
  for (const char* text : {"1988", "5.5us", "1.00 KiB", "yes", "12"}) {
    EXPECT_NE(row_a.find(text), std::string::npos) << text;
  }
  EXPECT_EQ(row_a.find('7'), std::string::npos);  // the hidden column
  for (const char* text : {"10", "-", "0.00 B", "NO", "13", "note"}) {
    EXPECT_NE(row_b.find(text), std::string::npos) << text;
  }

  const std::vector<Point> points = write(result).points;
  const std::vector<std::vector<std::string>> expected = {
      {"write-mbps", "a", "1988.4"}, {"a-lat-ns", "a", "5500"},
      {"bytes", "a", "1024"},        {"ok", "a", "1"},
      {"hidden", "a", "7"},          {"ca-mbps", "4", "12"},
      {"write-mbps", "b", "10"},     {"bytes", "b", "0"},
      {"ok", "b", "0"},              {"hidden", "b", "8"},
      {"cb-mbps", "4", "13"}};  // the NaN value records nothing
  ASSERT_EQ(points.size(), expected.size() + 4);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(points[i].series, expected[i][0]) << i;
    EXPECT_EQ(points[i].x, expected[i][1]) << i;
    EXPECT_EQ(points[i].value, expected[i][2]) << i;
  }
}

TEST(BenchTableTest, ARowWithTheWrongNumberOfValuesThrows) {
  JsonResult result("t2", "table");
  testing::internal::CaptureStdout();
  Table table(result, "case", {{"a", "a"}, {"b", "b"}});
  EXPECT_THROW(table.row("x", {1.0}), std::logic_error);
  testing::internal::GetCapturedStdout();
}

TEST(JsonResultTest, ValuesAreWrittenWithSixSignificantDigits) {
  JsonResult result("t3", "format");
  result.add("s", "pi", 3.14159265358979);
  result.add("s", "big", 123456789.0);
  result.add("s", "small", 1.5e-7);
  result.add("s", "whole", 42.0);
  const std::vector<Point> points = write(result).points;
  ASSERT_GE(points.size(), 4u);
  EXPECT_EQ(points[0].value, "3.14159");
  EXPECT_EQ(points[1].value, "1.23457e+08");
  EXPECT_EQ(points[2].value, "1.5e-07");
  EXPECT_EQ(points[3].value, "42");
}

TEST(JsonResultTest, SeriesAndXAreEscapedAndControlCharactersDropped) {
  JsonResult result("t4", "escape \"me\"");
  result.add("a\"b\\c\td", "x\n\"y\"\\", 1);
  const Written written = write(result);
  ASSERT_GE(written.points.size(), 1u);
  EXPECT_EQ(written.points[0].series, "a\\\"b\\\\cd");
  EXPECT_EQ(written.points[0].x, "x\\\"y\\\"\\\\");
  EXPECT_NE(written.text.find("\"title\": \"escape \\\"me\\\"\""),
            std::string::npos);
}

TEST(JsonResultTest, HostPointsComeLast) {
  JsonResult result("t5", "host");
  result.add("first", "1", 1);
  result.add("second", "2", 2);
  const std::vector<Point> points = write(result).points;
  ASSERT_EQ(points.size(), 6u);
  EXPECT_EQ(points[0].series, "first");
  EXPECT_EQ(points[1].series, "second");
  const char* const host[] = {"host.wall_s", "host.peak_rss_mb",
                              "host.buffer_reuses", "host.buffer_fresh"};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(points[2 + i].series, host[i]);
    EXPECT_EQ(points[2 + i].x, "process");
  }
}

TEST(FigureTest, TheIdIsTheLowerCasedFigureName) {
  testing::internal::CaptureStdout();
  const JsonResult result = figure("A1 (ablation)", "title", "claim");
  const std::string printed = testing::internal::GetCapturedStdout();
  EXPECT_EQ(result.id(), "a1");
  EXPECT_EQ(printed, "== A1 (ablation): title ==\npaper claim: claim\n");
}

}  // namespace
}  // namespace hpcbb::bench
