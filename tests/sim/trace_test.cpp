#include "sim/trace.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "sim/sync.h"

namespace hpcbb::sim {
namespace {

using namespace hpcbb::duration;  // NOLINT

TEST(TraceTest, SpansCaptureSimulatedTime) {
  Simulation sim;
  TraceRecorder trace(sim);
  sim.spawn([](Simulation& s, TraceRecorder& t) -> Task<void> {
    const std::size_t span = t.begin("op.one", "test", 3);
    co_await s.delay(100 * us);
    t.end(span);
  }(sim, trace));
  sim.run();
  ASSERT_EQ(trace.spans().size(), 1u);
  const TraceSpan& span = trace.spans()[0];
  EXPECT_EQ(span.name, "op.one");
  EXPECT_EQ(span.category, "test");
  EXPECT_EQ(span.track, 3u);
  EXPECT_EQ(span.begin_ns, 0u);
  EXPECT_EQ(span.end_ns, 100 * us);
}

TEST(TraceTest, InterleavedSpansCloseByIndex) {
  Simulation sim;
  TraceRecorder trace(sim);
  sim.spawn([](Simulation& s, TraceRecorder& t) -> Task<void> {
    const std::size_t a = t.begin("a", "x", 0);
    co_await s.delay(10);
    const std::size_t b = t.begin("b", "x", 0);
    co_await s.delay(10);
    t.end(a);  // out of order relative to b
    co_await s.delay(10);
    t.end(b);
  }(sim, trace));
  sim.run();
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.spans()[0].end_ns, 20u);
  EXPECT_EQ(trace.spans()[1].end_ns, 30u);
  EXPECT_EQ(trace.open_span_count(), 0u);
}

TEST(TraceTest, ScopedSpanClosesOnExit) {
  Simulation sim;
  TraceRecorder trace(sim);
  sim.spawn([](Simulation& s, TraceRecorder& t) -> Task<void> {
    {
      ScopedSpan span(&t, "scoped.", "span", "x", 1);
      co_await s.delay(42);
    }
    co_await s.delay(58);
  }(sim, trace));
  sim.run();
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_EQ(trace.spans()[0].name, "scoped.span");
  EXPECT_EQ(trace.spans()[0].end_ns, 42u);
}

TEST(TraceTest, NullRecorderScopedSpanIsNoop) {
  ScopedSpan span(nullptr, "n.", "x", "x", 0);  // must not crash
}

TEST(TraceTest, ChromeJsonWellFormedish) {
  Simulation sim;
  TraceRecorder trace(sim);
  trace.record("op \"quoted\"", "cat", 2, 1000, 3000);
  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  EXPECT_EQ(json.back(), '}');
}

TEST(TraceTest, ChromeJsonEscapesBackslashesAndControlChars) {
  Simulation sim;
  TraceRecorder trace(sim);
  trace.record("path\\with\\backslashes", "cat", 0, 0, 1000);
  trace.record("line\nbreak\ttab", "cat", 0, 0, 1000);
  const std::string json = trace.to_chrome_json();
  // Each source backslash must appear doubled in the JSON output.
  EXPECT_NE(json.find("path\\\\with\\\\backslashes"), std::string::npos);
  // Raw control characters are illegal inside JSON strings.
  EXPECT_NE(json.find("line\\nbreak\\ttab"), std::string::npos);
  EXPECT_EQ(json.find('\n', json.find("line")), std::string::npos);
}

TEST(TraceTest, UnfinishedSpanClampedToNowNotZero) {
  // A span still open when the trace is dumped gets its duration clamped to
  // the current simulated time — visible (nonzero) at microsecond scale.
  Simulation sim;
  TraceRecorder trace(sim);
  sim.spawn([](Simulation& s, TraceRecorder& t) -> Task<void> {
    co_await s.delay(100 * us);
    (void)t.begin("open", "x", 0);
    co_await s.delay(250 * us);
  }(sim, trace));
  sim.run();
  ASSERT_EQ(trace.open_span_count(), 1u);
  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("\"ts\":100"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":250"), std::string::npos);  // clamped to now
  // Dumping must not close the span: a later end() still works.
  EXPECT_EQ(trace.open_span_count(), 1u);
}

TEST(TraceTest, UnfinishedSpanClampedToNow) {
  Simulation sim;
  TraceRecorder trace(sim);
  sim.spawn([](Simulation& s, TraceRecorder& t) -> Task<void> {
    (void)t.begin("open", "x", 0);
    co_await s.delay(500);
  }(sim, trace));
  sim.run();
  EXPECT_EQ(trace.open_span_count(), 1u);
  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("\"dur\":0"), std::string::npos);  // 500ns -> 0us
}

TEST(TraceTest, SummaryAggregatesByPrefix) {
  Simulation sim;
  TraceRecorder trace(sim);
  trace.record("flush.block_1", "bb", 0, 0, 1000);
  trace.record("flush.block_2", "bb", 0, 1000, 4000);
  trace.record("read.chunk_9", "kv", 1, 0, 500);
  const std::string summary = trace.summary();
  EXPECT_NE(summary.find("bb\tflush\t2\t4000"), std::string::npos);
  EXPECT_NE(summary.find("kv\tread\t1\t500"), std::string::npos);
}

// Regression: a span that *ends* at t=0 used to be indistinguishable from an
// open span (end_ns == 0 was the open sentinel) and got clamped to now.
TEST(TraceTest, SpanEndingAtTimeZeroIsClosed) {
  Simulation sim;
  TraceRecorder trace(sim);
  sim.spawn([](Simulation& s, TraceRecorder& t) -> Task<void> {
    const std::size_t span = t.begin("instant", "test", 0);
    t.end(span);  // zero-duration span at t=0
    co_await s.delay(1 * ms);
  }(sim, trace));
  sim.run();
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_EQ(trace.open_span_count(), 0u);
  EXPECT_EQ(trace.spans()[0].end_ns, 0u);
  // Chrome JSON must report dur 0, not 1 ms.
  EXPECT_NE(trace.to_chrome_json().find("\"dur\":0"), std::string::npos);
}

TEST(TraceTest, OpIdEmittedInChromeArgs) {
  Simulation sim;
  TraceRecorder trace(sim);
  sim.spawn([](Simulation& s, TraceRecorder& t) -> Task<void> {
    const std::size_t span = t.begin("write", "kv", 1, /*op_id=*/42);
    co_await s.delay(10 * us);
    t.end(span);
    t.record("plain", "kv", 2, 0, 5 * us);  // no op_id: no args field
  }(sim, trace));
  sim.run();
  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("\"args\":{\"op_id\":42}"), std::string::npos);
  // Exactly one args field: spans without an op_id stay unannotated.
  EXPECT_EQ(json.find("\"args\""), json.rfind("\"args\""));
}

TEST(TraceTest, ClearResets) {
  Simulation sim;
  TraceRecorder trace(sim);
  trace.record("a", "b", 0, 0, 1);
  trace.clear();
  EXPECT_TRUE(trace.spans().empty());
}

}  // namespace
}  // namespace hpcbb::sim
