#include "common/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

namespace hpcbb {
namespace {

TEST(CounterTest, AddsAndResets) {
  Counter c;
  EXPECT_EQ(c.get(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.get(), 42u);
  c.reset();
  EXPECT_EQ(c.get(), 0u);
}

TEST(CounterTest, ThreadSafeAccumulation) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.get(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(HistogramTest, QuantilesWithinBucketError) {
  Histogram h;
  for (std::uint64_t v = 0; v < 100000; ++v) h.record(v);
  // Log-linear buckets with 16 sub-buckets: <= 6.25% relative error.
  const std::uint64_t p50 = h.quantile(0.5);
  const std::uint64_t p99 = h.quantile(0.99);
  EXPECT_NEAR(static_cast<double>(p50), 50000.0, 50000.0 * 0.07);
  EXPECT_NEAR(static_cast<double>(p99), 99000.0, 99000.0 * 0.07);
  EXPECT_GE(h.quantile(1.0), 99999u - 1);
}

TEST(HistogramTest, QuantileIsUpperBound) {
  Histogram h;
  h.record(1000);
  EXPECT_GE(h.quantile(0.5), 1000u);
  EXPECT_GE(h.quantile(0.0), 1000u);
}

TEST(HistogramTest, SmallValuesExact) {
  Histogram h;
  for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) h.record(v);
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), Histogram::kSubBuckets - 1);
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, HugeValues) {
  Histogram h;
  const std::uint64_t big = 1ull << 62;
  h.record(big);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.quantile(1.0), big);
  EXPECT_LE(h.quantile(1.0), big + (big >> 3));
}

TEST(HistogramTest, EmptyHistogramQuantileExtremes) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(1.0), 0u);
  // Out-of-range q is clamped, not UB.
  EXPECT_EQ(h.quantile(-1.0), 0u);
  EXPECT_EQ(h.quantile(2.0), 0u);
}

TEST(HistogramTest, SingleSampleAllQuantilesCoincide) {
  Histogram h;
  const std::uint64_t v = 123456;
  h.record(v);
  const std::uint64_t p0 = h.quantile(0.0);
  EXPECT_EQ(h.quantile(0.25), p0);
  EXPECT_EQ(h.quantile(0.5), p0);
  EXPECT_EQ(h.quantile(1.0), p0);
  // The bucket upper bound brackets the sample within one sub-bucket.
  EXPECT_GE(p0, v);
  EXPECT_LE(static_cast<double>(p0),
            static_cast<double>(v) * (1.0 + 1.0 / Histogram::kSubBuckets));
}

TEST(HistogramTest, LogUniformSampleQuantileErrorBound) {
  // Samples spread log-uniformly across 30 orders of magnitude (base 2):
  // the log-linear bucketing must hold its <= 1/16 = 6.25% relative error
  // at every quantile, not just in the middle of one decade.
  Histogram h;
  constexpr int kSamples = 10000;
  std::vector<std::uint64_t> sorted;
  sorted.reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    const double exponent =
        10.0 + 30.0 * static_cast<double>(i) / (kSamples - 1);
    const auto v = static_cast<std::uint64_t>(std::exp2(exponent));
    sorted.push_back(v);  // generated ascending
    h.record(v);
  }
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    // Mirror the histogram's rank convention: the target-th smallest sample.
    const auto target =
        static_cast<std::size_t>(q * static_cast<double>(kSamples - 1));
    const std::uint64_t exact = sorted[target];
    const std::uint64_t estimate = h.quantile(q);
    EXPECT_GE(estimate, exact) << "q=" << q;
    EXPECT_LE(static_cast<double>(estimate),
              static_cast<double>(exact) *
                  (1.0 + 1.0 / Histogram::kSubBuckets))
        << "q=" << q;
  }
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h;
  h.record(5);
  h.record(500);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(MetricRegistryTest, NamedCountersAreStable) {
  MetricRegistry reg;
  reg.counter("a").add(1);
  reg.counter("a").add(2);
  reg.counter("b").add(10);
  EXPECT_EQ(reg.counter_value("a"), 3u);
  EXPECT_EQ(reg.counter_value("b"), 10u);
  EXPECT_EQ(reg.counter_value("missing"), 0u);
  const auto all = reg.counters();
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(all.at("a"), 3u);
}

// The find_* lookups never create and distinguish "absent" from a real 0 —
// the contract the SLO engine's no-data semantics rest on.
TEST(MetricRegistryTest, FindLookupsDistinguishAbsentFromZero) {
  MetricRegistry reg;
  EXPECT_EQ(reg.find_counter("c"), std::nullopt);
  EXPECT_EQ(reg.find_gauge("g"), std::nullopt);
  EXPECT_EQ(reg.find_histogram("h"), std::nullopt);
  // Lookups created nothing: the registry is still empty.
  EXPECT_TRUE(reg.counters().empty());
  EXPECT_TRUE(reg.gauges().empty());
  EXPECT_TRUE(reg.histograms().empty());

  reg.counter("c");  // registered, value 0 — a real 0, not "no data"
  reg.gauge("g").set(0);
  ASSERT_TRUE(reg.find_counter("c").has_value());
  EXPECT_EQ(*reg.find_counter("c"), 0u);
  ASSERT_TRUE(reg.find_gauge("g").has_value());
  EXPECT_EQ(reg.find_gauge("g")->value, 0u);

  reg.counter("c").add(7);
  reg.gauge("g").set(9);
  reg.gauge("g").set(2);
  reg.histogram("h").record(1000);
  EXPECT_EQ(*reg.find_counter("c"), 7u);
  EXPECT_EQ(reg.find_gauge("g")->value, 2u);
  EXPECT_EQ(reg.find_gauge("g")->high_watermark, 9u);
  ASSERT_TRUE(reg.find_histogram("h").has_value());
  EXPECT_EQ(reg.find_histogram("h")->count, 1u);
}

TEST(MetricRegistryTest, HistogramQuantileIsNulloptUntilFirstSample) {
  MetricRegistry reg;
  // Absent histogram: no data.
  EXPECT_EQ(reg.histogram_quantile("lat", 0.99), std::nullopt);
  // Registered but never recorded: quantile of zero samples is still "no
  // data", not 0ns.
  reg.histogram("lat");
  EXPECT_EQ(reg.histogram_quantile("lat", 0.99), std::nullopt);
  reg.histogram("lat").record(5000);
  const auto p99 = reg.histogram_quantile("lat", 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_GE(*p99, 5000u);
}

TEST(MetricRegistryTest, ResetZeroesAll) {
  MetricRegistry reg;
  reg.counter("x").add(5);
  reg.histogram("h").record(9);
  reg.gauge("g").set(7);
  reg.reset();
  EXPECT_EQ(reg.counter_value("x"), 0u);
  EXPECT_EQ(reg.histogram("h").count(), 0u);
  EXPECT_EQ(reg.gauge_value("g"), 0u);
  EXPECT_EQ(reg.gauge("g").high_watermark(), 0u);
}

TEST(GaugeTest, SetAddSub) {
  Gauge g;
  EXPECT_EQ(g.get(), 0u);
  g.set(10);
  EXPECT_EQ(g.get(), 10u);
  g.add(5);
  EXPECT_EQ(g.get(), 15u);
  g.sub(7);
  EXPECT_EQ(g.get(), 8u);
  g.add();  // default +1
  g.sub();  // default -1
  EXPECT_EQ(g.get(), 8u);
}

TEST(GaugeTest, SubSaturatesAtZero) {
  Gauge g;
  g.set(3);
  g.sub(100);
  EXPECT_EQ(g.get(), 0u);
}

TEST(GaugeTest, HighWatermarkTracksPeakNotCurrent) {
  Gauge g;
  g.set(10);
  g.add(90);  // peak 100
  g.sub(60);
  EXPECT_EQ(g.get(), 40u);
  EXPECT_EQ(g.high_watermark(), 100u);
  g.set(5);  // set below peak does not lower the watermark
  EXPECT_EQ(g.high_watermark(), 100u);
  g.set(200);
  EXPECT_EQ(g.high_watermark(), 200u);
}

TEST(GaugeTest, ConcurrentAddersKeepConsistentWatermark) {
  Gauge g;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < 1000; ++i) g.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(g.get(), 4000u);
  EXPECT_EQ(g.high_watermark(), 4000u);
}

TEST(LabeledMetricTest, BuildsAndStripsKeys) {
  EXPECT_EQ(labeled("kv.bytes", "node", 3), "kv.bytes{node=3}");
  EXPECT_EQ(base_name("kv.bytes{node=3}"), "kv.bytes");
  EXPECT_EQ(base_name("kv.bytes"), "kv.bytes");
}

TEST(LabeledMetricTest, LabeledGaugesAreIndependent) {
  MetricRegistry reg;
  reg.gauge(labeled("kv.bytes", "node", 1)).set(10);
  reg.gauge(labeled("kv.bytes", "node", 2)).set(20);
  EXPECT_EQ(reg.gauge_value("kv.bytes{node=1}"), 10u);
  EXPECT_EQ(reg.gauge_value("kv.bytes{node=2}"), 20u);
  const auto all = reg.gauges();
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(all.at("kv.bytes{node=1}").value, 10u);
}

TEST(HistogramSnapshotTest, SummarizesDistribution) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v * 1000);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.sum, 5050u * 1000u);
  EXPECT_EQ(snap.min, 1000u);
  EXPECT_EQ(snap.max, 100000u);
  EXPECT_DOUBLE_EQ(snap.mean, 50500.0);
  // Log-linear buckets return upper bounds: quantiles are >= the exact
  // value but within one sub-bucket's relative error.
  EXPECT_GE(snap.p50, 50u * 1000u);
  EXPECT_GE(snap.p95, 95u * 1000u);
  EXPECT_GE(snap.p99, 99u * 1000u);
  EXPECT_LE(snap.p50, snap.p95);
  EXPECT_LE(snap.p95, snap.p99);
  EXPECT_LE(snap.p99, snap.max * 2);
}

TEST(HistogramSnapshotTest, EmptyHistogramSnapshotsToZeros) {
  Histogram h;
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.p99, 0u);
}

TEST(MetricRegistryTest, HistogramSnapshotsExported) {
  MetricRegistry reg;
  reg.histogram("lat").record(5000);
  reg.histogram("lat").record(7000);
  const auto snaps = reg.histograms();
  ASSERT_TRUE(snaps.contains("lat"));
  EXPECT_EQ(snaps.at("lat").count, 2u);
  EXPECT_EQ(snaps.at("lat").sum, 12000u);
}

TEST(MetricHandleTest, RegistersOnFirstUseAndSurvivesReset) {
  MetricRegistry registry;
  MetricHandle<Counter> hits(registry, "kv.hits");
  MetricHandle<Gauge> bytes(registry, labeled("kv.bytes", "node", 2));
  MetricHandle<Histogram> lat(registry, "kv.get");
  // Constructing a handle registers nothing.
  EXPECT_FALSE(registry.find_counter("kv.hits").has_value());
  EXPECT_FALSE(registry.find_gauge("kv.bytes{node=2}").has_value());
  EXPECT_FALSE(registry.find_histogram("kv.get").has_value());

  hits->add(3);
  bytes->set(7);
  lat->record(100);
  EXPECT_EQ(registry.find_counter("kv.hits"), 3u);
  EXPECT_EQ(registry.gauge_value("kv.bytes{node=2}"), 7u);
  EXPECT_EQ(&*hits, &registry.counter("kv.hits"));

  // reset() keeps the metric objects, so the held pointers stay live.
  registry.reset();
  hits->add();
  EXPECT_EQ(registry.counter_value("kv.hits"), 1u);
  EXPECT_EQ(&*lat, &registry.histogram("kv.get"));
}

}  // namespace
}  // namespace hpcbb
