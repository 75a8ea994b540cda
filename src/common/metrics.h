// Metrics: counters and a log-linear histogram (HdrHistogram-style buckets)
// good enough for latency percentiles across nine decades of nanoseconds.
// Thread-safe: the KV store updates metrics from real threads in unit tests
// and benchmarks; the simulator updates them single-threaded.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace hpcbb {

class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t get() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Point-in-time level (queue depth, dirty bytes, memory used) with a
// high-watermark that survives after the level drops — the number capacity
// planning actually wants.
class Gauge {
 public:
  void set(std::uint64_t value) noexcept {
    value_.store(value, std::memory_order_relaxed);
    raise_watermark(value);
  }
  void add(std::uint64_t delta = 1) noexcept {
    raise_watermark(value_.fetch_add(delta, std::memory_order_relaxed) +
                    delta);
  }
  // Saturating: a sub below zero clamps to zero rather than wrapping.
  void sub(std::uint64_t delta = 1) noexcept {
    std::uint64_t cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur - std::min(cur, delta),
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t get() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t high_watermark() const noexcept {
    return watermark_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    value_.store(0, std::memory_order_relaxed);
    watermark_.store(0, std::memory_order_relaxed);
  }

 private:
  void raise_watermark(std::uint64_t value) noexcept {
    std::uint64_t cur = watermark_.load(std::memory_order_relaxed);
    while (value > cur && !watermark_.compare_exchange_weak(
                              cur, value, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::uint64_t> value_{0};
  std::atomic<std::uint64_t> watermark_{0};
};

// Scoped metric key: labeled("kv.bytes", "node", 3) -> "kv.bytes{node=3}".
// Per-node/per-server series share a base name and differ only in the label,
// so reports can group them; base_name() strips the label back off.
[[nodiscard]] std::string labeled(std::string_view name,
                                  std::string_view label, std::uint64_t id);
[[nodiscard]] std::string_view base_name(std::string_view key) noexcept;

// Fixed summary of a histogram at a point in time: what reports export.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double mean = 0.0;
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
};

// Log-linear histogram: 64 orders of magnitude (bit position), 16 linear
// sub-buckets each => <= 6.25% relative quantile error.
class Histogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBits;
  static constexpr int kNumBuckets = 64 * kSubBuckets;

  void record(std::uint64_t value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t min() const noexcept;
  [[nodiscard]] std::uint64_t max() const noexcept;
  [[nodiscard]] double mean() const noexcept;
  // q in [0, 1]; returns an upper bound of the bucket containing the quantile.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept;

  [[nodiscard]] HistogramSnapshot snapshot() const noexcept;

  void reset() noexcept;

 private:
  static int bucket_index(std::uint64_t value) noexcept;
  static std::uint64_t bucket_upper_bound(int index) noexcept;

  std::atomic<std::uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};
};

// Exported gauge state: level now plus the highest level ever seen.
struct GaugeSnapshot {
  std::uint64_t value = 0;
  std::uint64_t high_watermark = 0;
};

// Named metric registry; experiments snapshot it into report rows.
class MetricRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  [[nodiscard]] std::uint64_t gauge_value(const std::string& name) const;

  // Lookups that never create and that distinguish "metric absent" from a
  // legitimate zero — what alerting needs, where counter_value()'s 0 is
  // ambiguous. histogram_quantile additionally treats a registered but
  // never-recorded histogram as nullopt: quantile(q) of zero samples is
  // "no data", not 0ns.
  [[nodiscard]] std::optional<std::uint64_t> find_counter(
      const std::string& name) const;
  [[nodiscard]] std::optional<GaugeSnapshot> find_gauge(
      const std::string& name) const;
  [[nodiscard]] std::optional<HistogramSnapshot> find_histogram(
      const std::string& name) const;
  [[nodiscard]] std::optional<std::uint64_t> histogram_quantile(
      const std::string& name, double q) const;

  // All counters as a sorted name -> value map (for reports and tests).
  [[nodiscard]] std::map<std::string, std::uint64_t> counters() const;
  // All gauges with their high-watermarks.
  [[nodiscard]] std::map<std::string, GaugeSnapshot> gauges() const;
  // All histograms, summarised (count/sum/min/max/mean + p50/p95/p99).
  [[nodiscard]] std::map<std::string, HistogramSnapshot> histograms() const;

  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// A registry metric looked up on its first use and held from then on, so a
// hot path pays the registry's lock and string-keyed map search once instead
// of on every update. Being lazy, it registers the metric exactly when a
// registry.counter(name) call at the same place would: reports and
// find_counter() read the same either way. The pointer stays valid for the
// registry's lifetime, because reset() keeps every metric object.
template <typename Metric>
class MetricHandle {
 public:
  MetricHandle(MetricRegistry& registry, std::string name)
      : registry_(&registry), name_(std::move(name)) {}

  Metric& operator*() {
    if (metric_ == nullptr) {
      if constexpr (std::is_same_v<Metric, Counter>) {
        metric_ = &registry_->counter(name_);
      } else if constexpr (std::is_same_v<Metric, Gauge>) {
        metric_ = &registry_->gauge(name_);
      } else {
        static_assert(std::is_same_v<Metric, Histogram>);
        metric_ = &registry_->histogram(name_);
      }
    }
    return *metric_;
  }
  Metric* operator->() { return &**this; }

 private:
  MetricRegistry* registry_;
  std::string name_;
  Metric* metric_ = nullptr;
};

}  // namespace hpcbb
