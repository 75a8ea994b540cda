// Flow control for the burst buffer: watermark-driven capacity management
// over the KV servers' aggregate memory.
//
// The buffer only works because KV memory absorbs write bursts faster than
// Lustre drains them — which means a sustained burst must be actively
// managed or dirty bytes grow without bound. The CapacityController owns
// that policy end-to-end:
//
//   * accounting — every buffer-resident byte is classified as `reserved`
//     (a writer holds an admission credit for a block in progress), `dirty`
//     (sealed, not yet durable on Lustre), or `clean` (flushed, still
//     resident so reads stay at RDMA speed);
//   * flush escalation — flushers drain at a background pace below the low
//     watermark and flat-out ("urgent") once dirty+reserved bytes cross the
//     high watermark;
//   * clean-block eviction — an LRU over flushed blocks reclaims space the
//     moment usage exceeds the high watermark; clean blocks remain readable
//     from Lustre, so eviction never loses data;
//   * writer backpressure — block admission is credit-based: a writer's
//     AddBlock is *delayed* (never rejected) while dirty+reserved credits
//     would cross the high watermark or total usage would cross the
//     critical watermark after eviction has been tried. Stalls release as
//     flushes drain dirty bytes.
//
// Telemetry: `flowctl.stall_ns` histogram (per-stall duration),
// `flowctl.stalls`, `flowctl.evicted_bytes`, `flowctl.evicted_blocks`, and
// `flowctl.urgent_flushes` counters in the simulation's MetricRegistry,
// plus "flowctl"-category spans on an attached TraceRecorder.
//
// A zero capacity disables the subsystem entirely (seed behaviour: admit
// everything, never pace, never evict).
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/metrics.h"
#include "common/units.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/trace.h"

namespace hpcbb::flowctl {

// Pressure bands over buffer usage, split by the configured watermarks.
enum class Pressure {
  kNormal,    // usage below the low watermark
  kElevated,  // low <= usage < high
  kUrgent,    // high <= usage < critical
  kCritical,  // usage >= critical
};

constexpr std::string_view to_string(Pressure p) noexcept {
  switch (p) {
    case Pressure::kNormal: return "normal";
    case Pressure::kElevated: return "elevated";
    case Pressure::kUrgent: return "urgent";
    case Pressure::kCritical: return "critical";
  }
  return "?";
}

struct FlowControlParams {
  // Aggregate buffer capacity under management; 0 disables flow control.
  std::uint64_t capacity_bytes = 0;
  // Watermarks as fractions of capacity. low <= high <= critical enforced
  // at construction.
  double low_watermark = 0.50;
  double high_watermark = 0.75;
  double critical_watermark = 0.90;
  // Background flush pacing: below the low watermark each flush waits this
  // long before touching Lustre (leave drain bandwidth to foreground
  // readers); between low and high the pace quarters; at or above high the
  // flusher drains flat out.
  sim::SimTime background_pace_ns = 500 * duration::us;
};

// A flushed-but-resident block, eligible for eviction. `bytes` is the
// block's buffer footprint (chunk-padded), so owners can recompute the
// chunk count as bytes / chunk_size.
struct CleanBlock {
  std::string id;  // owner-defined, e.g. "<path>#<block_index>"
  std::uint64_t bytes = 0;
};

class CapacityController {
 public:
  CapacityController(sim::Simulation& sim, const FlowControlParams& params,
                     std::uint32_t trace_track = 0);

  CapacityController(const CapacityController&) = delete;
  CapacityController& operator=(const CapacityController&) = delete;

  [[nodiscard]] bool enabled() const noexcept {
    return params_.capacity_bytes != 0;
  }

  // ---- writer admission (credit-based backpressure) ----
  // Acquire an admission credit for a block of `bytes`. Evicts clean blocks
  // before ever stalling; stalls (never rejects) while dirty+reserved
  // credits would cross the high watermark or total usage would cross the
  // critical watermark. Returns the stalled time in ns (0 = admitted
  // immediately). The credit-wait stall span carries the caller's op, so
  // latency attribution charges the wait to the operation that incurred it.
  sim::Task<sim::SimTime> admit(std::uint64_t bytes);
  // Return an unused credit (block abandoned before it was sealed).
  void release_reservation(std::uint64_t bytes);

  // ---- block lifecycle accounting ----
  // Sealed block: the credit becomes `footprint_bytes` of dirty data.
  void reservation_to_dirty(std::uint64_t reserved_bytes,
                            std::uint64_t footprint_bytes);
  // Write-through block (BB-Sync): the credit becomes clean data directly.
  void reservation_to_clean(std::uint64_t reserved_bytes,
                            const std::string& id,
                            std::uint64_t footprint_bytes);
  // Flush completed: dirty bytes become clean and join the eviction LRU.
  void dirty_to_clean(const std::string& id, std::uint64_t footprint_bytes);
  // Dirty block left the buffer without becoming clean (lost or deleted).
  void drop_dirty(std::uint64_t footprint_bytes);
  // Clean block left the buffer (file deleted); no-op if already evicted.
  void forget_clean(const std::string& id);
  // Keep a hot clean block resident (LRU touch); no-op if absent.
  void touch_clean(const std::string& id);
  // Master crash: all credits, dirty bytes, and clean-LRU entries are
  // volatile master state and die with it. Zeroes the accounting (the peak
  // high-water mark survives — it is run-level telemetry), lifts
  // force_urgent(), drains the eviction queue, and wakes stalled writers
  // so their admission waits can fail over to the retry path instead of
  // wedging. Recovery rebuilds the dirty/clean totals from replayed
  // metadata via reservation_to_dirty / reservation_to_clean with a zero
  // reserved component.
  void reset_accounting();

  // ---- eviction ----
  // Blocks the controller decided to evict. The owner drains this channel
  // and erases the block's chunks from the KV servers; the bytes are
  // already un-accounted when a block appears here.
  [[nodiscard]] sim::Channel<CleanBlock>& evictions() noexcept {
    return evictions_;
  }

  // ---- flush scheduling ----
  // Pacing delay the flusher should apply before its next flush.
  [[nodiscard]] sim::SimTime flush_pace() const noexcept;
  // Call when a flush starts; counts flowctl.urgent_flushes when escalated.
  void note_flush_begin();
  // Failure-mode escalation: while set, flushers drain flat-out regardless
  // of the pressure band — at-risk dirty blocks must reach Lustre before
  // another buffer server fails. Driven by the BB master's failure
  // detector; independent of the watermark machinery (works even when flow
  // control is disabled).
  void force_urgent(bool urgent) noexcept { forced_urgent_ = urgent; }

  // ---- introspection ----
  [[nodiscard]] std::uint64_t reserved_bytes() const noexcept {
    return reserved_;
  }
  [[nodiscard]] std::uint64_t dirty_bytes() const noexcept { return dirty_; }
  [[nodiscard]] std::uint64_t clean_bytes() const noexcept { return clean_; }
  [[nodiscard]] std::uint64_t usage_bytes() const noexcept {
    return reserved_ + dirty_ + clean_;
  }
  // High-water mark of dirty+reserved bytes over the run.
  [[nodiscard]] std::uint64_t peak_dirty_bytes() const noexcept {
    return peak_dirty_;
  }
  [[nodiscard]] std::uint64_t high_bytes() const noexcept {
    return watermark_bytes(params_.high_watermark);
  }
  [[nodiscard]] std::uint64_t low_bytes() const noexcept {
    return watermark_bytes(params_.low_watermark);
  }
  [[nodiscard]] std::uint64_t critical_bytes() const noexcept {
    return watermark_bytes(params_.critical_watermark);
  }
  [[nodiscard]] Pressure pressure() const noexcept;
  [[nodiscard]] std::size_t clean_block_count() const noexcept {
    return clean_lru_.size();
  }

  void set_trace(sim::TraceRecorder* recorder) noexcept { trace_ = recorder; }

 private:
  [[nodiscard]] std::uint64_t watermark_bytes(double fraction) const noexcept {
    return static_cast<std::uint64_t>(
        fraction * static_cast<double>(params_.capacity_bytes));
  }
  [[nodiscard]] Pressure band(std::uint64_t bytes) const noexcept;
  // Evict LRU clean blocks until usage + incoming fits under the high
  // watermark (or no clean blocks remain).
  void reclaim(std::uint64_t incoming);
  void evict_lru_block();
  void note_usage_changed();
  // Mirror the internal byte accounting into registry gauges
  // (bb.dirty_bytes / bb.clean_bytes / bb.reserved_bytes) so samplers and
  // reports see buffer pressure without reaching into the controller.
  void publish_gauges();

  sim::Simulation* sim_;
  FlowControlParams params_;
  std::uint32_t trace_track_;
  sim::TraceRecorder* trace_ = nullptr;

  bool forced_urgent_ = false;
  std::uint64_t reserved_ = 0;
  std::uint64_t dirty_ = 0;
  std::uint64_t clean_ = 0;
  std::uint64_t peak_dirty_ = 0;

  // front = most recently flushed/touched; back = eviction victim.
  std::list<CleanBlock> clean_lru_;
  std::unordered_map<std::string, std::list<CleanBlock>::iterator>
      clean_index_;

  sim::Channel<CleanBlock> evictions_;
  sim::Condition drained_;

  MetricHandle<Counter> stalls_{sim_->metrics(), "flowctl.stalls"};
  MetricHandle<Histogram> stall_ns_{sim_->metrics(), "flowctl.stall_ns"};
  MetricHandle<Counter> evicted_bytes_{sim_->metrics(),
                                       "flowctl.evicted_bytes"};
  MetricHandle<Counter> evicted_blocks_{sim_->metrics(),
                                        "flowctl.evicted_blocks"};
  MetricHandle<Counter> urgent_flushes_{sim_->metrics(),
                                        "flowctl.urgent_flushes"};
  MetricHandle<Gauge> dirty_gauge_{sim_->metrics(), "bb.dirty_bytes"};
  MetricHandle<Gauge> clean_gauge_{sim_->metrics(), "bb.clean_bytes"};
  MetricHandle<Gauge> reserved_gauge_{sim_->metrics(), "bb.reserved_bytes"};
};

// Pacing for background work over the buffer (scrubber passes,
// re-replication, anti-entropy): each unit holds an admission credit for
// its bytes while in flight, so it yields to writers under memory
// pressure. A null or disabled controller paces nothing.
sim::Task<void> pace_begin(CapacityController* fc, std::uint64_t bytes);
void pace_end(CapacityController* fc, std::uint64_t bytes);

}  // namespace hpcbb::flowctl
