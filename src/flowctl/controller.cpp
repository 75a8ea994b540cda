#include "flowctl/controller.h"

#include <algorithm>
#include <cassert>
#include <optional>

namespace hpcbb::flowctl {

CapacityController::CapacityController(sim::Simulation& sim,
                                       const FlowControlParams& params,
                                       std::uint32_t trace_track)
    : sim_(&sim),
      params_(params),
      trace_track_(trace_track),
      evictions_(sim),
      drained_(sim) {
  // Watermarks must be sane fractions in non-decreasing order.
  params_.low_watermark = std::clamp(params_.low_watermark, 0.0, 1.0);
  params_.high_watermark =
      std::clamp(params_.high_watermark, params_.low_watermark, 1.0);
  params_.critical_watermark =
      std::clamp(params_.critical_watermark, params_.high_watermark, 1.0);
}

Pressure CapacityController::band(std::uint64_t bytes) const noexcept {
  if (!enabled()) return Pressure::kNormal;
  if (bytes >= critical_bytes()) return Pressure::kCritical;
  if (bytes >= high_bytes()) return Pressure::kUrgent;
  if (bytes >= low_bytes()) return Pressure::kElevated;
  return Pressure::kNormal;
}

Pressure CapacityController::pressure() const noexcept {
  return band(usage_bytes());
}

sim::Task<sim::SimTime> CapacityController::admit(std::uint64_t bytes) {
  if (!enabled()) co_return 0;
  const sim::SimTime start = sim_->now();
  std::optional<sim::ScopedSpan> stall;  // open while the caller waits
  for (;;) {
    // A lone block always gets in (even one larger than the watermark), so
    // a writer can never wedge with zero credits outstanding.
    if (reserved_ + dirty_ == 0) break;
    // Eviction-before-rejection: reclaim clean space first; only stall if
    // the dirty backlog itself is the problem.
    reclaim(bytes);
    if (reserved_ + dirty_ + bytes <= high_bytes() &&
        usage_bytes() + bytes <= critical_bytes()) {
      break;
    }
    if (!stall) {
      stalls_->add();
      stall.emplace(trace_, "flowctl.stall", "", "flowctl", trace_track_,
                    sim_->current_op());
    }
    co_await drained_.wait();
  }
  reserved_ += bytes;
  peak_dirty_ = std::max(peak_dirty_, reserved_ + dirty_);
  publish_gauges();
  const sim::SimTime waited = sim_->now() - start;
  if (stall) stall_ns_->record(waited);
  co_return waited;
}

void CapacityController::release_reservation(std::uint64_t bytes) {
  if (!enabled()) return;
  reserved_ -= std::min(reserved_, bytes);
  note_usage_changed();
}

void CapacityController::reservation_to_dirty(std::uint64_t reserved_bytes,
                                              std::uint64_t footprint_bytes) {
  if (!enabled()) return;
  reserved_ -= std::min(reserved_, reserved_bytes);
  dirty_ += footprint_bytes;
  peak_dirty_ = std::max(peak_dirty_, reserved_ + dirty_);
  publish_gauges();
  // Dirty may be smaller than the reservation (short tail block): freed
  // headroom can admit a stalled writer.
  if (footprint_bytes < reserved_bytes) note_usage_changed();
}

void CapacityController::reservation_to_clean(std::uint64_t reserved_bytes,
                                              const std::string& id,
                                              std::uint64_t footprint_bytes) {
  if (!enabled()) return;
  reserved_ -= std::min(reserved_, reserved_bytes);
  dirty_ += footprint_bytes;  // momentarily, for a single accounting path
  dirty_to_clean(id, footprint_bytes);
}

void CapacityController::dirty_to_clean(const std::string& id,
                                        std::uint64_t footprint_bytes) {
  if (!enabled()) return;
  dirty_ -= std::min(dirty_, footprint_bytes);
  if (footprint_bytes > 0 && !clean_index_.contains(id)) {
    clean_ += footprint_bytes;
    clean_lru_.push_front(CleanBlock{id, footprint_bytes});
    clean_index_[id] = clean_lru_.begin();
  }
  // Flush progress is the drain stalled writers wait for; evict down to the
  // high watermark first so the freed space is real.
  reclaim(0);
  note_usage_changed();
}

void CapacityController::drop_dirty(std::uint64_t footprint_bytes) {
  if (!enabled()) return;
  dirty_ -= std::min(dirty_, footprint_bytes);
  note_usage_changed();
}

void CapacityController::forget_clean(const std::string& id) {
  if (!enabled()) return;
  const auto it = clean_index_.find(id);
  if (it == clean_index_.end()) return;
  clean_ -= std::min(clean_, it->second->bytes);
  clean_lru_.erase(it->second);
  clean_index_.erase(it);
  note_usage_changed();
}

void CapacityController::touch_clean(const std::string& id) {
  if (!enabled()) return;
  const auto it = clean_index_.find(id);
  if (it == clean_index_.end()) return;
  clean_lru_.splice(clean_lru_.begin(), clean_lru_, it->second);
}

void CapacityController::reset_accounting() {
  reserved_ = 0;
  dirty_ = 0;
  clean_ = 0;
  clean_lru_.clear();
  clean_index_.clear();
  CleanBlock dropped;
  while (evictions_.try_recv(dropped)) {
  }
  forced_urgent_ = false;
  // Works even with flow control disabled: publish_gauges/notify are cheap
  // and the counters are already zero in that mode.
  if (enabled()) publish_gauges();
  drained_.notify_all();
}

void CapacityController::reclaim(std::uint64_t incoming) {
  while (usage_bytes() + incoming > high_bytes() && !clean_lru_.empty()) {
    evict_lru_block();
  }
}

void CapacityController::evict_lru_block() {
  assert(!clean_lru_.empty());
  CleanBlock victim = std::move(clean_lru_.back());
  clean_lru_.pop_back();
  clean_index_.erase(victim.id);
  clean_ -= std::min(clean_, victim.bytes);
  evicted_bytes_->add(victim.bytes);
  evicted_blocks_->add();
  evictions_.push(std::move(victim));
  note_usage_changed();
}

void CapacityController::note_usage_changed() {
  publish_gauges();
  drained_.notify_all();
}

void CapacityController::publish_gauges() {
  if (!enabled()) return;
  dirty_gauge_->set(dirty_);
  clean_gauge_->set(clean_);
  reserved_gauge_->set(reserved_);
}

sim::SimTime CapacityController::flush_pace() const noexcept {
  if (forced_urgent_) return 0;
  if (!enabled()) return 0;
  switch (band(reserved_ + dirty_)) {
    case Pressure::kNormal: return params_.background_pace_ns;
    case Pressure::kElevated: return params_.background_pace_ns / 4;
    case Pressure::kUrgent:
    case Pressure::kCritical: return 0;
  }
  return 0;
}

void CapacityController::note_flush_begin() {
  if (forced_urgent_) {
    urgent_flushes_->add();
    return;
  }
  if (!enabled()) return;
  if (band(reserved_ + dirty_) >= Pressure::kUrgent) {
    urgent_flushes_->add();
  }
}

sim::Task<void> pace_begin(CapacityController* fc, std::uint64_t bytes) {
  if (fc != nullptr && fc->enabled()) (void)co_await fc->admit(bytes);
}

void pace_end(CapacityController* fc, std::uint64_t bytes) {
  if (fc != nullptr && fc->enabled()) fc->release_reservation(bytes);
}

}  // namespace hpcbb::flowctl
