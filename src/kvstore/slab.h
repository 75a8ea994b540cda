// Slab accounting, memcached-style.
//
// The memory budget is carved into fixed-size pages; each page is assigned
// to a size class whose chunk size grows geometrically, and an item takes
// one chunk of the smallest class its footprint fits. Only the accounting
// is kept — pages per class, free chunks and chunks in use — and no page
// memory is allocated: item values stay in their senders' buffers
// (kv::Item). The accounting alone makes the store's memory ceiling a
// real, enforced budget, with memcached's per-class calcification — the
// property the burst buffer's eviction/backpressure behaviour (experiment
// F11) depends on.
//
// Not internally synchronized: the owning KvShard serializes access.
#pragma once

#include <cstdint>
#include <vector>

namespace hpcbb::kv {

struct SlabParams {
  std::uint64_t memory_budget = 64ull << 20;  // bytes of page memory
  // Page equals the largest chunk so burst-buffer-sized (1 MiB) values pack
  // one per page with no internal waste.
  std::uint32_t page_size = (1u << 20) + (64u << 10);
  std::uint32_t chunk_min = 96;               // smallest chunk
  double growth_factor = 1.25;
  std::uint32_t chunk_max = (1u << 20) + (64u << 10);  // fits a 1 MiB value
};

class SlabAllocator {
 public:
  explicit SlabAllocator(const SlabParams& params);

  SlabAllocator(const SlabAllocator&) = delete;
  SlabAllocator& operator=(const SlabAllocator&) = delete;

  // Size class whose chunk fits `bytes`, or -1 if larger than chunk_max.
  [[nodiscard]] int class_for(std::uint64_t bytes) const noexcept;

  [[nodiscard]] std::uint32_t chunk_size(int cls) const noexcept {
    return class_sizes_[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] int class_count() const noexcept {
    return static_cast<int>(class_sizes_.size());
  }

  // Takes a free chunk of the class, growing the class by one page if
  // budget allows. false means: evict something from this class or fail.
  [[nodiscard]] bool allocate(int cls);
  void deallocate(int cls) noexcept;

  [[nodiscard]] std::uint64_t allocated_pages_bytes() const noexcept {
    return pages_ * params_.page_size;
  }
  [[nodiscard]] std::uint64_t memory_budget() const noexcept {
    return params_.memory_budget;
  }
  [[nodiscard]] std::uint64_t pages(int cls) const noexcept {
    return per_class_[static_cast<std::size_t>(cls)].pages;
  }
  [[nodiscard]] std::uint64_t free_chunks(int cls) const noexcept {
    const auto& state = per_class_[static_cast<std::size_t>(cls)];
    return state.chunks - state.chunks_in_use;
  }
  [[nodiscard]] std::uint64_t chunks_in_use(int cls) const noexcept {
    return per_class_[static_cast<std::size_t>(cls)].chunks_in_use;
  }
  [[nodiscard]] std::uint64_t total_chunks_in_use() const noexcept;

 private:
  bool grow_class(int cls);

  struct ClassState {
    std::uint64_t pages = 0;
    std::uint64_t chunks = 0;  // what the class's pages hold
    std::uint64_t chunks_in_use = 0;
  };

  SlabParams params_;
  std::vector<std::uint32_t> class_sizes_;
  std::vector<ClassState> per_class_;
  std::uint64_t pages_ = 0;  // across classes; pages are never returned
};

}  // namespace hpcbb::kv
