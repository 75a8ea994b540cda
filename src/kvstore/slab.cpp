#include "kvstore/slab.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace hpcbb::kv {

namespace {
constexpr std::uint32_t kChunkAlign = 16;

std::uint32_t align_up(std::uint32_t n) noexcept {
  return (n + kChunkAlign - 1) & ~(kChunkAlign - 1);
}
}  // namespace

SlabAllocator::SlabAllocator(const SlabParams& params) : params_(params) {
  assert(params_.chunk_min >= kChunkAlign);
  assert(params_.chunk_max <= params_.page_size);
  assert(params_.growth_factor > 1.0);

  std::uint32_t size = align_up(params_.chunk_min);
  while (size < params_.chunk_max) {
    class_sizes_.push_back(size);
    const auto next = static_cast<std::uint32_t>(
        std::ceil(static_cast<double>(size) * params_.growth_factor));
    size = align_up(std::max(next, size + kChunkAlign));
  }
  class_sizes_.push_back(align_up(params_.chunk_max));
  per_class_.resize(class_sizes_.size());
}

int SlabAllocator::class_for(std::uint64_t bytes) const noexcept {
  if (bytes > class_sizes_.back()) return -1;
  const auto it =
      std::lower_bound(class_sizes_.begin(), class_sizes_.end(), bytes);
  return static_cast<int>(it - class_sizes_.begin());
}

bool SlabAllocator::grow_class(int cls) {
  if (allocated_pages_bytes() + params_.page_size > params_.memory_budget) {
    return false;
  }
  // Not zero-filled: an item's fill() writes every byte that is read back.
  pages_.push_back(
      std::make_unique_for_overwrite<std::byte[]>(params_.page_size));
  std::byte* page = pages_.back().get();
  const std::uint32_t chunk = chunk_size(cls);
  auto& state = per_class_[static_cast<std::size_t>(cls)];
  for (std::uint32_t off = 0; off + chunk <= params_.page_size; off += chunk) {
    state.free_chunks.push_back(page + off);
  }
  return true;
}

void* SlabAllocator::allocate(int cls) {
  assert(cls >= 0 && cls < class_count());
  auto& state = per_class_[static_cast<std::size_t>(cls)];
  if (state.free_chunks.empty() && !grow_class(cls)) {
    return nullptr;
  }
  assert(!state.free_chunks.empty());
  void* chunk = state.free_chunks.back();
  state.free_chunks.pop_back();
  ++state.chunks_in_use;
  return chunk;
}

void SlabAllocator::deallocate(int cls, void* chunk) noexcept {
  assert(cls >= 0 && cls < class_count());
  auto& state = per_class_[static_cast<std::size_t>(cls)];
  assert(state.chunks_in_use > 0);
  --state.chunks_in_use;
  state.free_chunks.push_back(chunk);
}

std::uint64_t SlabAllocator::total_chunks_in_use() const noexcept {
  std::uint64_t total = 0;
  for (const auto& state : per_class_) total += state.chunks_in_use;
  return total;
}

}  // namespace hpcbb::kv
