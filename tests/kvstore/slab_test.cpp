#include "kvstore/slab.h"

#include <gtest/gtest.h>

#include "common/units.h"

namespace hpcbb::kv {
namespace {

SlabParams tiny() {
  return SlabParams{.memory_budget = 1 * MiB,
                    .page_size = 64 * KiB,
                    .chunk_min = 96,
                    .growth_factor = 1.25,
                    .chunk_max = 16 * KiB};
}

TEST(SlabTest, ClassSizesGrowGeometrically) {
  SlabAllocator slab(tiny());
  ASSERT_GT(slab.class_count(), 5);
  for (int c = 1; c < slab.class_count(); ++c) {
    EXPECT_GT(slab.chunk_size(c), slab.chunk_size(c - 1));
    if (c + 1 < slab.class_count()) {
      const double ratio = static_cast<double>(slab.chunk_size(c)) /
                           slab.chunk_size(c - 1);
      EXPECT_LE(ratio, 1.45) << "class " << c;
    }
  }
  EXPECT_GE(slab.chunk_size(slab.class_count() - 1), 16 * KiB);
}

TEST(SlabTest, ClassForPicksSmallestFit) {
  SlabAllocator slab(tiny());
  const int c0 = slab.class_for(1);
  EXPECT_EQ(c0, 0);
  const int c = slab.class_for(100);
  ASSERT_GE(c, 0);
  EXPECT_GE(slab.chunk_size(c), 100u);
  if (c > 0) {
    EXPECT_LT(slab.chunk_size(c - 1), 100u);
  }
}

TEST(SlabTest, OversizeRejected) {
  SlabAllocator slab(tiny());
  EXPECT_EQ(slab.class_for(1 * MiB), -1);
}

TEST(SlabTest, AllocateDeallocateReuse) {
  SlabAllocator slab(tiny());
  const int cls = slab.class_for(1000);
  ASSERT_TRUE(slab.allocate(cls));
  EXPECT_EQ(slab.chunks_in_use(cls), 1u);
  EXPECT_EQ(slab.pages(cls), 1u);
  const std::uint64_t free_after_first = slab.free_chunks(cls);
  slab.deallocate(cls);
  EXPECT_EQ(slab.chunks_in_use(cls), 0u);
  EXPECT_EQ(slab.free_chunks(cls), free_after_first + 1);
  ASSERT_TRUE(slab.allocate(cls));
  EXPECT_EQ(slab.pages(cls), 1u);  // the freed chunk is reused, no new page
}

TEST(SlabTest, DistinctChunksDoNotOverlap) {
  // Every allocation takes a chunk of its own: n allocations grow exactly
  // the pages n chunks need, and no chunk is counted twice.
  SlabAllocator slab(tiny());
  const int cls = slab.class_for(500);
  const std::uint64_t per_page = (64 * KiB) / slab.chunk_size(cls);
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(slab.allocate(cls));
  EXPECT_EQ(slab.chunks_in_use(cls), 200u);
  EXPECT_EQ(slab.pages(cls), (200 + per_page - 1) / per_page);
  EXPECT_EQ(slab.chunks_in_use(cls) + slab.free_chunks(cls),
            slab.pages(cls) * per_page);
  EXPECT_EQ(slab.allocated_pages_bytes(), slab.pages(cls) * 64 * KiB);
}

TEST(SlabTest, BudgetEnforced) {
  SlabAllocator slab(tiny());  // 1 MiB budget, 64 KiB pages => 16 pages
  const int cls = slab.class_for(16 * KiB - 32);
  const std::uint32_t chunk = slab.chunk_size(cls);
  const std::uint64_t per_page = (64 * KiB) / chunk;
  std::uint64_t got = 0;
  while (slab.allocate(cls)) ++got;
  EXPECT_EQ(got, 16 * per_page);
  EXPECT_LE(slab.allocated_pages_bytes(), 1 * MiB);
}

TEST(SlabTest, BudgetSharedAcrossClasses) {
  SlabAllocator slab(tiny());
  // Exhaust the budget with large chunks...
  const int big = slab.class_for(16 * KiB - 32);
  while (slab.allocate(big)) {
  }
  // ...then a fresh class cannot grow either.
  const int small = slab.class_for(100);
  EXPECT_FALSE(slab.allocate(small));
}

TEST(SlabTest, ChunksAligned) {
  // Chunk sizes are 16-byte multiples, as memcached aligns its chunks.
  SlabAllocator slab(tiny());
  for (int c = 0; c < slab.class_count(); ++c) {
    EXPECT_EQ(slab.chunk_size(c) % 16, 0u) << "class " << c;
  }
}

TEST(SlabTest, TotalChunksInUse) {
  SlabAllocator slab(tiny());
  ASSERT_TRUE(slab.allocate(slab.class_for(100)));
  ASSERT_TRUE(slab.allocate(slab.class_for(5000)));
  EXPECT_EQ(slab.total_chunks_in_use(), 2u);
  slab.deallocate(slab.class_for(100));
  slab.deallocate(slab.class_for(5000));
  EXPECT_EQ(slab.total_chunks_in_use(), 0u);
}

}  // namespace
}  // namespace hpcbb::kv
