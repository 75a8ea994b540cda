// Shared expectation for the metadata checkpoint tests.
#pragma once

#include <gtest/gtest.h>

#include "burstbuffer/mdlog.h"

namespace hpcbb::bb {

// `got` holds every field a checkpoint carries exactly as `want` does: the
// counters, and each file's token, size, closed flag and blocks.
inline void expect_same_checkpoint_fields(const MdState& got,
                                          const MdState& want) {
  EXPECT_EQ(got.flushed_blocks, want.flushed_blocks);
  EXPECT_EQ(got.flushed_bytes, want.flushed_bytes);
  EXPECT_EQ(got.lost_blocks, want.lost_blocks);
  EXPECT_EQ(got.recovered_blocks, want.recovered_blocks);
  EXPECT_EQ(got.quarantined_blocks, want.quarantined_blocks);
  ASSERT_EQ(got.files.size(), want.files.size());
  for (const auto& [path, file] : want.files) {
    const auto it = got.files.find(path);
    ASSERT_NE(it, got.files.end()) << path;
    EXPECT_EQ(it->second.create_token, file.create_token) << path;
    EXPECT_EQ(it->second.size, file.size) << path;
    EXPECT_EQ(it->second.closed, file.closed) << path;
    EXPECT_EQ(it->second.blocks, file.blocks) << path;
  }
}

}  // namespace hpcbb::bb
