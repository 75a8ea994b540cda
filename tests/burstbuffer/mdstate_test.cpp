// The master's metadata state machine without a cluster: the seal
// invariant, records that no longer apply, and the checkpoint round trip.
#include "burstbuffer/mdlog.h"

#include <gtest/gtest.h>

#include "burstbuffer/md_expect.h"

namespace hpcbb::bb {
namespace {

MdRecord seal(const std::string& path, std::uint32_t index,
              std::uint64_t size, std::size_t crcs) {
  return MdRecord{.type = MdRecordType::kBlockSeal,
                  .path = path,
                  .block_index = index,
                  .size = size,
                  .chunk_crcs = std::vector<std::uint32_t>(crcs, 7u),
                  .op_id = 40 + index};
}

MdRecord block_record(MdRecordType type, const std::string& path,
                      std::uint32_t index) {
  return MdRecord{.type = type, .path = path, .block_index = index};
}

// One file with two sealed dirty blocks of 1.5 MiB (two 1 MiB chunks each).
MdState two_dirty_blocks() {
  MdState state{.chunk_size = 1 * MiB};
  EXPECT_TRUE(state.apply({.type = MdRecordType::kFileCreate, .path = "/f",
                           .token = 9})
                  .is_ok());
  for (std::uint32_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(
        state.apply(block_record(MdRecordType::kBlockAdd, "/f", i)).is_ok());
    EXPECT_TRUE(state.apply(seal("/f", i, 3 * MiB / 2, 2)).is_ok());
  }
  return state;
}

TEST(MdStateTest, SealWithoutOneCrcPerChunkIsRefusedAndChangesNothing) {
  MdState state{.chunk_size = 1 * MiB};
  ASSERT_TRUE(state.apply({.type = MdRecordType::kFileCreate, .path = "/f"})
                  .is_ok());
  ASSERT_TRUE(
      state.apply(block_record(MdRecordType::kBlockAdd, "/f", 0)).is_ok());
  const Status refused = state.apply(seal("/f", 0, 3 * MiB / 2, 1));
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  const BbBlockInfo* block = state.block("/f", 0);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->state, BlockState::kOpen);
  EXPECT_EQ(block->size, 0u);
  EXPECT_TRUE(block->chunk_crcs.empty());
  // The writer retransmits a correct seal, and it applies.
  EXPECT_TRUE(state.apply(seal("/f", 0, 3 * MiB / 2, 2)).is_ok());
  EXPECT_EQ(block->state, BlockState::kDirty);
  EXPECT_EQ(block->op_id, 40u);
}

TEST(MdStateTest, RecordsThatNoLongerApplyChangeNothing) {
  MdState state = two_dirty_blocks();
  ASSERT_TRUE(
      state.apply(block_record(MdRecordType::kFlushComplete, "/f", 0)).is_ok());
  EXPECT_EQ(state.flushed_blocks, 1u);
  EXPECT_EQ(state.flushed_bytes, 3 * MiB / 2);
  // A flushed block is past every flush outcome and past a re-seal.
  for (const MdRecordType type :
       {MdRecordType::kFlushStart, MdRecordType::kFlushComplete,
        MdRecordType::kBlockLost, MdRecordType::kQuarantine}) {
    EXPECT_TRUE(state.apply(block_record(type, "/f", 0)).is_ok());
  }
  EXPECT_TRUE(state.apply(seal("/f", 0, 1 * MiB, 1)).is_ok());
  EXPECT_EQ(state.block("/f", 0)->state, BlockState::kFlushed);
  EXPECT_EQ(state.block("/f", 0)->size, 3 * MiB / 2);
  // An add that does not extend the block vector.
  EXPECT_TRUE(
      state.apply(block_record(MdRecordType::kBlockAdd, "/f", 0)).is_ok());
  EXPECT_EQ(state.files.at("/f").blocks.size(), 2u);
  EXPECT_EQ(state.flushed_blocks, 1u);
  EXPECT_EQ(state.lost_blocks, 0u);
  EXPECT_EQ(state.quarantined_blocks, 0u);
  // After a delete, records for the file find nothing.
  ASSERT_TRUE(
      state.apply({.type = MdRecordType::kFileDelete, .path = "/f"}).is_ok());
  EXPECT_TRUE(
      state.apply(block_record(MdRecordType::kBlockLost, "/f", 1)).is_ok());
  EXPECT_TRUE(state.apply({.type = MdRecordType::kFileClose, .path = "/f",
                           .size = 3 * MiB})
                  .is_ok());
  EXPECT_TRUE(state.files.empty());
  EXPECT_EQ(state.lost_blocks, 0u);
}

TEST(MdStateTest, CheckpointInstallRestoresFilesAndCounters) {
  MdState state = two_dirty_blocks();
  ASSERT_TRUE(
      state.apply(block_record(MdRecordType::kQuarantine, "/f", 1)).is_ok());
  ASSERT_TRUE(state.apply({.type = MdRecordType::kFileClose, .path = "/f",
                           .size = 3 * MiB})
                  .is_ok());
  state.recovered_blocks = 2;
  MdState restored{.chunk_size = 1 * MiB};
  ASSERT_TRUE(decode_checkpoint(encode_checkpoint(state), restored).is_ok());
  expect_same_checkpoint_fields(restored, state);
  EXPECT_EQ(restored.recovered_blocks, 2u);
  EXPECT_EQ(restored.quarantined_blocks, 1u);
  EXPECT_EQ(restored.files.at("/f").create_token, 9u);
  EXPECT_TRUE(restored.files.at("/f").closed);
}

}  // namespace
}  // namespace hpcbb::bb
