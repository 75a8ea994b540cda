// Metadata journal codec: every record type and a multi-file checkpoint
// survive an encode/decode round trip, and damaged input is kDataLoss.
#include "burstbuffer/mdlog.h"

#include <gtest/gtest.h>

#include "burstbuffer/md_expect.h"

namespace hpcbb::bb {
namespace {

MdRecord full_record(MdRecordType type) {
  MdRecord record;
  record.type = type;
  record.path = "/dir/file-";
  record.path += std::to_string(static_cast<int>(type));
  record.block_index = 7;
  record.size = 3 * MiB + 5;
  record.token = 0xDEADBEEFCAFEull;
  record.chunk_crcs = {0x11111111u, 0x22222222u, 0x33333333u, 0x44444444u};
  record.already_durable = true;
  record.has_local_node = true;
  record.local_node = 42;
  record.op_id = 1234567;
  record.replicas = {0, 2, 3};
  return record;
}

BbBlockInfo block(std::uint32_t index, BlockState state) {
  BbBlockInfo info;
  info.index = index;
  info.size = 2 * MiB + index;
  info.chunk_crcs = {0xA0000000u + index, 0xB0000000u + index, 0xC0u};
  info.state = state;
  if (index % 2 == 0) info.local_node = 10 + index;
  info.op_id = 1000 + index;
  info.replicas = {index % 4, (index + 1) % 4};
  return info;
}

// Two files: one holding a block in every state (local node alternately set
// and unset), one empty.
MdState multi_file_state() {
  MdState state;
  state.flushed_blocks = 11;
  state.flushed_bytes = 11 * MiB;
  state.lost_blocks = 2;
  state.recovered_blocks = 3;
  state.quarantined_blocks = 1;
  MdFile& every_state = state.files["/data/part-0"];
  every_state.create_token = 77;
  every_state.size = 12 * MiB;
  every_state.closed = true;
  std::uint32_t index = 0;
  for (const BlockState block_state :
       {BlockState::kOpen, BlockState::kDirty, BlockState::kFlushing,
        BlockState::kFlushed, BlockState::kLost, BlockState::kQuarantined}) {
    every_state.blocks.push_back(block(index++, block_state));
  }
  state.files["/data/empty"].create_token = 78;
  return state;
}

TEST(MdCodecTest, EveryRecordTypeRoundTrips) {
  for (const MdRecordType type :
       {MdRecordType::kFileCreate, MdRecordType::kBlockAdd,
        MdRecordType::kBlockSeal, MdRecordType::kFlushStart,
        MdRecordType::kFlushComplete, MdRecordType::kBlockLost,
        MdRecordType::kQuarantine, MdRecordType::kFileClose,
        MdRecordType::kFileDelete}) {
    const MdRecord record = full_record(type);
    Result<MdRecord> decoded = decode_record(encode_record(record));
    ASSERT_TRUE(decoded.is_ok()) << static_cast<int>(type);
    EXPECT_EQ(decoded.value(), record) << static_cast<int>(type);
  }
  MdRecord bare;  // every optional field empty
  bare.type = MdRecordType::kFileDelete;
  Result<MdRecord> decoded = decode_record(encode_record(bare));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), bare);
}

TEST(MdCodecTest, MultiFileCheckpointRoundTrips) {
  const MdState state = multi_file_state();
  MdState decoded;
  ASSERT_TRUE(decode_checkpoint(encode_checkpoint(state), decoded).is_ok());
  expect_same_checkpoint_fields(decoded, state);
}

TEST(MdCodecTest, ReservationHeldIsNotEncoded) {
  // Admission credits die with the master, so a checkpoint never carries
  // them: the flag decodes as false whatever it was when encoded.
  MdState state = multi_file_state();
  BbBlockInfo& first = state.files.at("/data/part-0").blocks[0];
  first.reservation_held = true;
  MdState decoded;
  ASSERT_TRUE(decode_checkpoint(encode_checkpoint(state), decoded).is_ok());
  EXPECT_FALSE(decoded.files.at("/data/part-0").blocks[0].reservation_held);
  first.reservation_held = false;
  expect_same_checkpoint_fields(decoded, state);
}

TEST(MdCodecTest, TruncatedInputIsDataLoss) {
  const Bytes record = encode_record(full_record(MdRecordType::kBlockSeal));
  for (std::size_t len = 0; len < record.size(); ++len) {
    const Bytes cut(record.begin(),
                    record.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_EQ(decode_record(cut).code(), StatusCode::kDataLoss) << len;
  }
  const Bytes checkpoint = encode_checkpoint(multi_file_state());
  MdState decoded;
  for (std::size_t len = 0; len < checkpoint.size(); ++len) {
    const Bytes cut(checkpoint.begin(),
                    checkpoint.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_EQ(decode_checkpoint(cut, decoded).code(), StatusCode::kDataLoss)
        << len;
  }
  EXPECT_TRUE(decoded.files.empty());  // damaged input changes nothing
}

TEST(MdCodecTest, TrailingBytesAreDataLoss) {
  Bytes record = encode_record(full_record(MdRecordType::kBlockSeal));
  record.push_back(0);
  EXPECT_EQ(decode_record(record).code(), StatusCode::kDataLoss);
  Bytes checkpoint = encode_checkpoint(multi_file_state());
  checkpoint.push_back(0);
  MdState decoded;
  EXPECT_EQ(decode_checkpoint(checkpoint, decoded).code(),
            StatusCode::kDataLoss);
}

}  // namespace
}  // namespace hpcbb::bb
