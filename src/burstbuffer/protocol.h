// Burst-buffer wire messages: master metadata ops and node-agent reads.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "burstbuffer/scheme.h"
#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/status.h"
#include "net/rpc.h"

namespace hpcbb::bb {

inline constexpr net::Port kMasterPortBase = 7070;
inline constexpr net::Port kAgentPortBase = 7160;

inline constexpr net::Port kBbCreate = kMasterPortBase;
inline constexpr net::Port kBbAddBlock = kMasterPortBase + 1;
inline constexpr net::Port kBbCompleteBlock = kMasterPortBase + 2;
inline constexpr net::Port kBbClose = kMasterPortBase + 3;
inline constexpr net::Port kBbLocations = kMasterPortBase + 4;
inline constexpr net::Port kBbDelete = kMasterPortBase + 5;
inline constexpr net::Port kBbList = kMasterPortBase + 6;

inline constexpr net::Port kAgentRead = kAgentPortBase;

inline constexpr std::uint64_t kHeaderBytes = 64;

enum class BlockState {
  kOpen,      // added, writer still streaming chunks; not yet sealed
  kDirty,     // buffer-resident only; flush pending
  kFlushing,  // a flusher is draining it to Lustre
  kFlushed,   // durable on Lustre (buffer copy may remain or be evicted)
  kLost,      // dirty data lost with a crashed buffer server
  // Dirty data failed checksum verification on every copy before it could
  // be flushed: quarantined so the flusher never persists corrupt bytes to
  // Lustre. Reads fail with kDataLoss instead of silently serving garbage.
  kQuarantined,
};

// AddBlock sentinel: "writer makes no claim about the next index".
inline constexpr std::uint32_t kAnyBlockIndex = 0xFFFFFFFFu;

struct BbCreateRequest {
  std::string path;
  // Idempotency token (nonzero): a retransmitted create whose first reply
  // was lost matches the stored token and succeeds instead of
  // kAlreadyExists.
  std::uint64_t token = 0;
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + path.size();
  }
};

struct BbAddBlockRequest {
  std::string path;
  net::NodeId writer = 0;
  // The index the writer expects to receive (its count of blocks so far).
  // Files are single-writer, so a request expecting an index the master
  // already allocated is a retransmission — the master returns the existing
  // block instead of allocating an orphan.
  std::uint32_t expected_index = kAnyBlockIndex;
  // Causal op id of the block being opened, so master-side work on the
  // admission path (the flowctl credit wait) is attributed to this write.
  std::uint64_t op_id = 0;
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + path.size();
  }
};

struct BbAddBlockReply {
  std::uint32_t block_index = 0;
  // Degraded mode: the master has suspect/dead KV servers, so the writer
  // must establish durability on the write path (write through to Lustre,
  // buffer copy best-effort) and seal with already_durable=true.
  bool write_through = false;
  [[nodiscard]] std::uint64_t wire_size() const { return kHeaderBytes; }
};

struct BbCompleteBlockRequest {
  std::string path;
  std::uint32_t block_index = 0;
  std::uint64_t size = 0;
  // Per-chunk CRCs over each chunk's logical (unpadded) bytes, in chunk
  // order: exactly one per chunk, or the master rejects the seal. Like the
  // KV reply CRC, this provenance rides the fixed header budget: wire_size
  // is deliberately unchanged so healthy-run timing stays bit-identical for
  // the perf gates.
  std::vector<std::uint32_t> chunk_crcs;
  bool already_durable = false;           // BB-Sync wrote through to Lustre
  std::optional<net::NodeId> local_node;  // BB-Local replica location
  std::uint64_t op_id = 0;  // causal trace id: writer -> master -> flusher
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + path.size();
  }
};

struct BbCloseRequest {
  std::string path;
  std::uint64_t size = 0;
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + path.size();
  }
};

struct BbBlockInfo {
  std::uint32_t index = 0;
  std::uint64_t size = 0;
  // Writer-registered per-chunk CRCs (logical bytes, chunk order), one per
  // chunk: the only integrity provenance a block has. Readers, flushers,
  // and the scrubber verify against them.
  std::vector<std::uint32_t> chunk_crcs;
  BlockState state = BlockState::kOpen;
  std::optional<net::NodeId> local_node;
  bool reservation_held = false;  // master-internal admission bookkeeping
  std::uint64_t op_id = 0;        // causal trace id of the writing op
  // KV server indices holding the block's chunks (union over its chunks'
  // ring replica sets). Empty at kv.repl.factor=1 — the ring alone locates
  // the single copy.
  std::vector<std::uint32_t> replicas;

  bool operator==(const BbBlockInfo&) const = default;
};

// Chunks a block of `size` bytes occupies; only the last may be partial.
inline std::uint32_t chunk_count(std::uint64_t size, std::uint64_t chunk_size) {
  return static_cast<std::uint32_t>((size + chunk_size - 1) / chunk_size);
}

// The seal invariant every reader relies on: one writer CRC per chunk.
inline bool one_crc_per_chunk(std::uint64_t size, std::uint64_t chunk_size,
                              const std::vector<std::uint32_t>& crcs) {
  return crcs.size() == chunk_count(size, chunk_size);
}

// The one block-integrity check, shared by every tier (node-local replica,
// KV buffer, Lustre) and the flusher. `pieces`, laid back to back, hold
// bytes of `block` from the chunk-aligned offset `aligned_off` on; each
// chunk's logical bytes must match its writer-registered CRC. A chunk is
// hashed where it lies, across the pieces it spans, and never copied. Bytes
// past the block's end (the slab padding of a buffered tail chunk) are not
// checked. A chunk that mismatches or is cut short is kDataLoss. Relies on
// the seal invariant that chunk_crcs holds one CRC per chunk.
inline Status verify_chunks(const BbBlockInfo& block, std::uint64_t chunk_size,
                            std::uint64_t aligned_off,
                            std::span<const ByteSlice> pieces) {
  const std::uint64_t total = total_length(pieces);
  std::size_t p = 0;          // the piece holding byte `pos`...
  std::uint64_t p_start = 0;  // ...and where it starts
  std::uint64_t pos = 0;
  while (pos < total && aligned_off + pos < block.size) {
    const std::uint64_t c = (aligned_off + pos) / chunk_size;
    const std::uint64_t logical =
        std::min(chunk_size, block.size - c * chunk_size);
    bool ok = pos + logical <= total;
    if (ok) {
      std::uint32_t crc = 0;
      for (const std::uint64_t end = pos + logical; pos < end;) {
        while (p_start + pieces[p].length <= pos) p_start += pieces[p++].length;
        const std::uint64_t within = pos - p_start;
        const std::uint64_t n = std::min(pieces[p].length - within, end - pos);
        crc = crc32c(crc, pieces[p].span().data() + within, n);
        pos += n;
      }
      ok = crc == block.chunk_crcs[c];
    }
    if (!ok) {
      return error(StatusCode::kDataLoss,
                   "chunk " + std::to_string(c) +
                       " checksum mismatch on block " +
                       std::to_string(block.index));
    }
  }
  return Status::ok();
}

// Provenance of buffered chunk `c` of `block`, fetched from the KV tier as
// `data` together with `item_crc`, the item CRC the KV server has just
// checked against exactly these bytes. A full chunk is stored unpadded, so
// its item CRC is the CRC of its logical bytes: comparing it with the
// writer's CRC proves the bytes are what the writer sealed, without hashing
// them again. A tail chunk is stored padded to the slab class, so its
// logical bytes are hashed by verify_chunks.
inline Status verify_buffered_chunk(const BbBlockInfo& block,
                                    std::uint64_t chunk_size, std::uint32_t c,
                                    const ByteSlice& data,
                                    std::uint32_t item_crc) {
  const std::uint64_t c_start = std::uint64_t{c} * chunk_size;
  if (c_start + chunk_size > block.size || data.length != chunk_size) {
    return verify_chunks(block, chunk_size, c_start, {&data, 1});
  }
  if (item_crc != block.chunk_crcs[c]) {
    return error(StatusCode::kDataLoss,
                 "chunk " + std::to_string(c) + " of block " +
                     std::to_string(block.index) +
                     " holds bytes the writer did not seal");
  }
  return Status::ok();
}

struct BbLocationsRequest {
  std::string path;
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + path.size();
  }
};

struct BbLocationsReply {
  std::uint64_t file_size = 0;
  std::uint64_t block_size = 0;
  bool closed = false;
  std::vector<BbBlockInfo> blocks;
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + blocks.size() * 24;
  }
};

struct BbDeleteRequest {
  std::string path;
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + path.size();
  }
};

struct BbListRequest {
  std::string prefix;
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + prefix.size();
  }
};

struct BbListReply {
  std::vector<std::string> paths;
  [[nodiscard]] std::uint64_t wire_size() const {
    std::uint64_t total = kHeaderBytes;
    for (const auto& p : paths) total += p.size() + 4;
    return total;
  }
};

// Node-agent read of a RAM-disk block replica (BB-Local scheme).
struct AgentReadRequest {
  std::string object;  // "<path>#<block_index>"
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + object.size();
  }
};

struct AgentReadReply {
  std::vector<ByteSlice> data;  // the range, as the replica's page slices
  [[nodiscard]] std::uint64_t wire_size() const {
    return kHeaderBytes + total_length(data);
  }
};

// Chunk key for block data striped across the KV servers.
inline std::string chunk_key(const std::string& path,
                             std::uint32_t block_index, std::uint32_t chunk) {
  return "bb:" + path + "#" + std::to_string(block_index) + "#" +
         std::to_string(chunk);
}

// RAM-disk replica object name.
inline std::string local_object(const std::string& path,
                                std::uint32_t block_index) {
  return path + "#" + std::to_string(block_index);
}

}  // namespace hpcbb::bb
