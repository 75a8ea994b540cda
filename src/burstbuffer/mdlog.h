// Write-ahead metadata journal for the burst-buffer master.
//
// The master's file -> block map is the control plane of the whole burst
// buffer; losing it on a master crash silently orphans every buffered byte.
// Following the paper's design point that metadata lives in the KV tier
// alongside data, every master state mutation is encoded as a compact
// binary record and appended to a journal stored in the replicated KV
// store itself, under the reserved `!md:` key range (see
// kv::kReservedMetaPrefix) — so the journal inherits R-way replication,
// fill-time CRC verification, and pin-against-eviction for free.
//
// Durability contract: a mutation is applied to the in-memory map, its
// record is appended, and the RPC is acknowledged only once the record —
// and every record before it — is stored (all-replica ack). A single
// writer coroutine serializes appends in sequence order, so the durable
// journal is always a hole-free prefix: replay never skips an acknowledged
// mutation. Records that were still in flight when the master crashed were
// by construction never acknowledged; the client retries through the
// idempotent create-token / expected-block-index protocol.
//
// Checkpoints bound replay time: the journal encodes the master's MdState
// (periodically, and as soon as the journal outgrows journal_max_bytes),
// writes it in parts to an alternating checkpoint slot, flips the control
// record, and truncates the journal prefix the snapshot subsumes. A crash
// mid-checkpoint leaves the previous slot and control record intact.
// Recovery (recover()) loads the latest checkpoint and replays the tail.
//
// Key layout (all under the force-pinned reserved range):
//   !md:bb:ctl            control record {slot, parts, replay_from}
//   !md:bb:ckpt:<s>:<i>   checkpoint part i of slot s
//   !md:bb:j:<seq>        journal record seq
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "burstbuffer/protocol.h"
#include "common/bytes.h"
#include "common/status.h"
#include "common/units.h"
#include "kvstore/client.h"
#include "lustre/protocol.h"
#include "net/rpc.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/trace.h"

namespace hpcbb::bb {

struct MdParams {
  // Master switch: off (the default) adds zero events to a healthy run —
  // no journal appends, no checkpoint timer, bit-identical timing.
  bool journal = false;
  // Periodic checkpoint cadence (0 = size-triggered checkpoints only).
  sim::SimTime checkpoint_interval_ns = 100 * duration::ms;
  // Journal bytes that trigger an immediate checkpoint (0 = never).
  std::uint64_t journal_max_bytes = 1 * MiB;
};

// One journaled master mutation. A single struct covers every record type;
// unused fields encode as zero (records are tens of bytes either way).
enum class MdRecordType : std::uint8_t {
  kFileCreate = 1,   // path, token
  kBlockAdd = 2,     // path, block_index
  kBlockSeal = 3,    // path, block_index, size, crcs, durability, replicas
  kFlushStart = 4,   // path, block_index
  kFlushComplete = 5,  // path, block_index
  kBlockLost = 6,    // path, block_index (loss accounting)
  kQuarantine = 7,   // path, block_index
  kFileClose = 8,    // path, size
  kFileDelete = 9,   // path
};

struct MdRecord {
  MdRecordType type = MdRecordType::kFileCreate;
  std::string path;
  std::uint32_t block_index = 0;
  std::uint64_t size = 0;
  std::uint64_t token = 0;  // create idempotency token
  std::vector<std::uint32_t> chunk_crcs{};
  bool already_durable = false;
  bool has_local_node = false;
  std::uint32_t local_node = 0;
  std::uint64_t op_id = 0;
  std::vector<std::uint32_t> replicas{};  // replica-set at seal time

  bool operator==(const MdRecord&) const = default;
};

Bytes encode_record(const MdRecord& record);
Result<MdRecord> decode_record(const Bytes& bytes);

// One file of the master's metadata. The Lustre layout is live-only: no
// record or checkpoint carries it, and recovery re-resolves it from the MDS.
struct MdFile {
  std::vector<BbBlockInfo> blocks{};
  lustre::FileLayout lustre_layout{};
  std::uint64_t size = 0;
  std::uint64_t create_token = 0;
  bool closed = false;
};

// The master's file and block metadata plus its flush/loss counters, as a
// state machine over MdRecord. The live RPC handlers, the flusher and
// journal replay all change files and blocks through apply(), so replaying
// the journal rebuilds the state the live master held. Outside it stays
// what no record carries: admission reservations (reservation_held), the
// Lustre layout, the flusher's requeue of a kFlushing block back to kDirty
// (recovery re-flushes both alike), and recovered_blocks, which the live
// flusher counts and only a checkpoint restores.
struct MdState {
  std::uint64_t chunk_size = 1 * MiB;  // for the seal invariant
  std::map<std::string, MdFile> files{};
  std::uint64_t flushed_blocks = 0;
  std::uint64_t flushed_bytes = 0;
  std::uint64_t lost_blocks = 0;
  std::uint64_t recovered_blocks = 0;
  std::uint64_t quarantined_blocks = 0;

  // Applies one mutation. A record that finds its file or block gone, or
  // the block already past the state it moves it from, changes nothing (a
  // delete or an earlier record got there first). A seal without one CRC
  // per chunk is refused with kInvalidArgument and changes nothing either.
  Status apply(const MdRecord& record);

  // The block, or null when its file or the block does not exist.
  [[nodiscard]] BbBlockInfo* block(const std::string& path,
                                   std::uint32_t index);
};

// The checkpoint codec. Counter totals ride along so a restarted master
// reports cumulative flush/loss telemetry, not a reset. Blocks keep their
// in-memory form, but reservation_held (admission credits, which die with
// the master) is not encoded and decodes as false; nor is the Lustre
// layout. decode_checkpoint() replaces the files and counters of `state`
// (not its chunk_size) and leaves it untouched when the bytes are damaged.
Bytes encode_checkpoint(const MdState& state);
Status decode_checkpoint(const Bytes& bytes, MdState& state);

class MetadataJournal {
 public:
  // The journal writes from the master's node with all-replica acks and
  // ring failover forced on: an append is never acknowledged primary-only,
  // and a KV outage reroutes instead of wedging the control plane.
  // `state` is the master's metadata, which every checkpoint encodes; it
  // must outlive the journal.
  MetadataJournal(net::RpcHub& hub, net::NodeId node,
                  std::vector<net::NodeId> kv_servers,
                  kv::ClientParams kv_params, const MdParams& params,
                  const MdState& state);

  MetadataJournal(const MetadataJournal&) = delete;
  MetadataJournal& operator=(const MetadataJournal&) = delete;

  // Spawn the writer loop into the ambient task scope (the master's
  // incarnation), which size-triggered checkpoints join too. Called once
  // after construction and again after every crash()+recover() cycle.
  void start();
  // Spawn the periodic checkpoint worker into the ambient scope; a no-op
  // with checkpoint_interval_ns 0 or after stop().
  void start_checkpoints();

  // Durable append: resolves once this record and every earlier one are
  // stored in the KV tier. The caller is a member of the master's scope: a
  // crash before durability unwinds it, so the mutation is never
  // acknowledged (the client retries through the idempotent protocol).
  // The sequence number is allocated at the caller's co_await, in the same
  // synchronous segment as the mutation it just applied, which is what
  // makes a checkpoint's snapshot cover exactly the journaled prefix.
  sim::Task<void> append(MdRecord record);

  // Fire-and-forget append for background mutations (flush complete, loss
  // accounting, quarantine): nothing is acknowledged against these, so the
  // caller need not block. Ordering relative to append() is preserved.
  void append_async(MdRecord record);

  // Rebuild `state` from the latest checkpoint and the journal tail past
  // it, and continue the sequence after the tail. Returns the number of
  // tail records replayed. The state changes in one synchronous step at
  // the end, so no reader sees a half-rebuilt map.
  sim::Task<std::uint64_t> recover(MdState& state);

  // Master crash: drop pending (never-acknowledged) appends and wake their
  // waiters, which unwind with the crashed scope. A checkpoint in flight
  // died with the scope, so the single-flight flag clears, and nothing
  // triggers a checkpoint until recover() and start() have run.
  void crash();

  // No checkpoint starts after this; the periodic worker wakes at most
  // once more. Appends go on.
  void stop() noexcept { stopped_ = true; }

  // "md" spans: md.append (queue wait + durability, attributed to the
  // record's op) and md.checkpoint.
  void set_trace(sim::TraceRecorder* recorder) noexcept { trace_ = recorder; }

 private:
  struct Pending {
    std::uint64_t seq = 0;
    Bytes bytes;
  };

  sim::Task<void> writer_loop();
  // Start a checkpoint once the journal outgrows journal_max_bytes.
  void maybe_checkpoint();
  sim::Task<void> checkpoint_worker();
  // Single-flight: snapshot the state, then write_checkpoint().
  sim::Task<void> run_checkpoint();
  // Write `snapshot` (parts + control record) covering records < upto_seq,
  // then truncate the subsumed journal prefix. Waits for the journal to be
  // durable up to upto_seq before truncating, so an erase can never race
  // ahead of its record's write.
  sim::Task<void> write_checkpoint(Bytes snapshot, std::uint64_t upto_seq);

  static std::string journal_key(std::uint64_t seq);
  static std::string ckpt_key(std::uint32_t slot, std::uint32_t part);
  static std::string ctl_key();

  net::NodeId node_;
  MdParams params_;
  const MdState* state_;
  std::unique_ptr<kv::Client> kv_;
  sim::Simulation* sim_;
  sim::TraceRecorder* trace_ = nullptr;
  sim::Scope* scope_ = nullptr;  // the incarnation start() ran in

  sim::Channel<Pending> queue_;
  sim::Condition durable_;
  std::uint64_t next_seq_ = 0;     // next sequence number to allocate
  std::uint64_t durable_next_ = 0;  // all seqs < this are durable
  std::uint64_t oldest_seq_ = 0;   // journal head (first non-truncated seq)
  std::uint32_t checkpoint_slot_ = 0;
  std::uint64_t bytes_since_checkpoint_ = 0;
  bool checkpoint_running_ = false;
  bool stopped_ = false;
  MetricHandle<Counter> retries_{sim_->metrics(), "bb.md.journal_retries"};
  MetricHandle<Counter> records_{sim_->metrics(), "bb.md.journal_records"};
  MetricHandle<Counter> bytes_{sim_->metrics(), "bb.md.journal_bytes"};
  MetricHandle<Histogram> append_ns_{sim_->metrics(),
                                     "bb.md.journal_append_ns"};
  MetricHandle<Counter> errors_{sim_->metrics(), "bb.md.recovery_errors"};
  MetricHandle<Counter> checkpoints_{sim_->metrics(), "bb.md.checkpoints"};
  MetricHandle<Counter> checkpoint_bytes_{sim_->metrics(),
                                          "bb.md.checkpoint_bytes"};
  MetricHandle<Histogram> checkpoint_ns_{sim_->metrics(),
                                         "bb.md.checkpoint_ns"};
  MetricHandle<Counter> truncated_{sim_->metrics(), "bb.md.journal_truncated"};
};

}  // namespace hpcbb::bb
