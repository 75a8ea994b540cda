// KvStore: a thread-safe, memory-bounded key-value store with memcached
// semantics — slab allocation, per-class LRU eviction, TTL expiry, and a
// pin bit (the burst buffer pins dirty blocks until they are flushed to
// Lustre, so acknowledged data is never silently evicted).
//
// Concurrency design: the store is an array of independent shards, each
// fully guarded by its own mutex (hash buckets, LRU lists, and slab arena
// are all per-shard). Keys map to shards by hash. This gives real-thread
// scalability without cross-lock ordering hazards; unit tests and the M1
// microbenchmarks exercise it from real threads, the simulator from one.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/corrupt.h"
#include "common/status.h"
#include "kvstore/item.h"
#include "kvstore/slab.h"

namespace hpcbb::kv {

// Reserved control-plane key range. Keys under this prefix hold the burst
// buffer master's metadata journal, checkpoints, and control records; the
// store force-pins them on set() so cache eviction can never drop
// control-plane state, whatever the caller passed. Data keys never start
// with '!' (block chunks are "bb:<path>#..."), so the range is collision-free.
inline constexpr std::string_view kReservedMetaPrefix = "!md:";

struct StoreParams {
  std::uint64_t memory_budget = 256ull << 20;
  std::uint32_t shard_count = 8;
  std::uint32_t buckets_per_shard = 1u << 14;
  SlabParams slab;  // memory_budget is distributed over shards
};

struct SetOptions {
  bool pinned = false;
  std::uint64_t expiry_ns = 0;  // absolute simulated/real time; 0 = never
  // CRC32C of the value as its writer computed it. The store keeps it
  // without hashing the value again; a wrong one makes the next get()
  // return kDataLoss. None: the store hashes the value itself.
  std::optional<std::uint32_t> value_crc = std::nullopt;
};

struct StoreStats {
  std::uint64_t items = 0;
  std::uint64_t bytes = 0;         // key+value payload bytes
  std::uint64_t pinned_bytes = 0;  // subset of `bytes` held by pinned items
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t expired = 0;
  std::uint64_t set_failures = 0;  // memory exhausted (all-pinned or budget)
  std::uint64_t integrity_failures = 0;  // gets that hit a checksum mismatch
};

// A verified read: the value plus its fill-time checksum and pin state, so
// callers (the server, read-repair) can forward both without recomputing.
// `value` is exactly the bytes that were checked against `crc`.
struct VerifiedValue {
  Bytes value;
  std::uint32_t crc = 0;
  bool pinned = false;
};

class KvStore {
 public:
  explicit KvStore(const StoreParams& params);
  ~KvStore();

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  // Insert or replace. Fails kResourceExhausted when the budget is full of
  // pinned/unevictable data, kInvalidArgument when the value exceeds the
  // largest slab chunk. On failure an existing value under `key` survives.
  Status set(std::string_view key, std::span<const std::uint8_t> value,
             const SetOptions& options = {});

  // Copy of the value, LRU-touched. `now_ns` drives TTL expiry. Every get
  // checksums the copy it returns against the fill-time CRC; a mismatch
  // returns kDataLoss (the corrupt item is kept, so repeated reads keep
  // reporting "corrupt" rather than "missing" — replicas and repair rely on
  // that).
  Result<Bytes> get(std::string_view key, std::uint64_t now_ns = 0);

  // get() plus the stored CRC and pin state (the server forwards both).
  Result<VerifiedValue> get_verified(std::string_view key,
                                     std::uint64_t now_ns = 0);

  // Value size without copying (used by the RDMA GET protocol to size the
  // one-sided read); also LRU-touched.
  Result<std::uint64_t> value_size(std::string_view key,
                                   std::uint64_t now_ns = 0);

  // true if the key existed.
  bool erase(std::string_view key);

  // Flip the pin bit; kNotFound if absent.
  Status set_pinned(std::string_view key, bool pinned);

  [[nodiscard]] bool contains(std::string_view key,
                              std::uint64_t now_ns = 0) const;

  // Drop everything (server crash: memory contents are gone).
  void wipe();

  // Corruption injection (chaos/tests): deterministically pick one resident
  // item by `selector` (keys are sorted across shards, index selector % n)
  // and mutate its value bytes in place — the stored CRC is untouched, so
  // the next verified read detects it. Returns the corrupted key, or "" if
  // the store is empty. `key` targets a specific item instead.
  std::string corrupt_one(std::uint64_t selector, CorruptKind kind,
                          std::string_view key = {});

  [[nodiscard]] StoreStats stats() const;
  [[nodiscard]] std::uint64_t memory_budget() const noexcept;
  // Largest storable value for a key of the given length.
  [[nodiscard]] std::uint64_t max_value_size(std::uint64_t key_len) const;

 private:
  class Shard;

  [[nodiscard]] Shard& shard_for(std::uint64_t hash) const noexcept;

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace hpcbb::kv
