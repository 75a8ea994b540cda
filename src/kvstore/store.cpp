#include "kvstore/store.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/strings.h"

namespace hpcbb::kv {

// ---- Shard -----------------------------------------------------------------

class KvStore::Shard {
 public:
  Shard(const SlabParams& slab_params, std::uint32_t bucket_count)
      : slab_(slab_params), buckets_(bucket_count, nullptr),
        bucket_mask_(bucket_count - 1),
        lru_heads_(static_cast<std::size_t>(slab_.class_count()), nullptr),
        lru_tails_(static_cast<std::size_t>(slab_.class_count()), nullptr) {
    assert((bucket_count & bucket_mask_) == 0 && "bucket count power of two");
  }

  ~Shard() = default;  // chunk memory is owned by the slab's pages

  Status set(std::uint64_t hash, std::string_view key,
             std::span<const std::uint8_t> value, const SetOptions& options) {
    const std::uint64_t need = Item::footprint(key.size(), value.size());
    const int cls = slab_.class_for(need);
    if (cls < 0) {
      return error(StatusCode::kInvalidArgument,
                   "value too large for slab chunks");
    }
    const std::uint32_t crc =
        options.value_crc ? *options.value_crc : crc32c(value);

    std::lock_guard<std::mutex> lock(mu_);
    void* chunk = allocate_with_eviction(cls);
    if (chunk == nullptr) {
      ++stats_.set_failures;
      return error(StatusCode::kResourceExhausted,
                   "store memory exhausted (pinned data?)");
    }

    // Replace-under-same-key: unlink the old item only after the new chunk
    // is secured, so a failed set never destroys existing data.
    if (Item* old = find(hash, key)) {
      unlink_and_free(old);
    }

    auto* item = new (chunk) Item();
    item->key_hash = hash;
    item->slab_class = static_cast<std::uint16_t>(cls);
    item->pinned = options.pinned;
    item->expiry_ns = options.expiry_ns;
    item->fill(key, value, crc);

    link_hash(item);
    link_lru_front(item);
    ++stats_.items;
    stats_.bytes += key.size() + value.size();
    if (item->pinned) stats_.pinned_bytes += key.size() + value.size();
    return Status::ok();
  }

  Result<VerifiedValue> get(std::uint64_t hash, std::string_view key,
                            std::uint64_t now_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    Item* item = find_live(hash, key, now_ns);
    if (item == nullptr) {
      ++stats_.misses;
      return error(StatusCode::kNotFound, "key not found");
    }
    // Copy first, then check the copy: one pass over the slab, and the
    // bytes verified are exactly the bytes returned.
    const auto value = item->value();
    Bytes copy(value.begin(), value.end());
    if (crc32c(copy) != item->value_crc) {
      // Keep the corrupt item: replicas must see "corrupt", not "missing",
      // or an R=1 store could silently re-admit the key as a fresh miss.
      ++stats_.integrity_failures;
      return error(StatusCode::kDataLoss, "value checksum mismatch");
    }
    ++stats_.hits;
    touch(item);
    return VerifiedValue{std::move(copy), item->value_crc, item->pinned};
  }

  Result<std::uint64_t> value_size(std::uint64_t hash, std::string_view key,
                                   std::uint64_t now_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    Item* item = find_live(hash, key, now_ns);
    if (item == nullptr) {
      ++stats_.misses;
      return error(StatusCode::kNotFound, "key not found");
    }
    ++stats_.hits;
    touch(item);
    return std::uint64_t{item->value_len};
  }

  bool erase(std::uint64_t hash, std::string_view key) {
    std::lock_guard<std::mutex> lock(mu_);
    Item* item = find(hash, key);
    if (item == nullptr) return false;
    unlink_and_free(item);
    return true;
  }

  Status set_pinned(std::uint64_t hash, std::string_view key, bool pinned) {
    std::lock_guard<std::mutex> lock(mu_);
    Item* item = find(hash, key);
    if (item == nullptr) return error(StatusCode::kNotFound, "key not found");
    if (item->pinned != pinned) {
      const std::uint64_t payload =
          std::uint64_t{item->key_len} + item->value_len;
      if (pinned) {
        stats_.pinned_bytes += payload;
      } else {
        stats_.pinned_bytes -= std::min(stats_.pinned_bytes, payload);
      }
    }
    item->pinned = pinned;
    return Status::ok();
  }

  bool contains(std::uint64_t hash, std::string_view key,
                std::uint64_t now_ns) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (Item* it = buckets_[bucket_of(hash)]; it; it = it->hash_next) {
      if (it->key_hash == hash && it->key() == key) {
        return !expired(it, now_ns);
      }
    }
    return false;
  }

  void wipe() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& head : buckets_) {
      while (head != nullptr) {
        Item* item = head;
        head = item->hash_next;
        // Hash chains own the items; LRU is cleared wholesale below.
        slab_.deallocate(item->slab_class, item);
      }
    }
    std::fill(lru_heads_.begin(), lru_heads_.end(), nullptr);
    std::fill(lru_tails_.begin(), lru_tails_.end(), nullptr);
    stats_.items = 0;
    stats_.bytes = 0;
    stats_.pinned_bytes = 0;
  }

  [[nodiscard]] StoreStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  void collect_keys(std::vector<std::string>& out) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (Item* head : buckets_) {
      for (Item* it = head; it; it = it->hash_next) {
        out.emplace_back(it->key());
      }
    }
  }

  bool corrupt(std::uint64_t hash, std::string_view key, CorruptKind kind,
               std::uint64_t selector) {
    std::lock_guard<std::mutex> lock(mu_);
    Item* item = find(hash, key);
    if (item == nullptr) return false;
    return apply_corruption(item->mutable_value(), kind, selector);
  }

  [[nodiscard]] const SlabAllocator& slab() const noexcept { return slab_; }

 private:
  [[nodiscard]] std::size_t bucket_of(std::uint64_t hash) const noexcept {
    // Low bits select the shard (KvStore); mix the rest for the bucket.
    return (hash >> 16) & bucket_mask_;
  }

  Item* find(std::uint64_t hash, std::string_view key) const noexcept {
    for (Item* it = buckets_[bucket_of(hash)]; it; it = it->hash_next) {
      if (it->key_hash == hash && it->key() == key) return it;
    }
    return nullptr;
  }

  static bool expired(const Item* item, std::uint64_t now_ns) noexcept {
    return item->expiry_ns != 0 && now_ns >= item->expiry_ns;
  }

  Item* find_live(std::uint64_t hash, std::string_view key,
                  std::uint64_t now_ns) {
    Item* item = find(hash, key);
    if (item == nullptr) return nullptr;
    if (expired(item, now_ns)) {
      unlink_and_free(item);
      ++stats_.expired;
      return nullptr;
    }
    return item;
  }

  // Allocation with LRU eviction from the same class; pinned items are
  // skipped (they are the burst buffer's not-yet-durable blocks).
  void* allocate_with_eviction(int cls) {
    if (void* chunk = slab_.allocate(cls)) return chunk;
    Item* victim = lru_tails_[static_cast<std::size_t>(cls)];
    while (victim != nullptr && victim->pinned) victim = victim->lru_prev;
    if (victim == nullptr) return nullptr;
    unlink_and_free(victim);
    ++stats_.evictions;
    return slab_.allocate(cls);
  }

  void link_hash(Item* item) noexcept {
    Item*& head = buckets_[bucket_of(item->key_hash)];
    item->hash_next = head;
    head = item;
  }

  void unlink_hash(Item* item) noexcept {
    Item** cursor = &buckets_[bucket_of(item->key_hash)];
    while (*cursor != item) cursor = &(*cursor)->hash_next;
    *cursor = item->hash_next;
  }

  void link_lru_front(Item* item) noexcept {
    auto& head = lru_heads_[item->slab_class];
    auto& tail = lru_tails_[item->slab_class];
    item->lru_prev = nullptr;
    item->lru_next = head;
    if (head != nullptr) head->lru_prev = item;
    head = item;
    if (tail == nullptr) tail = item;
  }

  void unlink_lru(Item* item) noexcept {
    auto& head = lru_heads_[item->slab_class];
    auto& tail = lru_tails_[item->slab_class];
    if (item->lru_prev != nullptr) item->lru_prev->lru_next = item->lru_next;
    if (item->lru_next != nullptr) item->lru_next->lru_prev = item->lru_prev;
    if (head == item) head = item->lru_next;
    if (tail == item) tail = item->lru_prev;
    item->lru_prev = item->lru_next = nullptr;
  }

  void touch(Item* item) noexcept {
    unlink_lru(item);
    link_lru_front(item);
  }

  void unlink_and_free(Item* item) noexcept {
    unlink_hash(item);
    unlink_lru(item);
    assert(stats_.items > 0);
    --stats_.items;
    stats_.bytes -= item->key_len + item->value_len;
    if (item->pinned) {
      const std::uint64_t payload =
          std::uint64_t{item->key_len} + item->value_len;
      stats_.pinned_bytes -= std::min(stats_.pinned_bytes, payload);
    }
    slab_.deallocate(item->slab_class, item);
  }

  mutable std::mutex mu_;
  SlabAllocator slab_;
  std::vector<Item*> buckets_;
  std::uint64_t bucket_mask_;
  std::vector<Item*> lru_heads_;
  std::vector<Item*> lru_tails_;
  StoreStats stats_;
};

// ---- KvStore ---------------------------------------------------------------

KvStore::KvStore(const StoreParams& params) {
  assert(params.shard_count > 0);
  assert((params.buckets_per_shard & (params.buckets_per_shard - 1)) == 0);
  // Every shard must afford at least one slab page, or large values would
  // be unstorable; small budgets get fewer shards rather than dead ones.
  const std::uint64_t max_shards =
      std::max<std::uint64_t>(1, params.memory_budget / params.slab.page_size);
  const auto shard_count = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(params.shard_count, max_shards));
  SlabParams slab = params.slab;
  slab.memory_budget = params.memory_budget / shard_count;
  shards_.reserve(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(slab, params.buckets_per_shard));
  }
}

KvStore::~KvStore() = default;

KvStore::Shard& KvStore::shard_for(std::uint64_t hash) const noexcept {
  return *shards_[hash % shards_.size()];
}

Status KvStore::set(std::string_view key, std::span<const std::uint8_t> value,
                    const SetOptions& options) {
  const std::uint64_t hash = fnv1a(key);
  if (key.starts_with(kReservedMetaPrefix)) {
    // Reserved control-plane range: journal/checkpoint keys are pinned
    // unconditionally — evicting a journal record would silently undo an
    // acknowledged metadata mutation.
    SetOptions forced = options;
    forced.pinned = true;
    return shard_for(hash).set(hash, key, value, forced);
  }
  return shard_for(hash).set(hash, key, value, options);
}

Result<Bytes> KvStore::get(std::string_view key, std::uint64_t now_ns) {
  auto verified = get_verified(key, now_ns);
  if (!verified.is_ok()) return verified.status();
  return std::move(verified.value().value);
}

Result<VerifiedValue> KvStore::get_verified(std::string_view key,
                                            std::uint64_t now_ns) {
  const std::uint64_t hash = fnv1a(key);
  return shard_for(hash).get(hash, key, now_ns);
}

Result<std::uint64_t> KvStore::value_size(std::string_view key,
                                          std::uint64_t now_ns) {
  const std::uint64_t hash = fnv1a(key);
  return shard_for(hash).value_size(hash, key, now_ns);
}

bool KvStore::erase(std::string_view key) {
  const std::uint64_t hash = fnv1a(key);
  return shard_for(hash).erase(hash, key);
}

Status KvStore::set_pinned(std::string_view key, bool pinned) {
  const std::uint64_t hash = fnv1a(key);
  return shard_for(hash).set_pinned(hash, key, pinned);
}

bool KvStore::contains(std::string_view key, std::uint64_t now_ns) const {
  const std::uint64_t hash = fnv1a(key);
  return shard_for(hash).contains(hash, key, now_ns);
}

void KvStore::wipe() {
  for (auto& shard : shards_) shard->wipe();
}

std::string KvStore::corrupt_one(std::uint64_t selector, CorruptKind kind,
                                 std::string_view key) {
  std::string target(key);
  if (target.empty()) {
    // Sorted global key list keeps the pick independent of shard layout.
    std::vector<std::string> keys;
    for (const auto& shard : shards_) shard->collect_keys(keys);
    if (keys.empty()) return {};
    std::sort(keys.begin(), keys.end());
    target = keys[selector % keys.size()];
  }
  const std::uint64_t hash = fnv1a(target);
  if (!shard_for(hash).corrupt(hash, target, kind, selector)) return {};
  return target;
}

StoreStats KvStore::stats() const {
  StoreStats total;
  for (const auto& shard : shards_) {
    const StoreStats s = shard->stats();
    total.items += s.items;
    total.bytes += s.bytes;
    total.pinned_bytes += s.pinned_bytes;
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.expired += s.expired;
    total.set_failures += s.set_failures;
  }
  return total;
}

std::uint64_t KvStore::memory_budget() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->slab().memory_budget();
  return total;
}

std::uint64_t KvStore::max_value_size(std::uint64_t key_len) const {
  const SlabAllocator& slab = shards_.front()->slab();
  const std::uint64_t chunk = slab.chunk_size(slab.class_count() - 1);
  const std::uint64_t overhead = sizeof(Item) + key_len;
  return chunk > overhead ? chunk - overhead : 0;
}

}  // namespace hpcbb::kv
