// LocalStore: a named-object store on one Device — the DataNode's block
// directory, a Lustre OST, or the RAM-disk replica area of the BB-Local
// scheme. Objects hold real bytes in fixed-size pages. A write that covers
// a whole page keeps that page as a slice of the sender's immutable buffer;
// any other write copies into a page the store owns, so growing an object
// re-copies at most its last, partly filled page. Reads hand out slices of
// the pages. Every append/read charges device time and appends are
// capacity-checked.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "storage/device.h"

namespace hpcbb::storage {

class LocalStore {
 public:
  explicit LocalStore(Device& device) noexcept : device_(&device) {
    // Fault injection addresses corruption by device handle; the store is
    // where the bytes actually live, so it serves the device's hook.
    device_->set_corrupt_hook(
        [this](const std::string& object, std::uint64_t selector,
               CorruptKind kind) { return corrupt_one(object, selector, kind); });
  }

  LocalStore(const LocalStore&) = delete;
  LocalStore& operator=(const LocalStore&) = delete;

  // Appends to (creating if absent) the named object.
  sim::Task<Status> append(std::string name, ByteSlice data);

  // Writes at an absolute object offset (creating/growing as needed; gaps
  // are zero-filled). Lustre OST objects receive stripes at arbitrary
  // offsets when upper layers flush out of order.
  sim::Task<Status> write_at(std::string name, std::uint64_t offset,
                             ByteSlice data);

  // Reads [offset, offset+length) of the named object as slices of its
  // pages, in order. The slices are a snapshot: a later write, corruption
  // or removal of the object never changes them.
  sim::Task<Result<std::vector<ByteSlice>>> read(std::string name,
                                                 std::uint64_t offset,
                                                 std::uint64_t length);

  // Removes the object and releases its space (metadata op: no device time).
  Status remove(const std::string& name);

  [[nodiscard]] bool contains(const std::string& name) const {
    return objects_.contains(name);
  }
  [[nodiscard]] std::uint64_t object_size(const std::string& name) const;
  [[nodiscard]] std::uint64_t object_count() const noexcept {
    return objects_.size();
  }
  [[nodiscard]] std::uint64_t used_bytes() const noexcept {
    return device_->used_bytes();
  }

  // Drops all contents without device I/O — volatile media losing power
  // (RAM disk on node crash).
  void wipe();

  // Test hook: flip one byte of a stored object (bit-rot injection for
  // checksum-validation tests). No-op if absent/too short.
  void flip_byte(const std::string& name, std::uint64_t index);

  // Corrupt one resident object — `object` if named, else a
  // selector-derived pick over the sorted object names. Returns the
  // corrupted name, or "" when the store is empty / the name is absent.
  std::string corrupt_one(const std::string& object, std::uint64_t selector,
                          CorruptKind kind);

  static constexpr std::uint64_t kPageSize = 1 * MiB;

 private:
  // Bytes [0, size) of an object live in pages[i / kPageSize] at
  // i % kPageSize. Every page but the last holds kPageSize bytes; the last
  // holds the rest. A page is bytes [offset, offset + its length) of
  // `bytes`, which is either
  //   - a slice of a buffer the store received (owned = false): a whole
  //     page of a write, kept instead of copied,
  //   - a shared page of zeros (owned = false) for a new page that lies
  //     wholly in a gap, which a later write usually fills, or
  //   - a buffer the store allocated (owned = true, offset 0), exactly as
  //     long as the page. Its capacity grows with the page, so a small
  //     object costs about its size.
  // Copy-on-write: the store writes into a page in place only while it
  // owns the page's buffer alone; a received slice, or an owned buffer a
  // read has handed out, is copied first. Owned pages are never
  // zero-filled; only a gap in a page that also holds data is.
  struct Page {
    BytesPtr bytes;
    std::uint64_t offset = 0;
    bool owned = false;
  };
  struct Object {
    std::vector<Page> pages;
    std::uint64_t size = 0;
    std::uint64_t write_cursor = 0;  // device offset bookkeeping
  };

  // Writes `data` at `offset`, growing the object over it and zeroing any
  // gap between the old size and `offset`.
  static void put(Object& obj, std::uint64_t offset, const ByteSlice& data);
  // The buffer of `page`, owned alone by the store and copied first if it
  // is not, holding the page's current `held` bytes with room for `need`.
  static Bytes& writable(Page& page, std::uint64_t held, std::uint64_t need);
  static std::vector<ByteSlice> slices(const Object& obj, std::uint64_t offset,
                                       std::uint64_t length);

  Device* device_;
  std::unordered_map<std::string, Object> objects_;
  std::uint64_t next_extent_ = 0;  // naive extent allocator for offsets
};

}  // namespace hpcbb::storage
