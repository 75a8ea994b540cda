// LocalStore: a named-object store on one Device — the DataNode's block
// directory, a Lustre OST, or the RAM-disk replica area of the BB-Local
// scheme. Objects hold real bytes in fixed-size pages, so growing an object
// re-copies at most its last, partly filled page; every append/read charges
// device time and appends are capacity-checked.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
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
  sim::Task<Status> append(std::string name, std::span<const std::uint8_t> data);

  // Writes at an absolute object offset (creating/growing as needed; gaps
  // are zero-filled). Lustre OST objects receive stripes at arbitrary
  // offsets when upper layers flush out of order.
  sim::Task<Status> write_at(std::string name, std::uint64_t offset,
                             std::span<const std::uint8_t> data);

  // Reads [offset, offset+length) of the named object: one copy out of its
  // pages.
  sim::Task<Result<Bytes>> read(const std::string& name, std::uint64_t offset,
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

  // Test hook: flip one byte of a stored object in place (bit-rot
  // injection for checksum-validation tests). No-op if absent/too short.
  void flip_byte(const std::string& name, std::uint64_t index);

  // Corrupt one resident object in place — `object` if named, else a
  // selector-derived pick over the sorted object names. Returns the
  // corrupted name, or "" when the store is empty / the name is absent.
  std::string corrupt_one(const std::string& object, std::uint64_t selector,
                          CorruptKind kind);

  static constexpr std::uint64_t kPageSize = 1 * MiB;

 private:
  // Bytes [0, size) live in pages[i / kPageSize][i % kPageSize]. Every page
  // but the last holds kPageSize bytes; the last holds `tail_capacity`, sized
  // to what it holds and widened as the object grows, so a small object
  // costs about its size. Bytes of the last page past `size` are unspecified
  // until the object grows over them: pages are never zero-filled, only gaps
  // are.
  struct Object {
    std::vector<std::unique_ptr<std::uint8_t[]>> pages;
    std::uint64_t tail_capacity = 0;
    std::uint64_t size = 0;
    std::uint64_t write_cursor = 0;  // device offset bookkeeping
  };

  // Extends `obj` to `end` bytes. The bytes from the old size up to
  // `data_at`, where the caller's data will start, are zeroed.
  static void grow(Object& obj, std::uint64_t end, std::uint64_t data_at);
  static void copy_in(Object& obj, std::uint64_t offset,
                      std::span<const std::uint8_t> data);
  static Bytes copy_out(const Object& obj, std::uint64_t offset,
                        std::uint64_t length);
  static std::uint8_t& byte_at(Object& obj, std::uint64_t index) noexcept {
    return obj.pages[index / kPageSize][index % kPageSize];
  }

  Device* device_;
  std::unordered_map<std::string, Object> objects_;
  std::uint64_t next_extent_ = 0;  // naive extent allocator for offsets
};

}  // namespace hpcbb::storage
