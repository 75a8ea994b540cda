#include "storage/local_store.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace hpcbb::storage {

namespace {

// Calls fn(bytes, n) for each run of [offset, offset + length) that lies in
// one page, in order.
template <typename Pages, typename Fn>
void for_each_run(Pages& pages, std::uint64_t offset, std::uint64_t length,
                  Fn&& fn) {
  while (length > 0) {
    const std::uint64_t within = offset % LocalStore::kPageSize;
    const std::uint64_t n = std::min(length, LocalStore::kPageSize - within);
    fn(pages[offset / LocalStore::kPageSize].get() + within, n);
    offset += n;
    length -= n;
  }
}

}  // namespace

void LocalStore::grow(Object& obj, std::uint64_t end, std::uint64_t data_at) {
  const auto allocate = [](std::uint64_t n) {
    return std::make_unique_for_overwrite<std::uint8_t[]>(
        static_cast<std::size_t>(n));
  };
  if (!obj.pages.empty()) {
    // Widen the last page to hold its share of `end`: to a full page when
    // the object grows past it, else at least doubled.
    const std::uint64_t start = (obj.pages.size() - 1) * kPageSize;
    const std::uint64_t need = std::min(end - start, kPageSize);
    if (need > obj.tail_capacity) {
      const std::uint64_t capacity =
          std::min(kPageSize, std::max(need, 2 * obj.tail_capacity));
      auto page = allocate(capacity);
      std::memcpy(page.get(), obj.pages.back().get(), obj.size - start);
      obj.pages.back() = std::move(page);
      obj.tail_capacity = capacity;
    }
  }
  const std::uint64_t pages = (end + kPageSize - 1) / kPageSize;
  while (obj.pages.size() < pages) {
    const std::uint64_t start = obj.pages.size() * kPageSize;
    obj.tail_capacity = std::min(end - start, kPageSize);
    obj.pages.push_back(allocate(obj.tail_capacity));
  }
  if (data_at > obj.size) {
    for_each_run(obj.pages, obj.size, data_at - obj.size,
                 [](std::uint8_t* bytes, std::uint64_t n) {
                   std::memset(bytes, 0, n);
                 });
  }
  obj.size = end;
}

void LocalStore::copy_in(Object& obj, std::uint64_t offset,
                         std::span<const std::uint8_t> data) {
  const std::uint8_t* src = data.data();
  for_each_run(obj.pages, offset, data.size(),
               [&src](std::uint8_t* bytes, std::uint64_t n) {
                 std::memcpy(bytes, src, n);
                 src += n;
               });
}

Bytes LocalStore::copy_out(const Object& obj, std::uint64_t offset,
                          std::uint64_t length) {
  Bytes out;
  out.reserve(length);
  for_each_run(obj.pages, offset, length,
               [&out](const std::uint8_t* bytes, std::uint64_t n) {
                 out.insert(out.end(), bytes, bytes + n);
               });
  return out;
}

sim::Task<Status> LocalStore::append(std::string name,
                                     std::span<const std::uint8_t> data) {
  if (Status st = device_->reserve(data.size()); !st.is_ok()) co_return st;

  auto [it, inserted] = objects_.try_emplace(std::move(name));
  Object& obj = it->second;
  if (inserted) {
    // Lay the object out at a fresh extent; appends within an object are
    // sequential, distinct objects land at different extents.
    obj.write_cursor = next_extent_;
    next_extent_ += 256 * MiB;
  }
  const std::uint64_t at = obj.size;
  grow(obj, at + data.size(), at);
  copy_in(obj, at, data);

  // All map mutation happens before the device await: the object may be
  // removed by another simulated process while this I/O is in flight, and
  // references into objects_ must not be touched afterwards.
  const std::uint64_t io_offset = obj.write_cursor;
  obj.write_cursor += data.size();
  co_await device_->write(io_offset, data.size());
  co_return Status::ok();
}

sim::Task<Status> LocalStore::write_at(std::string name, std::uint64_t offset,
                                       std::span<const std::uint8_t> data) {
  auto [it, inserted] = objects_.try_emplace(std::move(name));
  Object& obj = it->second;
  if (inserted) {
    obj.write_cursor = next_extent_;
    next_extent_ += 256 * MiB;
    // write_cursor tracks the extent base + logical size for append();
    // keep it consistent with the grown size below.
  }
  const std::uint64_t extent_base = obj.write_cursor - obj.size;
  const std::uint64_t end = offset + data.size();
  if (end > obj.size) {
    const std::uint64_t grow_by = end - obj.size;
    if (Status st = device_->reserve(grow_by); !st.is_ok()) co_return st;
    grow(obj, end, offset);
    obj.write_cursor = extent_base + end;
  }
  copy_in(obj, offset, data);
  // Mutations done; no references into objects_ survive the await (the
  // object may be concurrently removed while the I/O is in flight).
  co_await device_->write(extent_base + offset, data.size());
  co_return Status::ok();
}

sim::Task<Result<Bytes>> LocalStore::read(const std::string& name,
                                          std::uint64_t offset,
                                          std::uint64_t length) {
  const auto it = objects_.find(name);
  if (it == objects_.end()) {
    co_return error(StatusCode::kNotFound, "no such object: " + name);
  }
  const Object& obj = it->second;
  if (offset + length > obj.size) {
    co_return error(StatusCode::kOutOfRange, "read past end of " + name);
  }
  // Snapshot the bytes before awaiting the device: the object may be
  // removed by another simulated process while this I/O is in flight.
  Bytes out = copy_out(obj, offset, length);
  const std::uint64_t io_offset = obj.write_cursor - obj.size + offset;
  co_await device_->read(io_offset, length);
  co_return out;
}

Status LocalStore::remove(const std::string& name) {
  const auto it = objects_.find(name);
  if (it == objects_.end()) {
    return error(StatusCode::kNotFound, "no such object: " + name);
  }
  device_->release(it->second.size);
  objects_.erase(it);
  return Status::ok();
}

std::uint64_t LocalStore::object_size(const std::string& name) const {
  const auto it = objects_.find(name);
  return it == objects_.end() ? 0 : it->second.size;
}

void LocalStore::flip_byte(const std::string& name, std::uint64_t index) {
  const auto it = objects_.find(name);
  if (it != objects_.end() && index < it->second.size) {
    byte_at(it->second, index) ^= 0xFF;
  }
}

std::string LocalStore::corrupt_one(const std::string& object,
                                    std::uint64_t selector, CorruptKind kind) {
  std::string target = object;
  if (target.empty()) {
    // Sorted names keep the pick independent of hash-map iteration order.
    std::vector<std::string> names;
    names.reserve(objects_.size());
    for (const auto& [name, obj] : objects_) names.push_back(name);
    if (names.empty()) return {};
    std::sort(names.begin(), names.end());
    target = names[selector % names.size()];
  }
  const auto it = objects_.find(target);
  if (it == objects_.end()) return {};
  Object& obj = it->second;
  // Fault injection is cold: corrupt a flat copy and write it back.
  Bytes flat = copy_out(obj, 0, obj.size);
  if (!apply_corruption(flat, kind, selector)) return {};
  copy_in(obj, 0, flat);
  return target;
}

void LocalStore::wipe() {
  for (const auto& [name, obj] : objects_) {
    device_->release(obj.size);
  }
  objects_.clear();
}

}  // namespace hpcbb::storage
