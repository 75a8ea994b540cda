#include "storage/local_store.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace hpcbb::storage {

Bytes& LocalStore::writable(Page& page, std::uint64_t held,
                            std::uint64_t need) {
  if (!page.owned || page.bytes.use_count() != 1) {
    // Copy-on-write: a received slice, or an owned buffer a reader still
    // holds, is never written.
    auto own = std::make_shared<Bytes>();
    own->reserve(need);
    if (held > 0) {
      const std::uint8_t* from = page.bytes->data() + page.offset;
      own->insert(own->end(), from, from + held);
    }
    page = Page{std::move(own), 0, true};
  }
  // The store made this buffer (make_shared<Bytes> above) and holds its
  // only reference: writing through it is defined and seen by no one else.
  Bytes& bytes = const_cast<Bytes&>(*page.bytes);
  if (need > bytes.capacity()) {
    // Widen to what the page must hold, at least doubling, up to a page.
    bytes.reserve(std::min(
        kPageSize, std::max<std::uint64_t>(need, 2 * bytes.capacity())));
  }
  return bytes;
}

namespace {

// kPageSize zero bytes, shared by every page that lies wholly in a gap.
const BytesPtr& zero_page() {
  static const BytesPtr kZeros = make_bytes(Bytes(LocalStore::kPageSize));
  return kZeros;
}

}  // namespace

void LocalStore::put(Object& obj, std::uint64_t offset, const ByteSlice& data) {
  const std::uint64_t end = offset + data.length;
  const std::uint64_t old_size = obj.size;
  const std::uint64_t new_size = std::max(old_size, end);
  obj.pages.resize((new_size + kPageSize - 1) / kPageSize);
  // Page by page from the old end or the write, whichever comes first.
  for (std::uint64_t at = std::min(old_size, offset); at < end;) {
    const std::size_t p = at / kPageSize;
    const std::uint64_t start = p * kPageSize;
    const std::uint64_t len = std::min(kPageSize, new_size - start);
    const std::uint64_t held =
        old_size > start ? std::min(kPageSize, old_size - start) : 0;
    // The write's run in this page, [from, to) from its start; empty (at
    // the page's end) for a page that lies wholly in a gap.
    const std::uint64_t from = std::clamp(offset, start, start + len) - start;
    const std::uint64_t to = std::min(end, start + len) - start;
    if (from == 0 && to == len) {
      // The write fills the page: keep it as a slice of the sender's buffer.
      obj.pages[p] = Page{data.bytes, data.offset + (start - offset), false};
    } else if (held == 0 && from == to) {
      // A new page wholly in the gap, which an out-of-order write usually
      // fills later: zeros nobody owns until a write lands in them.
      obj.pages[p] = Page{zero_page(), 0, false};
    } else {
      Bytes& bytes = writable(obj.pages[p], held, len);
      if (held < from) bytes.insert(bytes.end(), from - held, 0);  // the gap
      if (to > from) {
        const std::uint8_t* src = data.span().data() + (start + from - offset);
        const std::uint64_t overwrite =
            std::min<std::uint64_t>(to, bytes.size()) - from;
        std::memcpy(bytes.data() + from, src, overwrite);
        bytes.insert(bytes.end(), src + overwrite, src + (to - from));
      }
    }
    at = start + len;
  }
  obj.size = new_size;
}

std::vector<ByteSlice> LocalStore::slices(const Object& obj,
                                          std::uint64_t offset,
                                          std::uint64_t length) {
  std::vector<ByteSlice> out;
  out.reserve((length + kPageSize - 1) / kPageSize + 1);
  while (length > 0) {
    const std::uint64_t within = offset % kPageSize;
    const std::uint64_t n = std::min(length, kPageSize - within);
    const Page& page = obj.pages[offset / kPageSize];
    out.push_back(ByteSlice{page.bytes, page.offset + within, n});
    offset += n;
    length -= n;
  }
  return out;
}

sim::Task<Status> LocalStore::append(std::string name, ByteSlice data) {
  if (Status st = device_->reserve(data.length); !st.is_ok()) co_return st;

  auto [it, inserted] = objects_.try_emplace(std::move(name));
  Object& obj = it->second;
  if (inserted) {
    // Lay the object out at a fresh extent; appends within an object are
    // sequential, distinct objects land at different extents.
    obj.write_cursor = next_extent_;
    next_extent_ += 256 * MiB;
  }
  put(obj, obj.size, data);

  // All map mutation happens before the device await: the object may be
  // removed by another simulated process while this I/O is in flight, and
  // references into objects_ must not be touched afterwards.
  const std::uint64_t io_offset = obj.write_cursor;
  obj.write_cursor += data.length;
  co_await device_->write(io_offset, data.length);
  co_return Status::ok();
}

sim::Task<Status> LocalStore::write_at(std::string name, std::uint64_t offset,
                                       ByteSlice data) {
  auto [it, inserted] = objects_.try_emplace(std::move(name));
  Object& obj = it->second;
  if (inserted) {
    obj.write_cursor = next_extent_;
    next_extent_ += 256 * MiB;
    // write_cursor tracks the extent base + logical size for append();
    // keep it consistent with the grown size below.
  }
  const std::uint64_t extent_base = obj.write_cursor - obj.size;
  const std::uint64_t end = offset + data.length;
  if (end > obj.size) {
    if (Status st = device_->reserve(end - obj.size); !st.is_ok()) {
      co_return st;
    }
    obj.write_cursor = extent_base + end;
  }
  put(obj, offset, data);
  // Mutations done; no references into objects_ survive the await (the
  // object may be concurrently removed while the I/O is in flight).
  co_await device_->write(extent_base + offset, data.length);
  co_return Status::ok();
}

sim::Task<Result<std::vector<ByteSlice>>> LocalStore::read(
    std::string name, std::uint64_t offset, std::uint64_t length) {
  const auto it = objects_.find(name);
  if (it == objects_.end()) {
    co_return error(StatusCode::kNotFound, "no such object: " + name);
  }
  const Object& obj = it->second;
  if (offset + length > obj.size) {
    co_return error(StatusCode::kOutOfRange, "read past end of " + name);
  }
  // Take the slices before awaiting the device: the object may be removed
  // or rewritten by another simulated process while this I/O is in flight,
  // and copy-on-write keeps what they see as it is now.
  std::vector<ByteSlice> out = slices(obj, offset, length);
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
  if (it == objects_.end() || index >= it->second.size) return;
  Object& obj = it->second;
  const std::size_t p = index / kPageSize;
  const std::uint64_t len = std::min(kPageSize, obj.size - p * kPageSize);
  writable(obj.pages[p], len, len)[index % kPageSize] ^= 0xFF;
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
  // Fault injection is cold: corrupt a flat copy and put it back as the
  // object's pages. The copy is this store's alone, so no other holder of
  // the old pages sees the damage.
  Bytes flat = gather(slices(obj, 0, obj.size));
  if (!apply_corruption(flat, kind, selector)) return {};
  put(obj, 0, whole(make_bytes(std::move(flat))));
  return target;
}

void LocalStore::wipe() {
  for (const auto& [name, obj] : objects_) {
    device_->release(obj.size);
  }
  objects_.clear();
}

}  // namespace hpcbb::storage
