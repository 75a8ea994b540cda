// Data-parallel byte work: one large call to a byte kernel (crc32c,
// pattern_bytes, verify_pattern, gather) cut into parts that the calling
// thread and a process-wide pool of host threads run together.
//
// Each part covers its own range of the caller's buffer, and the call
// returns only after every part has run, so a split call computes exactly
// what the serial one does. The caller takes parts from the same counter as
// the pool's threads and waits only for parts a pool thread has already
// started: when every pool thread is busy the caller runs every part itself,
// at serial speed, and a call made from a pool thread cannot deadlock.
//
// This pool is not mapred::JobRunner's HostPool (DESIGN.md §17): that one
// runs long map and reduce tasks, and a 1 MiB checksum must never wait
// behind a reduce.
//
// Beside it, a short list of spare buffers lets a large read fill pages a
// finished read left resident (take_buffer, give_back).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.h"

namespace hpcbb {

// crc32c splits from this many bytes up.
inline constexpr std::size_t kSplitCrcBytes = 512 * KiB;
// pattern_bytes, verify_pattern and gather split from this many bytes up.
inline constexpr std::size_t kSplitBytes = 1 * MiB;
// A split call is cut into one part per kSplitPartBytes, at most
// kMaxSplitParts, each but the last the same multiple of kSplitAlign long:
// more parts than threads, so a pool thread that wakes late takes fewer.
inline constexpr std::size_t kSplitPartBytes = 128 * KiB;
inline constexpr std::size_t kMaxSplitParts = 16;
inline constexpr std::size_t kSplitAlign = 4 * KiB;

// Bytes [begin, end) of a split call's buffer.
struct SplitRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
};

// The number of parts a call over `n` bytes is cut into (at least one).
std::size_t split_parts(std::size_t n) noexcept;

// Part `i` of `n` bytes cut into `parts`: every part but the last is
// ceil(n / parts) rounded up to kSplitAlign long. Each part is non-empty
// when parts == split_parts(n).
SplitRange split_range(std::size_t n, std::size_t parts,
                       std::size_t i) noexcept;

// Threads of the byte pool, which the first call creates:
// hardware_concurrency() capped at HostPool::kMaxThreads, less one for the
// caller, or fewer if some could not start. 0 on a one-core host.
unsigned byte_pool_threads() noexcept;

namespace byte_pool_detail {
using PartFn = void (*)(void* context, std::size_t part) noexcept;
bool run(std::size_t parts, PartFn fn, void* context) noexcept;
}  // namespace byte_pool_detail

// Runs part(i, split_range(n, parts, i)) for every part i of `n` bytes
// cut into parts = split_parts(n), on the calling thread and the byte
// pool's threads, and returns true once every part has returned. Returns
// false, having run no part, when the pool has no thread or cannot take
// the call; the caller then does the work its serial way. `part` must not
// throw.
template <typename F>
bool split_run(std::size_t n, F& part) noexcept {
  struct Call {
    std::size_t n;
    std::size_t parts;
    F* part;
  };
  Call call{n, split_parts(n), &part};
  return byte_pool_detail::run(
      call.parts,
      [](void* context, std::size_t i) noexcept {
        const Call& c = *static_cast<const Call*>(context);
        (*c.part)(i, split_range(c.n, c.parts, i));
      },
      &call);
}

// `size` zero bytes in a fresh buffer. From kSplitBytes up, the byte pool
// first faults its pages in writable, part by part, so the first-touch
// faults are taken on several cores; the zero-fill itself stays on the
// caller. A kernel that cannot (MADV_POPULATE_WRITE needs Linux 5.14) leaves
// the faults to the zero-fill, as for a smaller buffer.
std::vector<std::uint8_t> split_zeroed(std::size_t size);

// Spare buffers: a process-wide list of large buffers whose pages are
// already resident, so a read that builds a fresh result of kSplitBytes or
// more can fill one instead of faulting and zero-filling new pages
// (DESIGN.md §17). The list holds at most kMaxSpares buffers.
inline constexpr std::size_t kMaxSpares = 16;

// `size` bytes in a buffer the caller overwrites whole. From kSplitBytes
// up, a spare of size..2*size bytes truncated to `size`: its bytes are
// stale, not zero. Otherwise, and when no spare fits, split_zeroed(size).
std::vector<std::uint8_t> take_buffer(std::size_t size);

// An empty buffer with capacity for `size` bytes, to insert into: a spare
// that take_buffer would return, cleared, or else a fresh reserve(size),
// which zero-fills nothing.
std::vector<std::uint8_t> take_reserved(std::size_t size);

// Keeps `buffer` as a spare if it holds kSplitBytes or more and the list
// has room; frees it otherwise.
void give_back(std::vector<std::uint8_t>&& buffer) noexcept;

// Frees every spare.
void drop_spares() noexcept;

// The number of spares held now.
std::size_t spare_count() noexcept;

// Calls to take_buffer and take_reserved of kSplitBytes or more served
// from a spare, and served fresh, since the process started.
std::uint64_t buffer_reuses() noexcept;
std::uint64_t buffer_fresh() noexcept;

}  // namespace hpcbb
