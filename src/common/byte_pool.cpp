#include "common/byte_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/host_pool.h"

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace hpcbb {
namespace {

using byte_pool_detail::PartFn;

// One split call. Pool threads hold it by shared_ptr, so a thread that
// reaches it after the call has returned still finds its counters; it
// then finds no part left and never calls `fn`, whose context lives on the
// caller's stack.
struct Job {
  Job(std::size_t parts_in, PartFn fn_in, void* context_in) noexcept
      : parts(parts_in), fn(fn_in), context(context_in) {}

  // Runs parts until none is left to claim.
  void work() noexcept {
    for (std::size_t i; (i = next.fetch_add(1)) < parts;) {
      fn(context, i);
      if (done.fetch_add(1) + 1 == parts) done.notify_all();
    }
  }

  [[nodiscard]] bool claimed() const noexcept { return next.load() >= parts; }

  const std::size_t parts;
  const PartFn fn;
  void* const context;
  std::atomic<std::size_t> next{0};  // the next part to claim
  std::atomic<std::size_t> done{0};  // parts that have returned
};

class BytePool {
 public:
  // Starts as many threads as it can, up to the width; none is no error.
  BytePool() noexcept {
    const unsigned width =
        std::clamp(std::thread::hardware_concurrency(), 1u,
                   HostPool::kMaxThreads) -
        1;
    try {
      threads_.reserve(width);
      for (unsigned i = 0; i < width; ++i) {
        threads_.emplace_back([this] { serve(); });
      }
    } catch (...) {
      // The threads that started serve on; a call runs on fewer of them.
    }
  }

  ~BytePool() {
    {
      std::lock_guard lock(mu_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& thread : threads_) thread.join();
  }

  BytePool(const BytePool&) = delete;
  BytePool& operator=(const BytePool&) = delete;

  [[nodiscard]] unsigned threads() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

  bool run(std::size_t parts, PartFn fn, void* context) noexcept {
    if (threads_.empty()) return false;
    std::shared_ptr<Job> job;
    try {
      job = std::make_shared<Job>(parts, fn, context);
      std::lock_guard lock(mu_);
      jobs_.push_back(job);
    } catch (...) {
      return false;
    }
    wake_.notify_all();
    job->work();
    {
      // Every part is claimed: a thread that has not reached the job yet
      // need not.
      std::lock_guard lock(mu_);
      std::erase(jobs_, job);
    }
    for (std::size_t d = job->done.load(); d != parts; d = job->done.load()) {
      job->done.wait(d);
    }
    return true;
  }

 private:
  void serve() noexcept {
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock lock(mu_);
        wake_.wait(lock, [this] {
          while (!jobs_.empty() && jobs_.front()->claimed()) jobs_.pop_front();
          return stopping_ || !jobs_.empty();
        });
        if (stopping_) return;
        // Left queued: every free thread joins the same call.
        job = jobs_.front();
      }
      job->work();
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;
  std::deque<std::shared_ptr<Job>> jobs_;  // calls with parts unclaimed
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

// Faults in [data, data + n) writable, as a first write would, without
// writing it; a kernel without MADV_POPULATE_WRITE leaves it to that write.
void populate_writable(void* data, std::size_t n) noexcept {
#if defined(__linux__) && defined(MADV_POPULATE_WRITE)
  static const auto kPage = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto at = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t start = at / kPage * kPage;
  (void)madvise(reinterpret_cast<void*>(start), n + (at - start),
                MADV_POPULATE_WRITE);
#else
  (void)data;
  (void)n;
#endif
}

BytePool& pool() noexcept {
  static BytePool kPool;
  return kPool;
}

// The spare list: plain buffers, each kSplitBytes or larger. It reserves
// room for every spare up front, so giving one back never allocates.
struct Spares {
  Spares() { buffers.reserve(kMaxSpares); }

  std::mutex mu;
  std::vector<std::vector<std::uint8_t>> buffers;
  std::atomic<std::uint64_t> reuses{0};
  std::atomic<std::uint64_t> fresh{0};
};

Spares& spares() noexcept {
  static Spares kSpares;
  return kSpares;
}

// The last spare given back that holds size..2*size bytes, taken off the
// list; an empty buffer when none does or `size` is below kSplitBytes.
// Counts the call as a reuse or as fresh.
std::vector<std::uint8_t> take_spare(std::size_t size) {
  if (size < kSplitBytes) return {};
  Spares& s = spares();
  std::vector<std::uint8_t> out;
  {
    std::lock_guard lock(s.mu);
    const auto fits = std::find_if(
        s.buffers.rbegin(), s.buffers.rend(), [size](const auto& buffer) {
          return buffer.size() >= size && buffer.size() - size <= size;
        });
    if (fits != s.buffers.rend()) {
      out = std::move(*fits);
      s.buffers.erase(std::next(fits).base());
    }
  }
  (out.empty() ? s.fresh : s.reuses).fetch_add(1);
  return out;
}

}  // namespace

std::size_t split_parts(std::size_t n) noexcept {
  return std::clamp<std::size_t>(n / kSplitPartBytes, 1, kMaxSplitParts);
}

SplitRange split_range(std::size_t n, std::size_t parts,
                       std::size_t i) noexcept {
  const std::size_t each =
      ((n + parts - 1) / parts + kSplitAlign - 1) / kSplitAlign * kSplitAlign;
  return {std::min(n, i * each), std::min(n, (i + 1) * each)};
}

unsigned byte_pool_threads() noexcept { return pool().threads(); }

bool byte_pool_detail::run(std::size_t parts, PartFn fn,
                           void* context) noexcept {
  return pool().run(parts, fn, context);
}

std::vector<std::uint8_t> split_zeroed(std::size_t size) {
  std::vector<std::uint8_t> out;
  out.reserve(size);
  if (size >= kSplitBytes) {
    auto part = [&out](std::size_t, SplitRange range) noexcept {
      populate_writable(out.data() + range.begin, range.size());
    };
    (void)split_run(size, part);
  }
  out.resize(size);
  return out;
}

std::vector<std::uint8_t> take_buffer(std::size_t size) {
  std::vector<std::uint8_t> out = take_spare(size);
  if (out.empty()) return split_zeroed(size);
  out.resize(size);
  return out;
}

std::vector<std::uint8_t> take_reserved(std::size_t size) {
  std::vector<std::uint8_t> out = take_spare(size);
  out.clear();
  out.reserve(size);
  return out;
}

void give_back(std::vector<std::uint8_t>&& buffer) noexcept {
  if (buffer.size() < kSplitBytes) return;
  std::vector<std::uint8_t> dropped = std::move(buffer);
  Spares& s = spares();
  std::lock_guard lock(s.mu);
  if (s.buffers.size() < kMaxSpares) s.buffers.push_back(std::move(dropped));
}

void drop_spares() noexcept {
  Spares& s = spares();
  std::lock_guard lock(s.mu);
  s.buffers.clear();
}

std::size_t spare_count() noexcept {
  Spares& s = spares();
  std::lock_guard lock(s.mu);
  return s.buffers.size();
}

std::uint64_t buffer_reuses() noexcept { return spares().reuses.load(); }

std::uint64_t buffer_fresh() noexcept { return spares().fresh.load(); }

}  // namespace hpcbb
