#include "common/host_pool.h"

#include <algorithm>

namespace hpcbb {

HostPool::HostPool() {
  const unsigned width =
      std::clamp(std::thread::hardware_concurrency(), 1u, kMaxThreads);
  threads_.reserve(width);
  try {
    for (unsigned i = 0; i < width; ++i) {
      threads_.emplace_back([this] { work(); });
    }
  } catch (...) {
    stop();  // join the threads already started before giving up
    throw;
  }
}

HostPool::~HostPool() { stop(); }

void HostPool::stop() {
  std::deque<std::packaged_task<void()>> dropped;
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
    dropped.swap(queue_);
  }
  ready_.notify_all();
  for (std::thread& thread : threads_) thread.join();
  // `dropped` goes last: an unstarted task's handle then wakes with a broken
  // promise instead of running the task against a torn-down owner.
}

void HostPool::work() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mu_);
      ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace hpcbb
