// A fixed pool of host threads for pure computation that overlaps the
// simulation thread's own work.
//
// The simulation is single-threaded and deterministic. Work it hands to the
// pool must touch nothing the simulation reads until the caller joins the
// result: the join is where the result enters simulated time, so where and
// when a task ran on the host cannot change any simulated outcome.
#pragma once

#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace hpcbb {

// The result of one pooled task. join() waits for it and returns its value
// or rethrows its exception. Destroying an unjoined handle also waits, so
// whatever the task reads or writes outlives it as long as the handle is
// declared after those objects (a coroutine frame torn down mid-run, say).
template <typename T>
class HostTask {
 public:
  explicit HostTask(std::future<T> future) noexcept
      : future_(std::move(future)) {}
  HostTask(HostTask&&) noexcept = default;
  HostTask& operator=(HostTask&&) = delete;
  HostTask(const HostTask&) = delete;
  HostTask& operator=(const HostTask&) = delete;
  ~HostTask() {
    if (future_.valid()) future_.wait();
  }

  T join() { return future_.get(); }

 private:
  std::future<T> future_;
};

class HostPool {
 public:
  // At most this many threads, whatever the host offers: each running task
  // holds its own scratch, so the width bounds the memory in flight.
  static constexpr unsigned kMaxThreads = 4;

  // hardware_concurrency() capped at kMaxThreads; at least one.
  HostPool();
  ~HostPool();  // drops tasks not yet started, then joins every thread

  HostPool(const HostPool&) = delete;
  HostPool& operator=(const HostPool&) = delete;

  template <typename F>
  HostTask<std::invoke_result_t<F&>> submit(F fn) {
    std::packaged_task<std::invoke_result_t<F&>()> task(std::move(fn));
    HostTask<std::invoke_result_t<F&>> handle(task.get_future());
    {
      std::lock_guard lock(mu_);
      queue_.emplace_back(std::move(task));
    }
    ready_.notify_one();
    return handle;
  }

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

 private:
  void work();
  void stop();  // the destructor, also run by a constructor that throws

  std::mutex mu_;
  std::condition_variable ready_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace hpcbb
