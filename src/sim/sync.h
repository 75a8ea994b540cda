// Synchronization primitives for simulated processes: Condition, Event,
// Channel, Semaphore, BandwidthQueue, and fork/join combinators.
//
// All wakeups are funneled through the simulation event queue at the current
// instant (never inline resumption), so waiters observe a consistent world
// and equal-time ordering stays deterministic. Waits are loop-based
// ("spurious wakeup" style), which makes every primitive trivially correct
// under multi-waiter contention.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <optional>
#include <memory>
#include <vector>

#include "sim/simulation.h"
#include "sim/task.h"

namespace hpcbb::sim {

// A broadcast/one-shot wakeup source. wait() must always be used in a loop
// that re-checks the guarded predicate.
class Condition {
 public:
  explicit Condition(Simulation& sim) noexcept : sim_(&sim) {}

  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  // The waiter wakes under its own op, not the notifier's.
  auto wait() noexcept {
    struct Awaiter {
      Condition& cond;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> handle) {
        cond.waiters_.push_back({handle, cond.sim_->current_op()});
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void notify_one() {
    if (waiters_.empty()) return;
    const Waiter waiter = waiters_.front();
    waiters_.pop_front();
    sim_->schedule_at(sim_->now(), waiter.handle, waiter.op);
  }

  void notify_all() {
    while (!waiters_.empty()) notify_one();
  }

  [[nodiscard]] std::size_t waiter_count() const noexcept {
    return waiters_.size();
  }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    std::uint64_t op;
  };

  Simulation* sim_;
  std::deque<Waiter> waiters_;
};

// Latched event: once set, all current and future waiters proceed.
class Event {
 public:
  explicit Event(Simulation& sim) noexcept : cond_(sim) {}

  void set() {
    set_ = true;
    cond_.notify_all();
  }
  [[nodiscard]] bool is_set() const noexcept { return set_; }

  Task<void> wait() {
    while (!set_) co_await cond_.wait();
  }

 private:
  Condition cond_;
  bool set_ = false;
};

// Unbounded MPMC queue of values between simulated processes.
template <typename T>
class Channel {
 public:
  explicit Channel(Simulation& sim) noexcept : not_empty_(sim) {}

  void push(T value) {
    items_.push_back(std::move(value));
    not_empty_.notify_one();
  }

  Task<T> recv() {
    while (items_.empty()) co_await not_empty_.wait();
    T value = std::move(items_.front());
    items_.pop_front();
    co_return value;
  }

  [[nodiscard]] bool try_recv(T& out) {
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }

 private:
  Condition not_empty_;
  std::deque<T> items_;
};

// Counting semaphore; models limited concurrency (CPU cores, disk queue
// depth, task slots).
class Semaphore {
 public:
  Semaphore(Simulation& sim, std::uint64_t permits) noexcept
      : cond_(sim), available_(permits) {}

  Task<void> acquire(std::uint64_t n = 1) {
    while (available_ < n) co_await cond_.wait();
    available_ -= n;
  }

  [[nodiscard]] bool try_acquire(std::uint64_t n = 1) noexcept {
    if (available_ < n) return false;
    available_ -= n;
    return true;
  }

  void release(std::uint64_t n = 1) {
    available_ += n;
    cond_.notify_all();
  }

  [[nodiscard]] std::uint64_t available() const noexcept { return available_; }

 private:
  Condition cond_;
  std::uint64_t available_;
};

// RAII permit for Semaphore.
class [[nodiscard]] SemaphoreGuard {
 public:
  explicit SemaphoreGuard(Semaphore& sem) noexcept : sem_(&sem) {}
  ~SemaphoreGuard() {
    if (sem_) sem_->release(n_);
  }
  SemaphoreGuard(SemaphoreGuard&& o) noexcept
      : sem_(std::exchange(o.sem_, nullptr)), n_(o.n_) {}
  SemaphoreGuard& operator=(SemaphoreGuard&&) = delete;
  SemaphoreGuard(const SemaphoreGuard&) = delete;
  SemaphoreGuard& operator=(const SemaphoreGuard&) = delete;

 private:
  Semaphore* sem_;
  std::uint64_t n_ = 1;
};

// Work-conserving FIFO bandwidth server: each transfer serializes after all
// previously submitted ones (store-and-forward link, disk streaming, NIC).
// The caller observes queueing delay + its own serialization time.
class BandwidthQueue {
 public:
  BandwidthQueue(Simulation& sim, std::uint64_t bytes_per_sec) noexcept
      : sim_(&sim), bytes_per_sec_(bytes_per_sec) {}

  Task<void> transfer(std::uint64_t bytes) {
    const SimTime start = std::max(sim_->now(), next_free_);
    const SimTime done = start + service_time(bytes);
    next_free_ = done;
    busy_ns_ += done - start;
    bytes_moved_ += bytes;
    co_await sim_->delay_until(done);
  }

  [[nodiscard]] SimTime service_time(std::uint64_t bytes) const noexcept {
    return transfer_time(bytes, bytes_per_sec_);
  }

  [[nodiscard]] SimTime busy_ns() const noexcept { return busy_ns_; }
  [[nodiscard]] std::uint64_t bytes_moved() const noexcept {
    return bytes_moved_;
  }
  // Queueing backlog as seen by a transfer submitted now.
  [[nodiscard]] SimTime backlog_ns() const noexcept {
    return next_free_ > sim_->now() ? next_free_ - sim_->now() : 0;
  }

 private:
  static SimTime transfer_time(std::uint64_t bytes,
                               std::uint64_t bytes_per_sec) noexcept {
    if (bytes_per_sec == 0) return 0;
    const std::uint64_t whole = bytes / bytes_per_sec;
    const std::uint64_t rem = bytes % bytes_per_sec;
    return whole * 1'000'000'000ull +
           (rem * 1'000'000'000ull + bytes_per_sec - 1) / bytes_per_sec;
  }

  Simulation* sim_;
  std::uint64_t bytes_per_sec_;
  SimTime next_free_ = 0;
  SimTime busy_ns_ = 0;
  std::uint64_t bytes_moved_ = 0;
};

// ---- fork/join combinators -------------------------------------------------

namespace detail {
struct JoinState {
  explicit JoinState(Simulation& sim) : done(sim) {}
  std::size_t remaining = 0;
  Condition done;
};

inline Task<void> join_wrapper(std::shared_ptr<JoinState> state,
                               Task<void> task) {
  co_await std::move(task);
  if (--state->remaining == 0) state->done.notify_all();
}

template <typename T>
Task<void> join_wrapper_collect(
    std::shared_ptr<JoinState> state,
    std::shared_ptr<std::vector<std::optional<T>>> results, std::size_t index,
    Task<T> task) {
  (*results)[index].emplace(co_await std::move(task));
  if (--state->remaining == 0) state->done.notify_all();
}
}  // namespace detail

// Run all tasks concurrently; complete when every one has completed.
inline Task<void> parallel(Simulation& sim, std::vector<Task<void>> tasks) {
  auto state = std::make_shared<detail::JoinState>(sim);
  state->remaining = tasks.size();
  for (auto& task : tasks) {
    sim.spawn(detail::join_wrapper(state, std::move(task)));
  }
  while (state->remaining != 0) co_await state->done.wait();
}

// Run all tasks concurrently and collect their results (by input order).
template <typename T>
Task<std::vector<T>> parallel_collect(Simulation& sim,
                                      std::vector<Task<T>> tasks) {
  auto state = std::make_shared<detail::JoinState>(sim);
  state->remaining = tasks.size();
  auto results =
      std::make_shared<std::vector<std::optional<T>>>(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    sim.spawn(detail::join_wrapper_collect<T>(state, results, i,
                                              std::move(tasks[i])));
  }
  while (state->remaining != 0) co_await state->done.wait();
  std::vector<T> out;
  out.reserve(results->size());
  for (auto& slot : *results) out.push_back(std::move(*slot));
  co_return out;
}

}  // namespace hpcbb::sim
