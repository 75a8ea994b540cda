// Discrete-event simulation core.
//
// Events are coroutine resumptions ordered by (time, insertion sequence):
// equal-time events run in FIFO order, making every run bit-reproducible.
// All wakeups (timers, condition notifications) go through the event queue —
// nothing resumes a foreign coroutine inline — so no simulated actor can
// observe a half-completed action of another.
//
// The simulation also keeps the causal op id of the task it is running
// (`current_op()`, 0 = none). Every wakeup restores the op its task had when
// it suspended, a child started by co_await or spawn() inherits its
// parent's, and an OpScope begins or adopts one.
#pragma once

#include <coroutine>
#include <cstdint>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "sim/task.h"

namespace hpcbb::sim {

using SimTime = std::uint64_t;  // nanoseconds since simulation start

class TraceRecorder;

class Simulation {
 public:
  Simulation() = default;
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  // Schedule a raw coroutine resumption that runs under causal op `op`.
  // Used by awaitables; application code uses delay()/spawn() and the sync
  // primitives.
  void schedule_at(SimTime time, std::coroutine_handle<> handle,
                   std::uint64_t op);

  // Like schedule_at under the current op, but the returned token can
  // cancel the wakeup before it fires. A cancelled event is discarded
  // unprocessed when its turn comes: it does not advance simulated time,
  // count as a processed event, or resume the (possibly long-gone)
  // coroutine. Periodic actors use this so stopping them does not drag the
  // clock past quiescence.
  [[nodiscard]] std::uint64_t schedule_cancellable(
      SimTime time, std::coroutine_handle<> handle);

  // Cancel a pending cancellable wakeup. Returns false if the token already
  // fired or was already cancelled.
  bool cancel(std::uint64_t token);

  // Awaitable: suspend the current task for `delay_ns` simulated nanoseconds.
  auto delay(SimTime delay_ns) noexcept {
    struct Awaiter {
      Simulation& sim;
      SimTime wake_time;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> handle) {
        sim.schedule_at(wake_time, handle, sim.current_op_);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, now_ + delay_ns};
  }

  // Awaitable: suspend until the given absolute simulated time (which must
  // not be in the past).
  auto delay_until(SimTime wake_time) noexcept {
    return delay(wake_time > now_ ? wake_time - now_ : 0);
  }

  // Launch a detached task ("process"). The simulation owns its frame: it is
  // destroyed when the task completes, or at simulation teardown if it is
  // still blocked (e.g. a server loop waiting for requests).
  void spawn(Task<void> task);

  // Run until the event queue is exhausted. Tasks blocked on conditions that
  // can never fire again simply stay suspended (normal for server loops).
  void run();

  // Run until simulated `deadline`; events after it remain queued.
  void run_until(SimTime deadline);

  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return events_processed_;
  }
  [[nodiscard]] std::size_t live_processes() const noexcept {
    return roots_.size();
  }

  // Shared metric registry for all components built on this simulation.
  MetricRegistry& metrics() noexcept { return metrics_; }

  // Optional shared trace recorder. Components reach it through their
  // simulation handle instead of each growing a set_trace(); null (the
  // default) keeps tracing zero-cost.
  void set_trace(TraceRecorder* trace) noexcept { trace_ = trace; }
  [[nodiscard]] TraceRecorder* trace() const noexcept { return trace_; }

  // Fresh causal operation id (nonzero, unique per simulation). Tags the
  // trace spans of one logical operation across layers.
  [[nodiscard]] std::uint64_t next_op_id() noexcept { return ++next_op_id_; }
  // The causal op of the running task; 0 = unattributed.
  [[nodiscard]] std::uint64_t current_op() const noexcept {
    return current_op_;
  }

 private:
  friend class OpScope;

  struct RootTask {
    struct promise_type {
      Simulation* sim = nullptr;
      std::uint64_t id = 0;

      RootTask get_return_object() noexcept {
        return RootTask{
            std::coroutine_handle<promise_type>::from_promise(*this)};
      }
      std::suspend_always initial_suspend() noexcept { return {}; }

      struct FinalAwaiter {
        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
          // The root finished: unregister and destroy the whole frame chain.
          h.promise().sim->finish_root(h.promise().id);
        }
        void await_resume() const noexcept {}
      };
      FinalAwaiter final_suspend() noexcept { return {}; }
      void return_void() noexcept {}
      [[noreturn]] void unhandled_exception() noexcept;
    };

    std::coroutine_handle<promise_type> handle;
  };

  static RootTask make_root(Task<void> task);
  void finish_root(std::uint64_t id) noexcept;

  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::coroutine_handle<> handle;
    std::uint64_t op;

    bool operator>(const Event& other) const noexcept {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_op_id_ = 0;
  std::uint64_t current_op_ = 0;
  TraceRecorder* trace_ = nullptr;
  std::uint64_t next_root_id_ = 0;
  std::uint64_t events_processed_ = 0;
  // Pops the next runnable event, skipping cancelled ones. Returns false
  // when the queue is exhausted or the next event is past `deadline`.
  bool pop_next(SimTime deadline, Event& out);
  void process(const Event& event);

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  // Seq numbers of cancelled-but-still-queued events (erased when popped).
  std::unordered_set<std::uint64_t> cancelled_;
  // Cancellable tokens that have neither fired nor been cancelled yet.
  std::unordered_set<std::uint64_t> cancellable_pending_;
  std::unordered_map<std::uint64_t, std::coroutine_handle<>> roots_;
  MetricRegistry metrics_;
};

// RAII causal op: makes a fresh op (or a stored one, e.g. a queued block's)
// the current op, and restores the previous one when it ends. Held across a
// suspension, it stays in force for its task alone.
class [[nodiscard]] OpScope {
 public:
  explicit OpScope(Simulation& sim) : OpScope(sim, sim.next_op_id()) {}
  OpScope(Simulation& sim, std::uint64_t op) noexcept
      : sim_(&sim), saved_(std::exchange(sim.current_op_, op)) {}
  ~OpScope() { sim_->current_op_ = saved_; }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  Simulation* sim_;
  std::uint64_t saved_;
};

}  // namespace hpcbb::sim
