// Task<T>: lazy coroutine task for the discrete-event simulator.
//
// Semantics:
//  * A Task does not run until awaited (or handed to Simulation::spawn).
//  * `co_await task` starts the child inline (same simulated instant); when
//    the child finishes, the parent resumes inline. Both hand-offs return to
//    the trampoline in detail::resume() instead of calling the next frame,
//    so a deep await chain never deepens the stack, whether or not the
//    compiler turns symmetric transfer into a tail call.
//  * The Task object owns the coroutine frame; destroying an un-awaited or
//    suspended Task destroys the frame (recursively destroying nested tasks).
//  * A Task may be awaited at most once.
//
// The whole simulation is single-threaded: no atomics or locks are needed.
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <utility>
#include <variant>

namespace hpcbb::sim {

template <typename T>
class Task;

namespace detail {

// The frame to run once the current one suspends: the trampoline's slot.
inline thread_local std::coroutine_handle<> next_frame;

// Resumes `handle`, then every frame it hands control to, one at a time.
inline void resume(std::coroutine_handle<> handle) {
  while (handle) {
    handle.resume();
    handle = std::exchange(next_frame, nullptr);
  }
}

template <typename T>
class TaskPromiseBase {
 public:
  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    void await_suspend(std::coroutine_handle<Promise> h) noexcept {
      next_frame = h.promise().continuation_;
    }
    void await_resume() const noexcept {}
  };

  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept {
    exception_ = std::current_exception();
  }

  void set_continuation(std::coroutine_handle<> continuation) noexcept {
    continuation_ = continuation;
  }

  void rethrow_if_exception() {
    if (exception_) std::rethrow_exception(exception_);
  }

 private:
  std::coroutine_handle<> continuation_;
  std::exception_ptr exception_;
};

template <typename T>
class TaskPromise final : public TaskPromiseBase<T> {
 public:
  Task<T> get_return_object() noexcept;

  void return_value(T value) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    value_.template emplace<1>(std::move(value));
  }

  T take_value() {
    this->rethrow_if_exception();
    assert(value_.index() == 1 && "task completed without a value");
    return std::get<1>(std::move(value_));
  }

 private:
  std::variant<std::monostate, T> value_;
};

template <>
class TaskPromise<void> final : public TaskPromiseBase<void> {
 public:
  Task<void> get_return_object() noexcept;

  void return_void() noexcept {}
  void take_value() { rethrow_if_exception(); }
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::TaskPromise<T>;
  using handle_type = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(handle_type handle) noexcept : handle_(handle) {}

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return handle_ != nullptr; }
  [[nodiscard]] bool done() const noexcept { return handle_ && handle_.done(); }

  // Awaiter: starts the child and resumes the parent when it completes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      handle_type handle;
      bool await_ready() const noexcept { return !handle || handle.done(); }
      void await_suspend(std::coroutine_handle<> continuation) noexcept {
        handle.promise().set_continuation(continuation);
        detail::next_frame = handle;
      }
      T await_resume() { return handle.promise().take_value(); }
    };
    return Awaiter{handle_};
  }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  handle_type handle_;
};

namespace detail {

template <typename T>
Task<T> TaskPromise<T>::get_return_object() noexcept {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void> TaskPromise<void>::get_return_object() noexcept {
  return Task<void>(
      std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace hpcbb::sim
