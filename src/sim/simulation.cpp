#include "sim/simulation.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <exception>

namespace hpcbb::sim {

Simulation::~Simulation() {
  // Destroy still-suspended processes (server loops blocked on channels).
  // finish_root() mutates roots_, so detach the map first.
  auto roots = std::move(roots_);
  roots_.clear();
  for (auto& [id, handle] : roots) {
    handle.destroy();
  }
}

void Simulation::schedule_at(SimTime time, std::coroutine_handle<> handle,
                             std::uint64_t op, Scope* scope) {
  assert(time >= now_ && "cannot schedule into the simulated past");
  queue_.push(Event{time, next_seq_++, handle, op, scope});
}

std::uint64_t Simulation::schedule_cancellable(SimTime time,
                                              std::coroutine_handle<> handle) {
  assert(time >= now_ && "cannot schedule into the simulated past");
  const std::uint64_t token = next_seq_++;
  queue_.push(Event{time, token, handle, current_op_, current_scope_});
  cancellable_pending_.insert(token);
  return token;
}

bool Simulation::cancel(std::uint64_t token) {
  if (cancellable_pending_.erase(token) == 0) return false;
  // Tombstone; the queue entry is dropped unprocessed when it reaches the
  // front of the queue (seqs are unique, so it can only match once).
  cancelled_.insert(token);
  return true;
}

bool Simulation::pop_next(SimTime deadline, Event& out) {
  while (!queue_.empty() && queue_.top().time <= deadline) {
    const Event event = queue_.top();
    queue_.pop();
    if (!cancelled_.empty() && cancelled_.erase(event.seq) > 0) {
      continue;  // discarded unprocessed: no clock advance, no resume
    }
    if (!cancellable_pending_.empty()) cancellable_pending_.erase(event.seq);
    out = event;
    return true;
  }
  return false;
}

[[noreturn]] void Simulation::RootTask::promise_type::unhandled_exception()
    noexcept {
  // A detached simulated process has no awaiter to propagate to; this is
  // always a bug in simulation code (application errors travel as Status).
  std::fprintf(stderr, "fatal: exception escaped a detached sim process\n");
  std::terminate();
}

Simulation::RootTask Simulation::make_root(Simulation& sim, Task<void> task) {
  try {
    sim.throw_if_cancelled();  // its scope was cancelled before it first ran
    co_await std::move(task);
  } catch (const Cancelled&) {
    // A cancelled scope's member has unwound; it ends here.
  }
}

void Simulation::spawn(Task<void> task) {
  RootTask root = make_root(*this, std::move(task));
  root.handle.promise().sim = this;
  const std::uint64_t id = next_root_id_++;
  root.handle.promise().id = id;
  roots_.emplace(id, root.handle);
  schedule_at(now_, root.handle, current_op_, current_scope_);
}

void Simulation::finish_root(std::uint64_t id) noexcept {
  const auto it = roots_.find(id);
  if (it == roots_.end()) return;  // teardown path already detached it
  const auto handle = it->second;
  roots_.erase(it);
  handle.destroy();
}

void Simulation::process(const Event& event) {
  assert(event.time >= now_);
  now_ = event.time;
  ++events_processed_;
  current_op_ = event.op;
  current_scope_ = event.scope;
  detail::resume(event.handle);
  current_scope_ = nullptr;  // what runs between events spawns unscoped
}

void Simulation::run() {
  Event event{};
  while (pop_next(~SimTime{0}, event)) process(event);
}

void Simulation::run_until(SimTime deadline) {
  Event event{};
  while (pop_next(deadline, event)) process(event);
  now_ = deadline;
}

}  // namespace hpcbb::sim
