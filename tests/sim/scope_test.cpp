// Task scopes: cancelling a sim::Scope unwinds its members at their next
// wakeup (a delay, a Condition wakeup, or their first run), hands a
// notify_one() a dead waiter was given on to the next waiter, never cuts an
// unscoped RPC handler short, and adds no simulator event.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/rpc.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace hpcbb::sim {
namespace {

// Counts live instances, so a test can see a frame's locals destroyed.
struct Live {
  explicit Live(int& count) : count_(&count) { ++*count_; }
  ~Live() { --*count_; }
  Live(const Live&) = delete;
  Live& operator=(const Live&) = delete;

 private:
  int* count_;
};

Task<void> tick_forever(Simulation& sim, SimTime period, int& ticks,
                        int& live) {
  Live guard(live);
  for (;;) {
    co_await sim.delay(period);
    ++ticks;
  }
}

TEST(ScopeTest, CancelDuringDelayUnwindsAtTheScheduledWakeup) {
  Simulation sim;
  Scope& scope = sim.open_scope();
  int ticks = 0;
  int live = 0;
  {
    InScope in(sim, &scope);
    sim.spawn(tick_forever(sim, 10, ticks, live));
  }
  EXPECT_EQ(sim.current_scope(), nullptr);
  sim.spawn([](Simulation& s, Scope& sc) -> Task<void> {
    co_await s.delay(15);
    sc.cancel();
  }(sim, scope));
  sim.run();
  EXPECT_EQ(ticks, 1);     // woke at 10; the wakeup at 20 unwound
  EXPECT_EQ(live, 0);      // RAII ran on the way out
  EXPECT_EQ(sim.now(), 20u);
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(ScopeTest, CancelDuringConditionWaitHandsTheWakeupToTheNextWaiter) {
  Simulation sim;
  Scope& scope = sim.open_scope();
  Channel<int> channel(sim);
  std::vector<SimTime> dead_got;
  std::vector<SimTime> live_got;  // when each item arrived
  auto receiver = [](Simulation& s, Channel<int>& ch,
                     std::vector<SimTime>& out) -> Task<void> {
    for (;;) {
      (void)co_await ch.recv();
      out.push_back(s.now());
    }
  };
  {
    InScope in(sim, &scope);
    sim.spawn(receiver(sim, channel, dead_got));  // first in line
  }
  sim.spawn(receiver(sim, channel, live_got));
  sim.spawn([](Simulation& s, Scope& sc, Channel<int>& ch) -> Task<void> {
    co_await s.delay(5);
    sc.cancel();
    ch.push(1);  // notify_one picks the cancelled receiver first
    co_await s.delay(5);
    ch.push(2);
  }(sim, scope, channel));
  sim.run();
  EXPECT_TRUE(dead_got.empty());
  EXPECT_EQ(live_got, (std::vector<SimTime>{5, 10}));  // item 1 not stranded
  EXPECT_EQ(channel.size(), 0u);
}

TEST(ScopeTest, NotifyAllIsNotHandedOn) {
  Simulation sim;
  Scope& scope = sim.open_scope();
  Condition cond(sim);
  int woken = 0;
  auto waiter = [](Condition& c, int& out) -> Task<void> {
    co_await c.wait();
    ++out;
  };
  {
    InScope in(sim, &scope);
    sim.spawn(waiter(cond, woken));
  }
  sim.spawn(waiter(cond, woken));
  sim.spawn([](Simulation& s, Scope& sc, Condition& c) -> Task<void> {
    co_await s.delay(1);
    sc.cancel();
    c.notify_all();
  }(sim, scope, cond));
  sim.run();
  EXPECT_EQ(woken, 1);
  // Spawns, the delay, and one wakeup per waiter: nothing handed on.
  EXPECT_EQ(sim.events_processed(), 3u + 1u + 2u);
}

struct Request {
  [[nodiscard]] std::uint64_t wire_size() const { return 64; }
};
struct Reply {
  [[nodiscard]] std::uint64_t wire_size() const { return 64; }
};

struct Rig {
  Simulation sim;
  net::Fabric fabric{sim, 2, net::FabricParams{}};
  net::Transport transport{fabric,
                           net::transport_preset(net::TransportKind::kRdma)};
  net::RpcHub hub{transport};
};

// A handler that takes 100 us of server time, then records that it ran.
Task<net::RpcResponse> slow_handler(Simulation& sim, bool& finished) {
  co_await sim.delay(100'000);
  finished = true;
  co_return net::rpc_ok(std::make_shared<Reply>());
}

void bind_slow_handler(Rig& rig, bool& finished) {
  rig.hub.bind(1, 9000, net::typed_handler<Request>(
      [&rig, &finished](std::shared_ptr<const Request>) {
        return slow_handler(rig.sim, finished);
      }));
}

Task<void> call_slow_handler(Rig& rig, bool& returned, Status& status) {
  auto req = std::make_shared<const Request>();
  auto result = co_await rig.hub.call<Reply>(0, 1, 9000, req);
  returned = true;
  status = result.status();
}

TEST(ScopeTest, InlineRpcToAnUnscopedServerFinishesTheHandler) {
  Rig rig;
  Scope& scope = rig.sim.open_scope();
  bool finished = false;
  bool returned = false;
  Status status;
  bind_slow_handler(rig, finished);
  {
    InScope in(rig.sim, &scope);
    rig.sim.spawn(call_slow_handler(rig, returned, status));
  }
  rig.sim.spawn([](Simulation& s, Scope& sc) -> Task<void> {
    co_await s.delay(50'000);  // the handler is mid-way through its work
    sc.cancel();
  }(rig.sim, scope));
  rig.sim.run();
  EXPECT_TRUE(finished);   // the server's handler ran to the end
  EXPECT_FALSE(returned);  // only the caller unwound
  EXPECT_EQ(rig.sim.live_processes(), 0u);
}

TEST(ScopeTest, HandlerOfACancelledServerAnswersUnavailable) {
  Rig rig;
  Scope& server = rig.sim.open_scope();
  bool finished = false;
  bool returned = false;
  Status status;
  {
    InScope in(rig.sim, &server);  // bound under the server's scope
    bind_slow_handler(rig, finished);
  }
  rig.sim.spawn(call_slow_handler(rig, returned, status));
  rig.sim.spawn([](Simulation& s, Scope& sc) -> Task<void> {
    co_await s.delay(50'000);
    sc.cancel();  // the server crashes mid-call
  }(rig.sim, server));
  rig.sim.run();
  EXPECT_FALSE(finished);
  EXPECT_TRUE(returned);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST(ScopeTest, UnwindRestoresThePreviousOp) {
  Simulation sim;
  Scope& scope = sim.open_scope();
  std::uint64_t op_in_handler = 0;
  std::uint64_t scope_in_handler = 1;
  {
    InScope in(sim, &scope);
    sim.spawn([](Simulation& s, std::uint64_t& op,
                 std::uint64_t& unscoped) -> Task<void> {
      OpScope outer(s, 7);
      try {
        OpScope inner(s, 42);
        co_await s.delay(10);
        op = 1;  // never reached
      } catch (const Cancelled&) {
        op = s.current_op();
        unscoped = s.current_scope() == nullptr ? 0 : 2;
        throw;
      }
    }(sim, op_in_handler, scope_in_handler));
  }
  sim.spawn([](Simulation& s, Scope& sc) -> Task<void> {
    co_await s.delay(5);
    sc.cancel();
  }(sim, scope));
  sim.run();
  EXPECT_EQ(op_in_handler, 7u);
  EXPECT_EQ(scope_in_handler, 2u);  // still inside the cancelled scope
}

TEST(ScopeTest, SpawnedChildrenAreCancelledToo) {
  Simulation sim;
  Scope& scope = sim.open_scope();
  int child_ticks = 0;
  int parallel_ticks = 0;
  int escaped_ticks = 0;
  int live = 0;
  {
    InScope in(sim, &scope);
    sim.spawn([](Simulation& s, int& child, int& par, int& escaped,
                 int& l) -> Task<void> {
      s.spawn(tick_forever(s, 10, child, l));
      {
        InScope unscoped(s, nullptr);  // not a member: keeps running
        s.spawn([](Simulation& s2, int& out) -> Task<void> {
          for (int i = 0; i < 5; ++i) {
            co_await s2.delay(10);
            ++out;
          }
        }(s, escaped));
      }
      std::vector<Task<void>> tasks;
      tasks.push_back(tick_forever(s, 10, par, l));
      tasks.push_back(tick_forever(s, 10, par, l));
      co_await parallel(s, std::move(tasks));
    }(sim, child_ticks, parallel_ticks, escaped_ticks, live));
  }
  sim.spawn([](Simulation& s, Scope& sc) -> Task<void> {
    co_await s.delay(25);
    sc.cancel();
  }(sim, scope));
  sim.run();
  EXPECT_EQ(child_ticks, 2);
  EXPECT_EQ(parallel_ticks, 4);
  EXPECT_EQ(escaped_ticks, 5);
  EXPECT_EQ(live, 0);
}

TEST(ScopeTest, SpawnIntoACancelledScopeNeverRuns) {
  Simulation sim;
  Scope& scope = sim.open_scope();
  bool ran = false;
  {
    InScope in(sim, &scope);
    sim.spawn([](bool& out) -> Task<void> {
      out = true;
      co_return;
    }(ran));
  }
  scope.cancel();
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.events_processed(), 1u);
}

// The same program twice: once members retire by a cancelled scope, once
// by checking a flag after every wakeup and handing a received item back,
// the way workers retired before scopes existed. Both consume the same
// simulator events.
struct TwinResult {
  std::uint64_t events = 0;
  SimTime end = 0;
  int ticks = 0;
  std::vector<int> live_got;
};

TwinResult run_twin(bool use_scope) {
  Simulation sim;
  Scope& scope = sim.open_scope();
  Channel<int> channel(sim);
  bool stop = false;
  TwinResult out;
  {
    InScope in(sim, use_scope ? &scope : nullptr);
    sim.spawn([](Simulation& s, const bool& st, int& ticks) -> Task<void> {
      for (;;) {
        co_await s.delay(5);
        if (st) co_return;
        ++ticks;
      }
    }(sim, stop, out.ticks));
    sim.spawn([](Channel<int>& ch, const bool& st) -> Task<void> {
      for (;;) {
        int v = co_await ch.recv();
        if (st) {
          ch.push(v);  // hand it back to a live receiver
          co_return;
        }
      }
    }(channel, stop));
  }
  sim.spawn([](Channel<int>& ch, std::vector<int>& got) -> Task<void> {
    for (;;) got.push_back(co_await ch.recv());
  }(channel, out.live_got));
  sim.spawn([](Simulation& s, Scope& sc, bool scoped, bool& st,
               Channel<int>& ch) -> Task<void> {
    co_await s.delay(12);
    if (scoped) {
      sc.cancel();
    } else {
      st = true;
    }
    co_await s.delay(3);
    ch.push(1);
    co_await s.delay(1);
    ch.push(2);
  }(sim, scope, use_scope, stop, channel));
  sim.run();
  out.events = sim.events_processed();
  out.end = sim.now();
  return out;
}

TEST(ScopeTest, EventsMatchATwinThatRetiresOnAFlag) {
  const TwinResult scoped = run_twin(true);
  const TwinResult flagged = run_twin(false);
  EXPECT_EQ(scoped.events, flagged.events);
  EXPECT_EQ(scoped.end, flagged.end);
  EXPECT_EQ(scoped.ticks, 2);
  EXPECT_EQ(flagged.ticks, 2);
  EXPECT_EQ(scoped.live_got, (std::vector<int>{1, 2}));
  EXPECT_EQ(flagged.live_got, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace hpcbb::sim
