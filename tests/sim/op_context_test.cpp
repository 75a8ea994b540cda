// The ambient causal op: Simulation::current_op() follows each simulated
// task through co_await, spawn, parallel_collect, delays, condition waits,
// cancellable wakeups, and nested OpScopes, while other tasks under other
// ops run in between.
#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/simulation.h"
#include "sim/sync.h"

namespace hpcbb::sim {
namespace {

using Ops = std::vector<std::uint64_t>;

Task<std::uint64_t> op_after_delay(Simulation& sim, SimTime delay_ns) {
  co_await sim.delay(delay_ns);
  co_return sim.current_op();
}

TEST(OpContextTest, NoOpOutsideAnyScope) {
  Simulation sim;
  std::uint64_t seen = ~std::uint64_t{0};
  sim.spawn([](Simulation& s, std::uint64_t& out) -> Task<void> {
    out = co_await op_after_delay(s, 5);
  }(sim, seen));
  sim.run();
  EXPECT_EQ(seen, 0u);
  EXPECT_EQ(sim.current_op(), 0u);
}

TEST(OpContextTest, ScopeBeginsFreshOpsAndRestoresThePrevious) {
  Simulation sim;
  {
    OpScope first(sim);
    EXPECT_EQ(sim.current_op(), 1u);
    {
      OpScope second(sim);
      EXPECT_EQ(sim.current_op(), 2u);
      OpScope adopted(sim, 40);
      EXPECT_EQ(sim.current_op(), 40u);
    }
    EXPECT_EQ(sim.current_op(), 1u);
  }
  EXPECT_EQ(sim.current_op(), 0u);
  EXPECT_EQ(sim.next_op_id(), 3u);
}

TEST(OpContextTest, InheritedThroughCoAwait) {
  struct Chain {
    static Task<std::uint64_t> run(Simulation& sim, int depth) {
      if (depth == 0) co_return co_await op_after_delay(sim, 1);
      co_return co_await run(sim, depth - 1);
    }
  };
  Simulation sim;
  Ops seen;
  sim.spawn([](Simulation& s, Ops& out) -> Task<void> {
    OpScope op(s, 7);
    out.push_back(co_await Chain::run(s, 100));
    out.push_back(s.current_op());
  }(sim, seen));
  sim.run();
  EXPECT_EQ(seen, (Ops{7, 7}));
}

TEST(OpContextTest, SurvivesDelaysWhileOtherOpsRunInBetween) {
  Simulation sim;
  std::vector<Ops> seen(3);
  for (std::uint64_t task = 0; task < 3; ++task) {
    sim.spawn([](Simulation& s, std::uint64_t op, Ops& out) -> Task<void> {
      OpScope scope(s, op);
      for (SimTime step = 0; step < 4; ++step) {
        co_await s.delay(1 + (op + step) % 3);
        out.push_back(s.current_op());
      }
    }(sim, task * 10, seen[task]));
  }
  sim.run();
  EXPECT_EQ(seen[0], (Ops{0, 0, 0, 0}));
  EXPECT_EQ(seen[1], (Ops{10, 10, 10, 10}));
  EXPECT_EQ(seen[2], (Ops{20, 20, 20, 20}));
}

TEST(OpContextTest, ConditionWaiterWakesUnderItsOwnOp) {
  Simulation sim;
  Condition cond(sim);
  bool ready = false;
  Ops waiter_ops;
  std::uint64_t notifier_op = 0;
  for (const std::uint64_t op : {5u, 6u}) {
    sim.spawn([](Simulation& s, Condition& c, bool& r, std::uint64_t o,
                 Ops& out) -> Task<void> {
      OpScope scope(s, o);
      while (!r) co_await c.wait();
      out.push_back(s.current_op());
    }(sim, cond, ready, op, waiter_ops));
  }
  sim.spawn([](Simulation& s, Condition& c, bool& r,
               std::uint64_t& out) -> Task<void> {
    OpScope scope(s, 9);
    co_await s.delay(3);
    r = true;
    c.notify_all();
    co_await s.delay(1);
    out = s.current_op();
  }(sim, cond, ready, notifier_op));
  sim.run();
  EXPECT_EQ(waiter_ops, (Ops{5, 6}));
  EXPECT_EQ(notifier_op, 9u);
}

TEST(OpContextTest, ChannelReceiverKeepsItsOp) {
  Simulation sim;
  Channel<int> channel(sim);
  std::uint64_t receiver_op = 0;
  sim.spawn([](Simulation& s, Channel<int>& ch,
               std::uint64_t& out) -> Task<void> {
    OpScope scope(s, 21);
    (void)co_await ch.recv();
    out = s.current_op();
  }(sim, channel, receiver_op));
  sim.spawn([](Simulation& s, Channel<int>& ch) -> Task<void> {
    OpScope scope(s, 22);
    co_await s.delay(2);
    ch.push(1);
  }(sim, channel));
  sim.run();
  EXPECT_EQ(receiver_op, 21u);
}

TEST(OpContextTest, CancellableWakeupRestoresTheOp) {
  struct CancellableDelay {
    Simulation& sim;
    SimTime wake_time;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) {
      (void)sim.schedule_cancellable(wake_time, handle);
    }
    void await_resume() const noexcept {}
  };
  Simulation sim;
  std::uint64_t seen = 0;
  sim.spawn([](Simulation& s, std::uint64_t& out) -> Task<void> {
    OpScope scope(s, 31);
    co_await CancellableDelay{s, 10};
    out = s.current_op();
  }(sim, seen));
  sim.spawn([](Simulation& s) -> Task<void> {
    OpScope scope(s, 32);
    co_await s.delay(5);
  }(sim));
  sim.run();
  EXPECT_EQ(seen, 31u);
}

TEST(OpContextTest, SpawnInheritsTheSpawnersOp) {
  Simulation sim;
  Ops seen;
  sim.spawn([](Simulation& s, Ops& out) -> Task<void> {
    OpScope scope(s, 12);
    s.spawn([](Simulation& s2, Ops& o) -> Task<void> {
      o.push_back(co_await op_after_delay(s2, 4));
    }(s, out));
    {
      OpScope none(s, 0);  // background work started under no op
      s.spawn([](Simulation& s2, Ops& o) -> Task<void> {
        o.push_back(co_await op_after_delay(s2, 8));
      }(s, out));
    }
    co_await s.delay(1);
    out.push_back(s.current_op());
  }(sim, seen));
  sim.run();
  EXPECT_EQ(seen, (Ops{12, 12, 0}));
}

TEST(OpContextTest, ParallelCollectChildrenInherit) {
  Simulation sim;
  Ops seen;
  std::uint64_t parent_op = 0;
  sim.spawn([](Simulation& s, Ops& out, std::uint64_t& parent) -> Task<void> {
    OpScope scope(s);
    parent = s.current_op();
    std::vector<Task<std::uint64_t>> children;
    for (SimTime d = 1; d <= 4; ++d) children.push_back(op_after_delay(s, d));
    out = co_await parallel_collect(s, std::move(children));
  }(sim, seen, parent_op));
  sim.run();
  EXPECT_NE(parent_op, 0u);
  EXPECT_EQ(seen, (Ops(4, parent_op)));
}

TEST(OpContextTest, NestedScopeRestoredAfterSuspendingChild) {
  Simulation sim;
  Ops seen;
  sim.spawn([](Simulation& s, Ops& out) -> Task<void> {
    OpScope outer(s, 3);
    co_await [](Simulation& s2, Ops& o) -> Task<void> {
      {
        OpScope inner(s2, 4);
        co_await s2.delay(2);
        o.push_back(s2.current_op());
      }
      o.push_back(s2.current_op());
      co_await s2.delay(2);
      o.push_back(s2.current_op());
    }(s, out);
    out.push_back(s.current_op());
  }(sim, seen));
  // A rival task under another op wakes between every step above.
  sim.spawn([](Simulation& s) -> Task<void> {
    OpScope rival(s, 50);
    for (int i = 0; i < 5; ++i) co_await s.delay(1);
  }(sim));
  sim.run();
  EXPECT_EQ(seen, (Ops{4, 3, 3, 3}));
}

}  // namespace
}  // namespace hpcbb::sim
