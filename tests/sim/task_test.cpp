// Edge cases of the Task<T> coroutine type itself: values, moves,
// exceptions, abandoned tasks, deep chains, move-only results.
#include "sim/task.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "common/units.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace hpcbb::sim {
namespace {

TEST(TaskTest, DefaultConstructedIsInvalid) {
  Task<int> task;
  EXPECT_FALSE(task.valid());
  EXPECT_FALSE(task.done());
}

TEST(TaskTest, MoveTransfersOwnership) {
  auto make = []() -> Task<int> { co_return 7; };
  Task<int> a = make();
  EXPECT_TRUE(a.valid());
  Task<int> b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): intended
  EXPECT_TRUE(b.valid());
}

TEST(TaskTest, AbandonedUnstartedTaskDoesNotLeak) {
  // Created, never awaited, destroyed: the frame must be reclaimed (ASAN
  // builds verify the no-leak part; this at least exercises the path).
  auto make = [](std::shared_ptr<int> tracker) -> Task<int> {
    co_return *tracker;
  };
  auto tracker = std::make_shared<int>(5);
  {
    Task<int> task = make(tracker);
    EXPECT_EQ(tracker.use_count(), 2);  // one copy captured in the frame
  }
  EXPECT_EQ(tracker.use_count(), 1);  // frame destroyed with its params
}

TEST(TaskTest, ExceptionPropagatesToAwaiter) {
  Simulation sim;
  bool caught = false;
  auto thrower = []() -> Task<int> {
    throw std::runtime_error("boom");
    co_return 1;  // unreachable; makes this a coroutine
  };
  sim.spawn([](auto make_thrower, bool& out) -> Task<void> {
    try {
      (void)co_await make_thrower();
    } catch (const std::runtime_error& e) {
      out = std::string(e.what()) == "boom";
    }
  }(thrower, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(TaskTest, ExceptionAfterSuspension) {
  Simulation sim;
  bool caught = false;
  auto thrower = [](Simulation& s) -> Task<void> {
    co_await s.delay(10);
    throw std::runtime_error("late");
  };
  sim.spawn([](Simulation& s, auto make_thrower, bool& out) -> Task<void> {
    try {
      co_await make_thrower(s);
    } catch (const std::runtime_error&) {
      out = true;
    }
  }(sim, thrower, caught));
  sim.run();
  EXPECT_TRUE(caught);
  EXPECT_EQ(sim.now(), 10u);
}

TEST(TaskTest, MoveOnlyResultType) {
  Simulation sim;
  int got = 0;
  auto make = []() -> Task<std::unique_ptr<int>> {
    co_return std::make_unique<int>(99);
  };
  sim.spawn([](auto maker, int& out) -> Task<void> {
    std::unique_ptr<int> p = co_await maker();
    out = *p;
  }(make, got));
  sim.run();
  EXPECT_EQ(got, 99);
}

TEST(TaskTest, DeepSequentialChain) {
  // 10k-deep co_await chain: symmetric transfer must not blow the stack.
  Simulation sim;
  std::uint64_t result = 0;
  // Iterative chain: each level awaits the next via a recursive lambda.
  struct Chain {
    static Task<std::uint64_t> run(int depth) {
      if (depth == 0) co_return 0;
      co_return 1 + co_await run(depth - 1);
    }
  };
  sim.spawn([](std::uint64_t& out) -> Task<void> {
    out = co_await Chain::run(10000);
  }(result));
  sim.run();
  EXPECT_EQ(result, 10000u);
}

// A 10 000-deep await chain whose bottom frame sleeps for 100 ns. Every
// frame holds a counted local, so a test sees each one destroyed.
struct SleepingChain {
  struct Live {
    explicit Live(int& count) : count_(&count) { ++*count_; }
    ~Live() { --*count_; }
    Live(const Live&) = delete;
    Live& operator=(const Live&) = delete;
    int* count_;
  };
  static Task<std::uint64_t> run(Simulation& sim, int depth, int& live,
                                 bool& bottom_woke) {
    Live guard(live);
    if (depth == 0) {
      co_await sim.delay(100);
      bottom_woke = true;
      co_return 0;
    }
    co_return 1 + co_await run(sim, depth - 1, live, bottom_woke);
  }
};

TEST(TaskTest, TeardownOfADeepSuspendedChain) {
  int live = 0;
  bool bottom_woke = false;
  {
    Simulation sim;
    sim.spawn([](Simulation& s, int& l, bool& woke) -> Task<void> {
      (void)co_await SleepingChain::run(s, 10000, l, woke);
    }(sim, live, bottom_woke));
    sim.run_until(50);  // the whole chain is suspended at the bottom delay
    EXPECT_EQ(live, 10001);
  }  // the simulation frees the suspended chain
  EXPECT_EQ(live, 0);
  EXPECT_FALSE(bottom_woke);
}

TEST(TaskTest, CancelUnwindsADeepSuspendedChain) {
  Simulation sim;
  Scope& scope = sim.open_scope();
  int live = 0;
  bool bottom_woke = false;
  bool top_resumed = false;
  {
    InScope in(sim, &scope);
    sim.spawn([](Simulation& s, int& l, bool& woke,
                 bool& resumed) -> Task<void> {
      (void)co_await SleepingChain::run(s, 10000, l, woke);
      resumed = true;
    }(sim, live, bottom_woke, top_resumed));
  }
  sim.run_until(50);
  EXPECT_EQ(live, 10001);
  scope.cancel();
  sim.run();
  EXPECT_EQ(live, 0);  // every frame unwound at the bottom's wakeup
  EXPECT_FALSE(bottom_woke);
  EXPECT_FALSE(top_resumed);
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(TaskTest, ManyConcurrentTasksComplete) {
  Simulation sim;
  int done = 0;
  sim.spawn([](Simulation& s, int& out) -> Task<void> {
    std::vector<Task<int>> tasks;
    for (int i = 0; i < 500; ++i) {
      tasks.push_back([](Simulation& s2, int id) -> Task<int> {
        co_await s2.delay(static_cast<SimTime>(id % 17));
        co_return id;
      }(s, i));
    }
    const std::vector<int> results =
        co_await parallel_collect(s, std::move(tasks));
    int sum = 0;
    for (const int r : results) sum += r;
    out = sum;
  }(sim, done));
  sim.run();
  EXPECT_EQ(done, 500 * 499 / 2);
}

TEST(TaskTest, ParallelCollectPreservesMoveOnlyValues) {
  Simulation sim;
  int sum = 0;
  sim.spawn([](Simulation& s, int& out) -> Task<void> {
    std::vector<Task<std::unique_ptr<int>>> tasks;
    for (int i = 1; i <= 4; ++i) {
      tasks.push_back([](Simulation& s2, int v) -> Task<std::unique_ptr<int>> {
        co_await s2.delay(1);
        co_return std::make_unique<int>(v);
      }(s, i));
    }
    auto results = co_await parallel_collect(s, std::move(tasks));
    for (const auto& p : results) out += *p;
  }(sim, sum));
  sim.run();
  EXPECT_EQ(sum, 10);
}

TEST(TaskTest, VoidTaskCompletes) {
  Simulation sim;
  bool ran = false;
  auto inner = [](bool& flag) -> Task<void> {
    flag = true;
    co_return;
  };
  sim.spawn([](auto maker, bool& flag) -> Task<void> {
    co_await maker(flag);
  }(inner, ran));
  sim.run();
  EXPECT_TRUE(ran);
}

}  // namespace
}  // namespace hpcbb::sim
