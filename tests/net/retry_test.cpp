// RetryPolicy + RpcHub resilience semantics: bounded retries, per-call
// timeouts, deterministic backoff, idempotency gating, and the
// unbind/rebind lifecycle a restarting service depends on.
#include "net/retry.h"

#include <gtest/gtest.h>

#include "testing/co_assert.h"
#include "common/units.h"
#include "net/rpc.h"
#include "sim/sync.h"

namespace hpcbb::net {
namespace {

using namespace hpcbb::duration;  // NOLINT
using sim::Simulation;
using sim::Task;

struct EchoRequest {
  std::string text;
  [[nodiscard]] std::uint64_t wire_size() const { return 48 + text.size(); }
};

struct EchoReply {
  std::string text;
  [[nodiscard]] std::uint64_t wire_size() const { return 48 + text.size(); }
};

struct Rig {
  Simulation sim;
  Fabric fabric{sim, 4, FabricParams{}};
  Transport transport{fabric, transport_preset(TransportKind::kRdma)};
  RpcHub hub{transport};
};

RpcHub::Handler echo_handler() {
  return typed_handler<EchoRequest>(
      [](std::shared_ptr<const EchoRequest> req) -> Task<RpcResponse> {
        auto reply = std::make_shared<EchoReply>();
        reply->text = req->text;
        co_return rpc_ok(std::move(reply));
      });
}

TEST(RetryPolicyTest, DefaultIsNoop) {
  RetryPolicy policy;
  EXPECT_TRUE(policy.is_noop());
  RetryPolicy with_retries;
  with_retries.max_attempts = 2;
  EXPECT_FALSE(with_retries.is_noop());
  RetryPolicy with_timeout;
  with_timeout.timeout_ns = 1 * ms;
  EXPECT_FALSE(with_timeout.is_noop());
}

TEST(RetryPolicyTest, SingleAttemptWithTimeoutIsNotNoop) {
  // The noop test is "no retries AND no deadline": a single-attempt policy
  // with a timeout must still take the resilient path so the deadline is
  // enforced, and a zero-timeout single-attempt policy must not.
  RetryPolicy one_shot_deadline;
  one_shot_deadline.max_attempts = 1;
  one_shot_deadline.timeout_ns = 1 * ms;
  EXPECT_FALSE(one_shot_deadline.is_noop());
  RetryPolicy one_shot_no_deadline;
  one_shot_no_deadline.max_attempts = 1;
  one_shot_no_deadline.timeout_ns = 0;
  EXPECT_TRUE(one_shot_no_deadline.is_noop());
  RetryPolicy zero_attempts;  // degenerate but must still count as no-op
  zero_attempts.max_attempts = 0;
  EXPECT_TRUE(zero_attempts.is_noop());
}

TEST(RetryPolicyTest, SingleAttemptStillEnforcesDeadline) {
  // max_attempts=1 means no retries, but a nonzero timeout must still cut
  // a stalled handler off at the deadline instead of waiting it out.
  Rig rig;
  RetryPolicy policy;
  policy.max_attempts = 1;
  policy.timeout_ns = 1 * ms;
  rig.hub.set_retry_policy(policy);
  rig.hub.bind(1, 7000, typed_handler<EchoRequest>(
      [&rig](std::shared_ptr<const EchoRequest>) -> Task<RpcResponse> {
        co_await rig.sim.delay(50 * ms);
        co_return rpc_error(error(StatusCode::kInternal, "too late"));
      }));

  Status status;
  sim::SimTime returned_at = 0;
  rig.sim.spawn([](Rig& r, Status& out, sim::SimTime& at) -> Task<void> {
    auto req = std::make_shared<const EchoRequest>(EchoRequest{"x"});
    out = (co_await r.hub.call<EchoReply>(0, 1, 7000, req)).status();
    at = r.sim.now();
  }(rig, status, returned_at));
  rig.sim.run();
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
  // The caller got its verdict at the deadline, not after the handler's
  // 50ms stall (the orphaned handler still drains before run() returns).
  EXPECT_LT(returned_at, 10 * ms);
  EXPECT_EQ(rig.sim.metrics().counter_value("net.retry.timeouts"), 1u);
  EXPECT_EQ(rig.sim.metrics().counter_value("net.retry.attempts"), 0u);
  // A single-shot policy never "exhausts retries": that counter is
  // reserved for policies that actually had retries to spend.
  EXPECT_EQ(rig.sim.metrics().counter_value("net.retry.exhausted"), 0u);
}

TEST(RetryPolicyTest, RetriesSpanUnbindRebindRestartWindow) {
  // The shape a master restart produces: the service was up, goes down
  // (unbind), and rebinds a few ms later. Calls issued inside the window
  // must ride the retry loop across the gap and land on the new binding.
  Rig rig;
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.backoff_base_ns = 500 * us;
  policy.backoff_max_ns = 2 * ms;
  rig.hub.set_retry_policy(policy);
  rig.hub.bind(1, 7000, echo_handler());

  rig.sim.spawn([](Rig& r) -> Task<void> {
    co_await r.sim.delay(1 * ms);
    r.hub.unbind(1, 7000);  // service goes down for a restart...
    co_await r.sim.delay(4 * ms);
    r.hub.bind(1, 7000, echo_handler());  // ...and comes back
  }(rig));

  bool ok = false;
  rig.sim.spawn([](Rig& r, bool& out) -> Task<void> {
    co_await r.sim.delay(2 * ms);  // issue mid-outage
    auto req = std::make_shared<const EchoRequest>(EchoRequest{"again"});
    auto result = co_await r.hub.call<EchoReply>(0, 1, 7000, req);
    out = result.is_ok() && result.value()->text == "again";
  }(rig, ok));
  rig.sim.run();
  EXPECT_TRUE(ok);
  EXPECT_GE(rig.sim.metrics().counter_value("net.retry.attempts"), 1u);
  EXPECT_EQ(rig.sim.metrics().counter_value("net.retry.recovered"), 1u);
  EXPECT_EQ(rig.sim.metrics().counter_value("net.retry.exhausted"), 0u);
}

TEST(RetryPolicyTest, NoopPolicyMatchesRawCallTiming) {
  // With the (default) no-op hub policy, call() must produce the exact same
  // event sequence as the raw path — resilience wiring costs nothing until
  // someone opts in.
  sim::SimTime raw_time = 0;
  sim::SimTime policy_time = 0;
  for (int pass = 0; pass < 2; ++pass) {
    Rig rig;
    if (pass == 1) rig.hub.set_retry_policy(RetryPolicy{});  // explicit no-op
    rig.hub.bind(1, 7000, echo_handler());
    rig.sim.spawn([](Rig& r) -> Task<void> {
      auto req = std::make_shared<const EchoRequest>(EchoRequest{"ping"});
      auto result = co_await r.hub.call<EchoReply>(0, 1, 7000, req);
      CO_ASSERT(result.is_ok());
    }(rig));
    rig.sim.run();
    (pass == 0 ? raw_time : policy_time) = rig.sim.now();
    EXPECT_EQ(rig.sim.metrics().counter_value("net.retry.attempts"), 0u);
  }
  EXPECT_EQ(raw_time, policy_time);
}

TEST(RetryPolicyTest, RetriesTransientFailureToSuccess) {
  // Nothing is bound when the call starts; the service comes up shortly
  // after. Retries must carry the call through to success.
  Rig rig;
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.backoff_base_ns = 500 * us;
  rig.hub.set_retry_policy(policy);

  rig.sim.spawn([](Rig& r) -> Task<void> {
    co_await r.sim.delay(1 * ms);
    r.hub.bind(1, 7000, echo_handler());
  }(rig));

  bool ok = false;
  rig.sim.spawn([](Rig& r, bool& out) -> Task<void> {
    auto req = std::make_shared<const EchoRequest>(EchoRequest{"ping"});
    auto result = co_await r.hub.call<EchoReply>(0, 1, 7000, req);
    out = result.is_ok();
  }(rig, ok));
  rig.sim.run();
  EXPECT_TRUE(ok);
  EXPECT_GE(rig.sim.metrics().counter_value("net.retry.attempts"), 1u);
  EXPECT_EQ(rig.sim.metrics().counter_value("net.retry.recovered"), 1u);
  EXPECT_EQ(rig.sim.metrics().counter_value("net.retry.exhausted"), 0u);
}

TEST(RetryPolicyTest, ExhaustsAfterMaxAttempts) {
  Rig rig;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_base_ns = 100 * us;
  rig.hub.set_retry_policy(policy);

  Status status;
  rig.sim.spawn([](Rig& r, Status& out) -> Task<void> {
    auto req = std::make_shared<const EchoRequest>(EchoRequest{"x"});
    out = (co_await r.hub.call<EchoReply>(0, 1, 7000, req)).status();
  }(rig, status));
  rig.sim.run();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  // 3 attempts = the first try plus 2 retries, then exhaustion.
  EXPECT_EQ(rig.sim.metrics().counter_value("net.retry.attempts"), 2u);
  EXPECT_EQ(rig.sim.metrics().counter_value("net.retry.exhausted"), 1u);
  EXPECT_EQ(rig.sim.metrics().counter_value("net.retry.recovered"), 0u);
}

TEST(RetryPolicyTest, PerCallTimeoutFires) {
  // The handler stalls well past the deadline: each attempt must time out
  // instead of hanging, and the final verdict is kTimeout.
  Rig rig;
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.timeout_ns = 1 * ms;
  policy.backoff_base_ns = 100 * us;
  rig.hub.set_retry_policy(policy);
  rig.hub.bind(1, 7000, typed_handler<EchoRequest>(
      [&rig](std::shared_ptr<const EchoRequest>) -> Task<RpcResponse> {
        co_await rig.sim.delay(50 * ms);
        co_return rpc_error(error(StatusCode::kInternal, "too late"));
      }));

  Status status;
  rig.sim.spawn([](Rig& r, Status& out) -> Task<void> {
    auto req = std::make_shared<const EchoRequest>(EchoRequest{"x"});
    out = (co_await r.hub.call<EchoReply>(0, 1, 7000, req)).status();
  }(rig, status));
  rig.sim.run();
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
  EXPECT_EQ(rig.sim.metrics().counter_value("net.retry.timeouts"), 2u);
  EXPECT_EQ(rig.sim.metrics().counter_value("net.retry.exhausted"), 1u);
}

TEST(RetryPolicyTest, NonIdempotentNotRetriedAfterDelivery) {
  // The handler executes but reports a transient failure: a non-idempotent
  // call must NOT re-attempt (the side effect may have landed), while an
  // idempotent one retries through to success.
  for (const bool idempotent : {false, true}) {
    Rig rig;
    RetryPolicy policy;
    policy.max_attempts = 4;
    policy.backoff_base_ns = 100 * us;
    rig.hub.set_retry_policy(policy);
    int invocations = 0;
    rig.hub.bind(1, 7000, typed_handler<EchoRequest>(
        [&invocations](std::shared_ptr<const EchoRequest> req)
            -> Task<RpcResponse> {
          ++invocations;
          if (invocations < 3) {
            co_return rpc_error(error(StatusCode::kUnavailable, "busy"));
          }
          auto reply = std::make_shared<EchoReply>();
          reply->text = req->text;
          co_return rpc_ok(std::move(reply));
        }));

    Status status;
    rig.sim.spawn([](Rig& r, bool idem, Status& out) -> Task<void> {
      auto req = std::make_shared<const EchoRequest>(EchoRequest{"x"});
      CallOptions options;
      options.idempotent = idem;
      out = (co_await r.hub.call<EchoReply>(0, 1, 7000, req, options))
                .status();
    }(rig, idempotent, status));
    rig.sim.run();
    if (idempotent) {
      EXPECT_TRUE(status.is_ok());
      EXPECT_EQ(invocations, 3);
    } else {
      EXPECT_EQ(status.code(), StatusCode::kUnavailable);
      EXPECT_EQ(invocations, 1);  // one attempt, no duplicated side effect
      EXPECT_EQ(rig.sim.metrics().counter_value("net.retry.attempts"), 0u);
    }
  }
}

TEST(RetryPolicyTest, NonIdempotentRetriedWhenRequestNeverDelivered) {
  // Connection refused (nothing bound) means the handler cannot have run,
  // so even a non-idempotent call may safely retry.
  Rig rig;
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.backoff_base_ns = 200 * us;
  rig.hub.set_retry_policy(policy);
  rig.sim.spawn([](Rig& r) -> Task<void> {
    co_await r.sim.delay(1 * ms);
    r.hub.bind(1, 7000, echo_handler());
  }(rig));

  bool ok = false;
  rig.sim.spawn([](Rig& r, bool& out) -> Task<void> {
    auto req = std::make_shared<const EchoRequest>(EchoRequest{"x"});
    CallOptions options;
    options.idempotent = false;
    out = (co_await r.hub.call<EchoReply>(0, 1, 7000, req, options)).is_ok();
  }(rig, ok));
  rig.sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(rig.sim.metrics().counter_value("net.retry.recovered"), 1u);
}

TEST(RetryPolicyTest, BackoffDeterministicBoundedAndCapped) {
  RetryPolicy policy;
  policy.backoff_base_ns = 1 * ms;
  policy.backoff_max_ns = 8 * ms;
  policy.backoff_multiplier = 2.0;
  // No backoff before the first retry's predecessor.
  EXPECT_EQ(policy.backoff_ns(1, 0, 1, 7000), 0u);
  // Deterministic: same (attempt, src, dst, port) -> same jittered value.
  const sim::SimTime first = policy.backoff_ns(2, 0, 1, 7000);
  EXPECT_EQ(first, policy.backoff_ns(2, 0, 1, 7000));
  // Bounded: base <= value <= base + base/2 (jitter is at most half).
  EXPECT_GE(first, 1 * ms);
  EXPECT_LE(first, 1 * ms + 500 * us);
  // Different endpoints decorrelate.
  EXPECT_NE(first, policy.backoff_ns(2, 2, 3, 7001));
  // Exponential growth capped at backoff_max (+ its jitter).
  const sim::SimTime late = policy.backoff_ns(30, 0, 1, 7000);
  EXPECT_GE(late, 8 * ms);
  EXPECT_LE(late, 8 * ms + 4 * ms);
}

TEST(RpcHubTest, RebindAfterUnbindServesCalls) {
  // The stop -> restart -> rebind lifecycle: a restarted service must be
  // able to reclaim its endpoint and serve again.
  Rig rig;
  rig.hub.bind(1, 7000, echo_handler());
  EXPECT_TRUE(rig.hub.is_bound(1, 7000));
  rig.hub.unbind(1, 7000);
  EXPECT_FALSE(rig.hub.is_bound(1, 7000));
  rig.hub.bind(1, 7000, echo_handler());  // must not assert/throw
  EXPECT_TRUE(rig.hub.is_bound(1, 7000));

  bool ok = false;
  rig.sim.spawn([](Rig& r, bool& out) -> Task<void> {
    auto req = std::make_shared<const EchoRequest>(EchoRequest{"back"});
    auto result = co_await r.hub.call<EchoReply>(0, 1, 7000, req);
    out = result.is_ok() && result.value()->text == "back";
  }(rig, ok));
  rig.sim.run();
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace hpcbb::net
