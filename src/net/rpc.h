// RPC layer over Transport.
//
// Handlers run as coroutines in the caller's chain: server processing time,
// device waits, and nested RPCs all accrue to the simulated clock naturally.
// A handler runs under the task scope that was ambient when it was bound,
// not the caller's: a cancelled caller never cuts a live server's handler
// short, and a handler whose own scope is cancelled (a crashed server)
// answers kUnavailable.
// Because everything lives in one host process, request/response bodies move
// by shared_ptr while the *wire* cost is modeled from each message's
// declared wire size.
//
// Failure semantics: if the destination node is down (Fabric) or nothing is
// bound to the port (service stopped), the call completes with kUnavailable
// after the connection-attempt latency — callers never hang.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "common/status.h"
#include "net/retry.h"
#include "net/transport.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace hpcbb::net {

using Port = std::uint16_t;

struct RpcResponse {
  Status status;
  std::shared_ptr<const void> body;  // null on error responses
  std::uint64_t wire_bytes = 64;     // headers-only reply by default
  // True once the request reached a bound handler: from that point a retry
  // may duplicate the handler's side effect, so only idempotent calls may
  // re-attempt. False for failures on the request path (send error,
  // connection refused), which are always safe to retry.
  bool request_delivered = false;
};

// A reply whose wire size is its body's wire_size().
template <typename T>
RpcResponse rpc_ok(std::shared_ptr<T> body) {
  const std::uint64_t wire_bytes = body->wire_size();
  return RpcResponse{Status::ok(), std::move(body), wire_bytes};
}

inline RpcResponse rpc_error(Status status) {
  return RpcResponse{std::move(status), nullptr, 64};
}

// Per-call knobs for RpcHub::call. The defaults route through the hub-wide
// RetryPolicy; callers whose requests are unsafe to replay clear
// `idempotent` and get exactly one attempt on ambiguous failures.
struct CallOptions {
  bool idempotent = true;
  const RetryPolicy* policy = nullptr;  // null: use the hub-wide policy
};

class RpcHub {
 public:
  using Handler =
      std::function<sim::Task<RpcResponse>(std::shared_ptr<const void>)>;

  explicit RpcHub(Transport& transport)
      : transport_(&transport),
        rpc_ns_(transport.fabric().simulation().metrics(), "net.rpc"),
        rpc_calls_(transport.fabric().simulation().metrics(),
                   "net.rpc.calls") {}

  RpcHub(const RpcHub&) = delete;
  RpcHub& operator=(const RpcHub&) = delete;

  // Register a service endpoint under the ambient task scope. Rebinding
  // after unbind() is supported (a restarted server reclaims its old port);
  // binding a *currently occupied* endpoint is a bug — two live services
  // cannot share one port.
  void bind(NodeId node, Port port, Handler handler) {
    const auto [it, inserted] = handlers_.emplace(
        endpoint_key(node, port),
        Binding{std::move(handler),
                transport_->fabric().simulation().current_scope()});
    (void)it;
    assert(inserted && "endpoint already bound by a live service");
  }

  void unbind(NodeId node, Port port) {
    handlers_.erase(endpoint_key(node, port));
  }

  [[nodiscard]] bool is_bound(NodeId node, Port port) const {
    return handlers_.contains(endpoint_key(node, port));
  }

  [[nodiscard]] Transport& transport() noexcept { return *transport_; }
  [[nodiscard]] MetricRegistry& metrics() noexcept {
    return transport_->fabric().simulation().metrics();
  }

  // Hub-wide retry policy applied by call()/call_with_policy(). The default
  // policy is a no-op, so existing behaviour is unchanged until configured.
  void set_retry_policy(const RetryPolicy& policy) noexcept {
    retry_policy_ = policy;
  }

  // Untyped call; the typed wrapper below is what services use. Every call
  // (success or error) lands in the "net.rpc" latency histogram.
  sim::Task<RpcResponse> call_raw(NodeId src, NodeId dst, Port port,
                                  std::shared_ptr<const void> request,
                                  std::uint64_t request_wire_bytes) {
    sim::Simulation& sim = transport_->fabric().simulation();
    const sim::SimTime start = sim.now();
    RpcResponse response = co_await call_raw_impl(
        src, dst, port, std::move(request), request_wire_bytes);
    rpc_ns_->record(sim.now() - start);
    rpc_calls_->add();
    co_return response;
  }

  // Typed call: Req must expose wire_size(). Returns the typed body or the
  // last error encountered (transport or application). Transient failures
  // (kUnavailable, kTimeout) are retried per the effective RetryPolicy.
  template <typename Resp, typename Req>
  sim::Task<Result<std::shared_ptr<const Resp>>> call(
      NodeId src, NodeId dst, Port port, std::shared_ptr<const Req> request,
      CallOptions options = {}) {
    const std::uint64_t wire = request->wire_size();
    RpcResponse response = co_await call_with_policy(
        src, dst, port, std::move(request), wire, options);
    if (!response.status.is_ok()) co_return response.status;
    co_return std::static_pointer_cast<const Resp>(response.body);
  }

  // Untyped call with retry/timeout semantics. With a no-op policy this is
  // exactly call_raw — same event sequence, same metrics — so runs without
  // resilience configured stay bit-identical.
  sim::Task<RpcResponse> call_with_policy(NodeId src, NodeId dst, Port port,
                                          std::shared_ptr<const void> request,
                                          std::uint64_t request_wire_bytes,
                                          CallOptions options = {}) {
    const RetryPolicy policy =
        options.policy != nullptr ? *options.policy : retry_policy_;
    if (policy.is_noop()) {
      co_return co_await call_raw(src, dst, port, std::move(request),
                                  request_wire_bytes);
    }
    sim::Simulation& sim = transport_->fabric().simulation();
    for (std::uint32_t attempt = 1;; ++attempt) {
      RpcResponse response = co_await call_attempt(
          src, dst, port, request, request_wire_bytes, policy.timeout_ns);
      if (response.status.is_ok()) {
        if (attempt > 1) sim.metrics().counter("net.retry.recovered").add();
        co_return response;
      }
      const bool transient = retryable(response.status.code());
      const bool safe = options.idempotent || policy.retry_non_idempotent ||
                        !response.request_delivered;
      if (!transient || !safe) co_return response;
      if (attempt >= policy.max_attempts) {
        if (policy.max_attempts > 1) {
          sim.metrics().counter("net.retry.exhausted").add();
        }
        co_return response;
      }
      sim.metrics().counter("net.retry.attempts").add();
      const sim::SimTime backoff =
          policy.backoff_ns(attempt + 1, src, dst, port);
      if (backoff > 0) co_await sim.delay(backoff);
    }
  }

 private:
  // Shared state between one attempt's body, its timeout timer, and the
  // caller. shared_ptr-owned so an attempt abandoned at timeout can finish
  // (or stay blocked until teardown) without dangling.
  struct PendingCall {
    explicit PendingCall(sim::Simulation& sim) noexcept : done_cond(sim) {}
    sim::Condition done_cond;
    bool done = false;
    RpcResponse response;
  };

  static sim::Task<void> attempt_body(RpcHub* hub, NodeId src, NodeId dst,
                                      Port port,
                                      std::shared_ptr<const void> request,
                                      std::uint64_t wire,
                                      std::shared_ptr<PendingCall> pending) {
    RpcResponse response =
        co_await hub->call_raw(src, dst, port, std::move(request), wire);
    pending->response = std::move(response);
    pending->done = true;
    pending->done_cond.notify_all();
  }

  static sim::Task<void> attempt_timer(sim::Simulation* sim,
                                       sim::SimTime delay_ns,
                                       std::shared_ptr<PendingCall> pending) {
    co_await sim->delay(delay_ns);
    if (!pending->done) pending->done_cond.notify_all();
  }

  // One attempt, optionally bounded by a deadline. On timeout the in-flight
  // call is abandoned, not cancelled — like a real network, the server may
  // still execute the request — so timeouts report request_delivered=true
  // and only idempotent calls retry after one.
  sim::Task<RpcResponse> call_attempt(NodeId src, NodeId dst, Port port,
                                      std::shared_ptr<const void> request,
                                      std::uint64_t wire,
                                      sim::SimTime timeout_ns) {
    if (timeout_ns == 0) {
      co_return co_await call_raw(src, dst, port, std::move(request), wire);
    }
    sim::Simulation& sim = transport_->fabric().simulation();
    auto pending = std::make_shared<PendingCall>(sim);
    const sim::SimTime deadline = sim.now() + timeout_ns;
    sim.spawn(attempt_body(this, src, dst, port, std::move(request), wire,
                           pending));
    sim.spawn(attempt_timer(&sim, timeout_ns, pending));
    while (!pending->done && sim.now() < deadline) {
      co_await pending->done_cond.wait();
    }
    if (pending->done) co_return std::move(pending->response);
    sim.metrics().counter("net.retry.timeouts").add();
    RpcResponse timed_out = rpc_error(error(StatusCode::kTimeout,
                                            "rpc deadline exceeded"));
    timed_out.request_delivered = true;  // ambiguous: assume the worst
    co_return timed_out;
  }
  sim::Task<RpcResponse> call_raw_impl(NodeId src, NodeId dst, Port port,
                                       std::shared_ptr<const void> request,
                                       std::uint64_t request_wire_bytes) {
    Status st = co_await transport_->send(src, dst, request_wire_bytes);
    if (!st.is_ok()) co_return rpc_error(std::move(st));

    const auto it = handlers_.find(endpoint_key(dst, port));
    if (it == handlers_.end()) {
      co_return rpc_error(
          error(StatusCode::kUnavailable, "connection refused"));
    }
    RpcResponse response;
    try {
      sim::InScope scope(transport_->fabric().simulation(), it->second.scope);
      response = co_await it->second.handler(std::move(request));
    } catch (const sim::Cancelled&) {
      response = rpc_error(error(StatusCode::kUnavailable, "server crashed"));
    }
    // From here the handler has executed: any failure is ambiguous for the
    // caller and must not be blindly re-attempted for non-idempotent calls.
    response.request_delivered = true;

    st = co_await transport_->send(dst, src, response.wire_bytes);
    if (!st.is_ok()) {
      RpcResponse reply_lost = rpc_error(std::move(st));
      reply_lost.request_delivered = true;
      co_return reply_lost;
    }
    co_return response;
  }

  static std::uint64_t endpoint_key(NodeId node, Port port) noexcept {
    return (static_cast<std::uint64_t>(node) << 16) | port;
  }

  Transport* transport_;
  MetricHandle<Histogram> rpc_ns_;
  MetricHandle<Counter> rpc_calls_;
  RetryPolicy retry_policy_;
  struct Binding {
    Handler handler;
    sim::Scope* scope;  // the handler's task scope
  };
  std::unordered_map<std::uint64_t, Binding> handlers_;
};

// Adapts a typed handler (Task<RpcResponse>(shared_ptr<const Req>)) to the
// untyped Handler signature.
template <typename Req, typename F>
RpcHub::Handler typed_handler(F fn) {
  return [fn = std::move(fn)](
             std::shared_ptr<const void> request) -> sim::Task<RpcResponse> {
    return fn(std::static_pointer_cast<const Req>(std::move(request)));
  };
}

}  // namespace hpcbb::net
