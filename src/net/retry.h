// Retry policy for RPC calls: per-call timeout, bounded retries, and
// exponential backoff with deterministic jitter.
//
// The default-constructed policy is a strict no-op (single attempt, no
// timeout), so wiring it through RpcHub changes nothing until a caller
// opts in — runs with resilience disabled stay bit-identical to the seed.
//
// Jitter is derived from (seed, src, dst, port, attempt) through SplitMix64
// rather than from a shared stream, so the backoff of one call never depends
// on how many other calls retried before it. Chaos runs replay exactly.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"
#include "sim/simulation.h"

namespace hpcbb::net {

struct RetryPolicy {
  // Total attempts (first try included). 1 = never retry (seed behaviour).
  std::uint32_t max_attempts = 1;
  // Per-attempt deadline; 0 = wait for the transport verdict, however long.
  sim::SimTime timeout_ns = 0;
  // Backoff before attempt k (k >= 2): base * multiplier^(k-2), capped at
  // backoff_max_ns, plus jitter in [0, backoff of that attempt / 2].
  sim::SimTime backoff_base_ns = 200 * duration::us;
  sim::SimTime backoff_max_ns = 50 * duration::ms;
  double backoff_multiplier = 2.0;
  std::uint64_t jitter_seed = 0x9E3779B97F4A7C15ull;
  // Retry calls flagged non-idempotent too (off: they get one attempt, the
  // safe default — a lost ack must not duplicate a side effect).
  bool retry_non_idempotent = false;

  [[nodiscard]] bool is_noop() const noexcept {
    return max_attempts <= 1 && timeout_ns == 0;
  }

  // Backoff delay before the given attempt (2 = first retry), jittered
  // deterministically per (src, dst, port, attempt).
  [[nodiscard]] sim::SimTime backoff_ns(std::uint32_t attempt,
                                        std::uint64_t src, std::uint64_t dst,
                                        std::uint64_t port) const noexcept {
    if (attempt < 2) return 0;
    double backoff = static_cast<double>(backoff_base_ns);
    for (std::uint32_t k = 2; k < attempt; ++k) backoff *= backoff_multiplier;
    const double capped =
        backoff < static_cast<double>(backoff_max_ns)
            ? backoff
            : static_cast<double>(backoff_max_ns);
    const auto base = static_cast<sim::SimTime>(capped);
    SplitMix64 sm(jitter_seed ^ (src << 40) ^ (dst << 24) ^ (port << 8) ^
                  attempt);
    const sim::SimTime half = base / 2;
    return base + (half == 0 ? 0 : sm.next() % (half + 1));
  }
};

// Only transient transport-level failures are worth re-attempting; every
// other code is an application verdict that a retry would just repeat.
[[nodiscard]] constexpr bool retryable(StatusCode code) noexcept {
  return code == StatusCode::kUnavailable || code == StatusCode::kTimeout;
}

}  // namespace hpcbb::net
