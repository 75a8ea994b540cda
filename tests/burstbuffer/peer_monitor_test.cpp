// PeerMonitor unit tests: the failure detector's verdicts and degraded mode,
// driven by hand-fed probe results on a bare Simulation (no cluster, RPC
// hub or fabric).
#include "burstbuffer/peer_monitor.h"

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/units.h"
#include "sim/simulation.h"

namespace hpcbb::bb {
namespace {

using namespace hpcbb::duration;  // NOLINT

constexpr std::uint32_t kPeers = 3;
constexpr std::uint32_t kSuspectAfter = 2;
constexpr std::uint32_t kDeadAfter = 4;

PeerMonitor make_monitor(sim::Simulation& sim, bool recover_on_rejoin) {
  return PeerMonitor(sim, kPeers, kSuspectAfter, kDeadAfter,
                     recover_on_rejoin, /*publish=*/true);
}

// Every peer answers with incarnation 1: the monitor has seen each of them.
void probe_all_live(PeerMonitor& monitor) {
  for (std::uint32_t i = 0; i < kPeers; ++i) {
    EXPECT_EQ(monitor.apply_probe(i, true, 1), std::nullopt);
  }
}

TEST(PeerMonitorTest, SuspectAfterMissedProbes) {
  sim::Simulation sim;
  PeerMonitor monitor = make_monitor(sim, false);
  probe_all_live(monitor);
  for (std::uint32_t miss = 1; miss < kSuspectAfter; ++miss) {
    EXPECT_EQ(monitor.apply_probe(0, false, 0), std::nullopt);
    EXPECT_EQ(monitor.state(0), PeerState::kLive);
  }
  EXPECT_EQ(monitor.apply_probe(0, false, 0), PeerState::kSuspect);
  EXPECT_EQ(monitor.state(0), PeerState::kSuspect);
  EXPECT_EQ(monitor.count(PeerState::kSuspect), 1u);
  EXPECT_EQ(monitor.count(PeerState::kLive), kPeers - 1);
  EXPECT_EQ(sim.metrics().counter_value("bb.detector.suspected"), 1u);
  // A probe that gets through clears the suspicion.
  EXPECT_EQ(monitor.apply_probe(0, true, 1), PeerState::kLive);
  EXPECT_EQ(monitor.state(0), PeerState::kLive);
}

TEST(PeerMonitorTest, DeadAfterMissedProbes) {
  sim::Simulation sim;
  PeerMonitor monitor = make_monitor(sim, false);
  probe_all_live(monitor);
  for (std::uint32_t miss = 1; miss < kDeadAfter; ++miss) {
    (void)monitor.apply_probe(1, false, 0);
  }
  EXPECT_EQ(monitor.state(1), PeerState::kSuspect);
  EXPECT_EQ(monitor.apply_probe(1, false, 0), PeerState::kDead);
  EXPECT_EQ(monitor.state(1), PeerState::kDead);
  // Death is reported once; further misses change nothing.
  EXPECT_EQ(monitor.apply_probe(1, false, 0), std::nullopt);
  EXPECT_EQ(sim.metrics().counter_value("bb.detector.dead"), 1u);
  // Without recovery a dead peer that answers again is live at once.
  EXPECT_EQ(monitor.apply_probe(1, true, 1), PeerState::kLive);
  EXPECT_EQ(monitor.state(1), PeerState::kLive);
  EXPECT_EQ(sim.metrics().counter_value("bb.detector.rejoined"), 1u);
}

TEST(PeerMonitorTest, FullLifecycleWithReplication) {
  // live -> suspect -> dead -> recovering -> live, with degraded mode on
  // from the first suspicion to the end of anti-entropy.
  sim::Simulation sim;
  PeerMonitor monitor = make_monitor(sim, true);
  probe_all_live(monitor);
  EXPECT_FALSE(monitor.update_mode());
  EXPECT_FALSE(monitor.degraded());

  sim.run_until(10 * ms);
  for (std::uint32_t miss = 0; miss < kSuspectAfter; ++miss) {
    (void)monitor.apply_probe(2, false, 0);
  }
  EXPECT_EQ(monitor.state(2), PeerState::kSuspect);
  EXPECT_TRUE(monitor.update_mode());
  EXPECT_TRUE(monitor.degraded());
  EXPECT_EQ(sim.metrics().gauge_value("bb.degraded"), 1u);
  EXPECT_EQ(sim.metrics().gauge_value("bb.degraded_since_ns"), 10 * ms);
  EXPECT_EQ(sim.metrics().gauge_value("bb.kv_live"), kPeers - 1);
  EXPECT_EQ(sim.metrics().gauge_value("bb.kv_suspect"), 1u);
  EXPECT_EQ(sim.metrics().counter_value("bb.degraded.entered"), 1u);

  for (std::uint32_t miss = kSuspectAfter; miss < kDeadAfter - 1; ++miss) {
    (void)monitor.apply_probe(2, false, 0);
  }
  EXPECT_EQ(monitor.apply_probe(2, false, 0), PeerState::kDead);
  EXPECT_FALSE(monitor.update_mode());  // still degraded: no flip

  // The server answers again with the same incarnation: it rejoins, but
  // holds kRecovering (not live) until anti-entropy completes.
  EXPECT_EQ(monitor.apply_probe(2, true, 1), PeerState::kRecovering);
  EXPECT_EQ(monitor.state(2), PeerState::kRecovering);
  EXPECT_EQ(monitor.apply_probe(2, true, 1), std::nullopt);
  EXPECT_EQ(monitor.state(2), PeerState::kRecovering);
  EXPECT_FALSE(monitor.update_mode());
  EXPECT_TRUE(monitor.degraded());
  EXPECT_EQ(sim.metrics().counter_value("bb.detector.recovering"), 1u);

  sim.run_until(50 * ms);
  EXPECT_TRUE(monitor.recovered(2));  // degraded mode ends
  EXPECT_EQ(monitor.state(2), PeerState::kLive);
  EXPECT_FALSE(monitor.degraded());
  EXPECT_EQ(sim.metrics().gauge_value("bb.degraded"), 0u);
  EXPECT_EQ(sim.metrics().gauge_value("bb.kv_live"), kPeers);
  const auto window = sim.metrics().find_histogram("bb.degraded_window_ns");
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->count, 1u);
  EXPECT_EQ(window->sum, 40 * ms);
  // A second completion for the same peer is a no-op.
  EXPECT_FALSE(monitor.recovered(2));
}

TEST(PeerMonitorTest, IncarnationBumpIsARejoin) {
  // A server that restarted between two probes answers with a new
  // incarnation: it is empty, so it rejoins even though no probe missed.
  sim::Simulation sim;
  PeerMonitor with_repl = make_monitor(sim, true);
  probe_all_live(with_repl);
  EXPECT_EQ(with_repl.apply_probe(0, true, 2), PeerState::kRecovering);
  EXPECT_EQ(with_repl.state(0), PeerState::kRecovering);
  // Another restart while still recovering starts recovery over.
  EXPECT_EQ(with_repl.apply_probe(0, true, 3), PeerState::kRecovering);

  sim::Simulation plain_sim;
  PeerMonitor plain = make_monitor(plain_sim, false);
  probe_all_live(plain);
  EXPECT_EQ(plain.apply_probe(0, true, 2), std::nullopt);
  EXPECT_EQ(plain.state(0), PeerState::kLive);
  EXPECT_EQ(plain_sim.metrics().counter_value("bb.detector.rejoined"), 1u);
  EXPECT_EQ(plain_sim.metrics().counter_value("bb.detector.recovering"), 0u);
}

TEST(PeerMonitorTest, CrashLeavesDegradedAndRestartResetsPeers) {
  sim::Simulation sim;
  PeerMonitor monitor = make_monitor(sim, false);
  probe_all_live(monitor);
  for (std::uint32_t miss = 0; miss < kDeadAfter; ++miss) {
    (void)monitor.apply_probe(0, false, 0);
  }
  EXPECT_TRUE(monitor.update_mode());
  EXPECT_TRUE(monitor.degraded());

  // Master crash: degraded mode ends, peer verdicts stay.
  monitor.leave_degraded();
  EXPECT_FALSE(monitor.degraded());
  EXPECT_EQ(sim.metrics().gauge_value("bb.degraded"), 0u);
  EXPECT_EQ(sim.metrics().gauge_value("bb.degraded_since_ns"), 0u);
  EXPECT_EQ(monitor.state(0), PeerState::kDead);

  // Master restart: every peer re-proves liveness from scratch.
  monitor.reset();
  EXPECT_EQ(monitor.state(0), PeerState::kLive);
  EXPECT_EQ(monitor.count(PeerState::kLive), kPeers);
  EXPECT_EQ(sim.metrics().gauge_value("bb.kv_live"), kPeers);
  EXPECT_EQ(sim.metrics().gauge_value("bb.kv_suspect"), 0u);
  // Fresh state: the old incarnation is forgotten, so no rejoin.
  EXPECT_EQ(monitor.apply_probe(0, true, 1), std::nullopt);
  EXPECT_EQ(sim.metrics().counter_value("bb.detector.rejoined"), 0u);
}

}  // namespace
}  // namespace hpcbb::bb
