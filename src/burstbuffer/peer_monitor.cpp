#include "burstbuffer/peer_monitor.h"

#include <string>

#include "common/metrics.h"

namespace hpcbb::bb {

PeerMonitor::PeerMonitor(sim::Simulation& sim, std::uint32_t peers,
                         std::uint32_t suspect_after, std::uint32_t dead_after,
                         bool recover_on_rejoin, bool publish,
                         std::uint32_t trace_track)
    : sim_(&sim),
      peers_(peers),
      suspect_after_(suspect_after),
      dead_after_(dead_after),
      recover_on_rejoin_(recover_on_rejoin),
      publish_(publish),
      trace_track_(trace_track) {
  if (publish_) sim.metrics().gauge("bb.kv_live").set(peers);
}

std::uint32_t PeerMonitor::count(PeerState state) const noexcept {
  std::uint32_t n = 0;
  for (const PeerHealth& h : peers_) n += h.state == state;
  return n;
}

void PeerMonitor::mark(const std::string& name, const char* category) {
  if (trace_ == nullptr) return;
  trace_->record(name, category, trace_track_, sim_->now(), sim_->now());
}

std::optional<PeerState> PeerMonitor::apply_probe(std::uint32_t peer,
                                                  bool reachable,
                                                  std::uint64_t incarnation) {
  PeerHealth& health = peers_[peer];
  const PeerState before = health.state;
  if (reachable) {
    const bool restarted =
        health.incarnation != 0 && incarnation != health.incarnation;
    health.incarnation = incarnation;
    health.missed = 0;
    // Anti-entropy still streaming: reachable but not yet eligible.
    if (health.state == PeerState::kRecovering && !restarted) {
      return std::nullopt;
    }
    if (restarted || health.state == PeerState::kDead) {
      sim_->metrics().counter("bb.detector.rejoined").add();
      mark("rejoin.kv" + std::to_string(peer), "bb");
      if (recover_on_rejoin_) {
        // Placement-eligibility gate: the restarted server is empty, so it
        // holds kRecovering (non-live: degraded mode and write-through stay
        // on) until anti-entropy re-fills its key ranges.
        health.state = PeerState::kRecovering;
        sim_->metrics().counter("bb.detector.recovering").add();
        return health.state;  // a restart during recovery starts it over
      }
    }
    health.state = PeerState::kLive;
  } else {
    ++health.missed;
    if ((health.state == PeerState::kLive ||
         health.state == PeerState::kRecovering) &&
        health.missed >= suspect_after_) {
      health.state = PeerState::kSuspect;
      sim_->metrics().counter("bb.detector.suspected").add();
      mark("detector.suspect.kv" + std::to_string(peer), "detector");
    }
    if (health.state == PeerState::kSuspect && health.missed >= dead_after_) {
      health.state = PeerState::kDead;
      sim_->metrics().counter("bb.detector.dead").add();
      mark("detector.dead.kv" + std::to_string(peer), "detector");
    }
  }
  if (health.state == before) return std::nullopt;
  return health.state;
}

bool PeerMonitor::update_mode() {
  MetricRegistry& metrics = sim_->metrics();
  const std::uint32_t live = count(PeerState::kLive);
  metrics.gauge("bb.kv_live").set(live);
  metrics.gauge("bb.kv_suspect").set(count(PeerState::kSuspect));
  const bool now_degraded = live < static_cast<std::uint32_t>(peers_.size());
  if (now_degraded == degraded_) return false;
  degraded_ = now_degraded;
  // Level gauges for the SLO engine (slo.degraded_window_max_ns measures an
  // *open* window as now - bb.degraded_since_ns while bb.degraded is 1).
  metrics.gauge("bb.degraded").set(degraded_ ? 1 : 0);
  metrics.gauge("bb.degraded_since_ns").set(degraded_ ? sim_->now() : 0);
  if (degraded_) {
    degraded_since_ = sim_->now();
    metrics.counter("bb.degraded.entered").add();
  } else {
    // Recovery time: from first suspicion to all peers live again.
    metrics.histogram("bb.degraded_window_ns")
        .record(sim_->now() - degraded_since_);
  }
  mark(degraded_ ? "degraded.enter" : "degraded.exit", "bb");
  return true;
}

bool PeerMonitor::recovered(std::uint32_t peer) {
  if (peers_[peer].state != PeerState::kRecovering) return false;
  peers_[peer].state = PeerState::kLive;
  sim_->metrics().counter("bb.detector.recovered").add();
  return update_mode();
}

void PeerMonitor::leave_degraded() {
  degraded_ = false;
  sim_->metrics().gauge("bb.degraded").set(0);
  sim_->metrics().gauge("bb.degraded_since_ns").set(0);
}

void PeerMonitor::reset() {
  for (PeerHealth& health : peers_) health = PeerHealth{};
  if (!publish_) return;
  sim_->metrics().gauge("bb.kv_live").set(static_cast<std::uint64_t>(
      peers_.size()));
  sim_->metrics().gauge("bb.kv_suspect").set(0);
}

}  // namespace hpcbb::bb
