// Failure detector over the KV servers: per-peer verdicts from heartbeat
// probe results, and degraded mode while any peer is not live. It sends no
// probes and calls nothing outside itself; the master feeds it probe
// results and acts on the changes it returns.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/simulation.h"
#include "sim/trace.h"

namespace hpcbb::bb {

// kRecovering: the server rejoined after a restart but anti-entropy has not
// finished restoring its key ranges — it counts as non-live (degraded mode
// stays on, and it takes no placements as a repair source/destination)
// until recovery completes.
enum class PeerState { kLive, kSuspect, kDead, kRecovering };

class PeerMonitor {
 public:
  // `suspect_after`/`dead_after` count consecutive missed probes. With
  // `recover_on_rejoin` a rejoining peer is kRecovering until recovered().
  // `publish` keeps the bb.kv_live / bb.kv_suspect gauges.
  PeerMonitor(sim::Simulation& sim, std::uint32_t peers,
              std::uint32_t suspect_after, std::uint32_t dead_after,
              bool recover_on_rejoin, bool publish,
              std::uint32_t trace_track = 0);

  // Returns the peer's new state when the probe moved it. A changed
  // incarnation means the server restarted empty.
  std::optional<PeerState> apply_probe(std::uint32_t peer, bool reachable,
                                       std::uint64_t incarnation);
  bool update_mode();  // after a probe round; true when degraded flipped
  // Anti-entropy finished for a kRecovering peer; true when degraded flipped.
  bool recovered(std::uint32_t peer);
  void leave_degraded();  // master crash
  void reset();           // master restart: peers re-prove liveness

  [[nodiscard]] PeerState state(std::uint32_t peer) const {
    return peers_[peer].state;
  }
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }
  [[nodiscard]] std::uint32_t count(PeerState state) const noexcept;

  void set_trace(sim::TraceRecorder* recorder) noexcept { trace_ = recorder; }

 private:
  struct PeerHealth {
    PeerState state = PeerState::kLive;
    std::uint32_t missed = 0;       // consecutive failed probes
    std::uint64_t incarnation = 0;  // last seen; 0 = never probed
  };

  void mark(const std::string& name, const char* category);  // instant span

  sim::Simulation* sim_;
  std::vector<PeerHealth> peers_;
  std::uint32_t suspect_after_;
  std::uint32_t dead_after_;
  bool recover_on_rejoin_;
  bool publish_;
  std::uint32_t trace_track_;
  sim::TraceRecorder* trace_ = nullptr;
  bool degraded_ = false;
  sim::SimTime degraded_since_ = 0;
};

}  // namespace hpcbb::bb
