// Deterministic, seed-driven fault injector.
//
// One injector owns every fault source in a run so a single `faults.seed`
// reproduces the whole chaos schedule:
//  * transient RPC faults — per-message drop / delay-spike decisions on the
//    fabric, drawn from a dedicated stream (message order in the simulation
//    is deterministic, so the decisions replay exactly);
//  * rolling node crashes with restart after a configurable downtime,
//    round-robin over registered crash targets;
//  * "limpware" episodes — a registered device serves I/O at a fraction of
//    its healthy rate for a bounded window, then recovers.
//
// Every injected fault emits a faults.injected{kind=...} counter tick and,
// when tracing is enabled, an instant trace event in the "fault" category —
// chaos runs are auditable after the fact, not just survivable.
//
// The injector is passive until start()/arm_fabric(); with `enabled` false
// (the default) it does nothing at all, keeping healthy runs bit-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/corrupt.h"
#include "common/rng.h"
#include "common/units.h"
#include "net/fabric.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "storage/device.h"

namespace hpcbb::faults {

struct InjectorParams {
  bool enabled = false;
  std::uint64_t seed = 1;

  // Transient per-message RPC faults (both directions of every RPC).
  double rpc_drop_prob = 0.0;
  double rpc_delay_prob = 0.0;
  sim::SimTime rpc_delay_ns = 2 * duration::ms;

  // Rolling crash/restart schedule, round-robin over crash targets.
  sim::SimTime crash_first_ns = 0;  // 0 = no scheduled crashes
  sim::SimTime crash_period_ns = 0;  // gap between crashes; 0 = just one
  sim::SimTime crash_downtime_ns = 500 * duration::ms;  // 0 = stays down
  std::uint32_t crash_count = 1;

  // Limpware episodes, round-robin over device targets.
  sim::SimTime limp_first_ns = 0;  // 0 = no episodes
  sim::SimTime limp_period_ns = 0;
  sim::SimTime limp_duration_ns = 200 * duration::ms;
  double limp_factor = 8.0;
  std::uint32_t limp_count = 1;

  // Control-plane crash schedule, round-robin over master targets. Separate
  // from the KV crash schedule: master crashes exercise metadata recovery
  // (journal replay), not data-plane re-replication, and chaos runs want to
  // aim them independently.
  sim::SimTime master_first_ns = 0;  // 0 = no scheduled master crashes
  sim::SimTime master_period_ns = 0;
  sim::SimTime master_downtime_ns = 50 * duration::ms;  // 0 = stays down
  std::uint32_t master_count = 1;

  // Silent-corruption schedule, round-robin over corruption targets (KV
  // stores and storage devices), cycling bit-flip -> torn-write ->
  // stale-read. Each event mutates one resident object's bytes in place
  // without touching its stored checksum.
  sim::SimTime corrupt_first_ns = 0;  // 0 = no scheduled corruption
  sim::SimTime corrupt_period_ns = 0;
  std::uint32_t corrupt_count = 1;
};

class FaultInjector {
 public:
  FaultInjector(sim::Simulation& sim, const InjectorParams& params);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Register a node that scheduled crashes may take down. `crash` must make
  // the node unreachable (fabric down + service stopped); `restart` must
  // bring it back empty and reachable.
  void add_crash_target(std::string name, std::function<void()> crash,
                        std::function<void()> restart);

  // Register a control-plane (BB master) node for the faults.master.*
  // schedule. Same contract as add_crash_target, kept in a separate list so
  // the two schedules aim independently.
  void add_master_target(std::string name, std::function<void()> crash,
                         std::function<void()> restart);

  // Register a device that limpware episodes may degrade.
  void add_device_target(std::string name, storage::Device* device);

  // A corruptible data holder (KV store slab memory, a device's objects).
  // The function mutates one resident object chosen by `selector` (or the
  // named object) and returns its name/key, or "" when nothing matched.
  using CorruptFn = std::function<std::string(
      const std::string& object, std::uint64_t selector, CorruptKind kind)>;
  void add_corrupt_target(std::string name, CorruptFn corrupt);

  // Install the per-message RPC fault hook on a fabric. No-op when disabled
  // or when both probabilities are zero.
  void arm_fabric(net::Fabric& fabric);

  // Spawn the scheduled crash and limpware processes. Call once, after all
  // targets are registered.
  void start();

  // Event-driven chaos: fire a registered target immediately, with the same
  // counting and tracing as a scheduled fault. For harnesses that crash at
  // a workload milestone ("right after the burst ack") rather than at a
  // wall-clock offset; works whether or not schedules are enabled.
  void crash_target(std::size_t index);
  void restart_target(std::size_t index);
  [[nodiscard]] std::size_t crash_target_count() const noexcept {
    return crash_targets_.size();
  }

  // Event-driven master crash/restart (counts as kind master_crash /
  // master_restart), for harnesses crashing at a workload milestone.
  void crash_master_target(std::size_t index);
  void restart_master_target(std::size_t index);

  // Event-driven corruption of a registered target, with the same counting
  // and tracing as the scheduled process. `object` "" lets the target pick
  // by selector. Returns the corrupted object name ("" if nothing matched).
  std::string corrupt_target(std::size_t index, CorruptKind kind,
                             std::uint64_t selector,
                             const std::string& object = {});
  [[nodiscard]] std::size_t corrupt_target_count() const noexcept {
    return corrupt_targets_.size();
  }

  [[nodiscard]] const InjectorParams& params() const noexcept {
    return params_;
  }

 private:
  struct CrashTarget {
    std::string name;
    std::function<void()> crash;
    std::function<void()> restart;
  };
  struct DeviceTarget {
    std::string name;
    storage::Device* device;
  };
  struct CorruptTarget {
    std::string name;
    CorruptFn corrupt;
  };

  sim::Task<void> crash_process();
  sim::Task<void> master_process();
  sim::Task<void> limp_process();
  sim::Task<void> corrupt_process();

  // Count + trace one injected fault.
  void note(std::string_view kind, const std::string& detail);

  sim::Simulation* sim_;
  InjectorParams params_;
  Rng rpc_rng_;       // per-message decisions; advanced once per message
  Rng corrupt_rng_;   // selector draws for the corruption schedule
  bool started_ = false;
  std::vector<CrashTarget> crash_targets_;
  std::vector<CrashTarget> master_targets_;
  std::vector<DeviceTarget> device_targets_;
  std::vector<CorruptTarget> corrupt_targets_;
};

}  // namespace hpcbb::faults
