#include "faults/injector.h"

#include <utility>

#include "sim/trace.h"

namespace hpcbb::faults {

FaultInjector::FaultInjector(sim::Simulation& sim,
                             const InjectorParams& params)
    : sim_(&sim),
      params_(params),
      rpc_rng_(params.seed ^ 0xFA017ull),
      corrupt_rng_(params.seed ^ 0xC0882ull) {}

void FaultInjector::add_crash_target(std::string name,
                                     std::function<void()> crash,
                                     std::function<void()> restart) {
  crash_targets_.push_back(
      CrashTarget{std::move(name), std::move(crash), std::move(restart)});
}

void FaultInjector::add_master_target(std::string name,
                                      std::function<void()> crash,
                                      std::function<void()> restart) {
  master_targets_.push_back(
      CrashTarget{std::move(name), std::move(crash), std::move(restart)});
}

void FaultInjector::add_device_target(std::string name,
                                      storage::Device* device) {
  device_targets_.push_back(DeviceTarget{std::move(name), device});
}

void FaultInjector::add_corrupt_target(std::string name, CorruptFn corrupt) {
  corrupt_targets_.push_back(CorruptTarget{std::move(name),
                                           std::move(corrupt)});
}

void FaultInjector::note(std::string_view kind, const std::string& detail) {
  sim_->metrics()
      .counter("faults.injected{kind=" + std::string(kind) + "}")
      .add();
  if (sim::TraceRecorder* trace = sim_->trace()) {
    trace->record(std::string(kind) + " " + detail, "fault", /*track=*/0,
                  sim_->now(), sim_->now());
  }
}

void FaultInjector::arm_fabric(net::Fabric& fabric) {
  if (!params_.enabled) return;
  if (params_.rpc_drop_prob <= 0.0 && params_.rpc_delay_prob <= 0.0) return;
  fabric.set_fault_hook([this](net::NodeId src, net::NodeId dst,
                               std::uint64_t bytes) -> net::LinkFault {
    (void)bytes;
    net::LinkFault fault;
    // One draw per decision keeps the stream advance schedule fixed even
    // when a probability is zero, so enabling delays does not reshuffle
    // which messages get dropped.
    const double drop_draw = rpc_rng_.uniform01();
    const double delay_draw = rpc_rng_.uniform01();
    if (drop_draw < params_.rpc_drop_prob) {
      fault.drop = true;
      note("rpc_drop",
           std::to_string(src) + "->" + std::to_string(dst));
    } else if (delay_draw < params_.rpc_delay_prob) {
      fault.extra_delay_ns = params_.rpc_delay_ns;
      note("rpc_delay",
           std::to_string(src) + "->" + std::to_string(dst));
    }
    return fault;
  });
}

void FaultInjector::start() {
  if (!params_.enabled || started_) return;
  started_ = true;
  if (params_.crash_first_ns > 0 && !crash_targets_.empty()) {
    sim_->spawn(crash_process());
  }
  if (params_.master_first_ns > 0 && !master_targets_.empty()) {
    sim_->spawn(master_process());
  }
  if (params_.limp_first_ns > 0 && !device_targets_.empty()) {
    sim_->spawn(limp_process());
  }
  if (params_.corrupt_first_ns > 0 && !corrupt_targets_.empty()) {
    sim_->spawn(corrupt_process());
  }
}

std::string FaultInjector::corrupt_target(std::size_t index, CorruptKind kind,
                                          std::uint64_t selector,
                                          const std::string& object) {
  CorruptTarget& target = corrupt_targets_.at(index);
  std::string corrupted = target.corrupt(object, selector, kind);
  if (!corrupted.empty()) {
    note(to_string(kind), target.name + ":" + corrupted);
  }
  return corrupted;
}

void FaultInjector::crash_target(std::size_t index) {
  CrashTarget& target = crash_targets_.at(index);
  note("crash", target.name);
  target.crash();
}

void FaultInjector::restart_target(std::size_t index) {
  CrashTarget& target = crash_targets_.at(index);
  note("restart", target.name);
  target.restart();
}

void FaultInjector::crash_master_target(std::size_t index) {
  CrashTarget& target = master_targets_.at(index);
  note("master_crash", target.name);
  target.crash();
}

void FaultInjector::restart_master_target(std::size_t index) {
  CrashTarget& target = master_targets_.at(index);
  note("master_restart", target.name);
  target.restart();
}

sim::Task<void> FaultInjector::crash_process() {
  co_await sim_->delay(params_.crash_first_ns);
  for (std::uint32_t i = 0; i < params_.crash_count; ++i) {
    CrashTarget& target = crash_targets_[i % crash_targets_.size()];
    note("crash", target.name);
    target.crash();
    if (params_.crash_downtime_ns > 0) {
      co_await sim_->delay(params_.crash_downtime_ns);
      note("restart", target.name);
      target.restart();
    }
    if (i + 1 < params_.crash_count) {
      if (params_.crash_period_ns == 0) break;  // one-shot schedule
      const sim::SimTime since_crash =
          params_.crash_downtime_ns > 0 ? params_.crash_downtime_ns : 0;
      const sim::SimTime gap = params_.crash_period_ns > since_crash
                                   ? params_.crash_period_ns - since_crash
                                   : 0;
      co_await sim_->delay(gap);
    }
  }
}

sim::Task<void> FaultInjector::master_process() {
  co_await sim_->delay(params_.master_first_ns);
  for (std::uint32_t i = 0; i < params_.master_count; ++i) {
    const std::size_t index = i % master_targets_.size();
    crash_master_target(index);
    if (params_.master_downtime_ns > 0) {
      co_await sim_->delay(params_.master_downtime_ns);
      restart_master_target(index);
    }
    if (i + 1 < params_.master_count) {
      if (params_.master_period_ns == 0) break;  // one-shot schedule
      const sim::SimTime since_crash =
          params_.master_downtime_ns > 0 ? params_.master_downtime_ns : 0;
      const sim::SimTime gap = params_.master_period_ns > since_crash
                                   ? params_.master_period_ns - since_crash
                                   : 0;
      co_await sim_->delay(gap);
    }
  }
}

sim::Task<void> FaultInjector::corrupt_process() {
  // Kinds cycle deterministically; the selector stream is dedicated, so
  // enabling corruption does not reshuffle RPC drop/delay decisions.
  static constexpr CorruptKind kKinds[] = {
      CorruptKind::kBitFlip, CorruptKind::kTornWrite, CorruptKind::kStaleRead};
  co_await sim_->delay(params_.corrupt_first_ns);
  for (std::uint32_t i = 0; i < params_.corrupt_count; ++i) {
    const std::size_t target = i % corrupt_targets_.size();
    const CorruptKind kind = kKinds[i % 3];
    (void)corrupt_target(target, kind, corrupt_rng_.next());
    if (i + 1 < params_.corrupt_count) {
      if (params_.corrupt_period_ns == 0) break;  // one-shot schedule
      co_await sim_->delay(params_.corrupt_period_ns);
    }
  }
}

sim::Task<void> FaultInjector::limp_process() {
  co_await sim_->delay(params_.limp_first_ns);
  for (std::uint32_t i = 0; i < params_.limp_count; ++i) {
    DeviceTarget& target = device_targets_[i % device_targets_.size()];
    note("limp", target.name);
    target.device->set_slowdown(params_.limp_factor);
    co_await sim_->delay(params_.limp_duration_ns);
    note("limp_recover", target.name);
    target.device->set_slowdown(1.0);
    if (i + 1 < params_.limp_count) {
      if (params_.limp_period_ns == 0) break;
      const sim::SimTime gap =
          params_.limp_period_ns > params_.limp_duration_ns
              ? params_.limp_period_ns - params_.limp_duration_ns
              : 0;
      co_await sim_->delay(gap);
    }
  }
}

}  // namespace hpcbb::faults
