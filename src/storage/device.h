// Block-device timing models. A device is a FIFO server: each I/O pays a
// seek penalty when it breaks sequentiality, plus serialization at the
// direction's bandwidth. Capacity is tracked separately so the paper's
// motivating constraint — scarce node-local storage on HPC compute nodes —
// is enforceable (writes fail with kResourceExhausted when full).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/corrupt.h"
#include "common/status.h"
#include "common/units.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace hpcbb::storage {

enum class MediaKind { kHdd, kSsd, kRamDisk };

std::string_view to_string(MediaKind kind) noexcept;

struct DeviceParams {
  MediaKind kind = MediaKind::kHdd;
  std::uint64_t read_bytes_per_sec = 130 * MB;
  std::uint64_t write_bytes_per_sec = 110 * MB;
  sim::SimTime seek_ns = 6 * duration::ms;
  std::uint64_t capacity_bytes = 2 * TiB;
};

// Presets for a 2015-era HPC node (calibration table in EXPERIMENTS.md).
DeviceParams hdd_preset();
DeviceParams ssd_preset();
DeviceParams ramdisk_preset(std::uint64_t capacity_bytes = 16 * GiB);

class Device {
 public:
  Device(sim::Simulation& sim, const DeviceParams& params) noexcept
      : sim_(&sim), params_(params) {}

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  // Timing only; space accounting is explicit via reserve/release.
  sim::Task<void> read(std::uint64_t offset, std::uint64_t bytes) {
    return io(offset, bytes, params_.read_bytes_per_sec);
  }
  sim::Task<void> write(std::uint64_t offset, std::uint64_t bytes) {
    return io(offset, bytes, params_.write_bytes_per_sec);
  }

  [[nodiscard]] Status reserve(std::uint64_t bytes) noexcept {
    if (used_ + bytes > params_.capacity_bytes) {
      return error(StatusCode::kResourceExhausted, "device full");
    }
    used_ += bytes;
    return Status::ok();
  }
  void release(std::uint64_t bytes) noexcept {
    used_ = bytes > used_ ? 0 : used_ - bytes;
  }

  // Limpware episode: a slowdown factor >= 1 divides the effective transfer
  // rate (factor 10 = the device limps at a tenth of its speed). 1 restores
  // healthy service. Fault injection drives this; nothing else should.
  // Factors above kMaxSlowdown cannot be priced: a 64 MiB HDD transfer
  // (~0.6 s) slowed 1e6 times still leaves SimTime room to queue.
  static constexpr double kMaxSlowdown = 1e6;
  void set_slowdown(double factor) noexcept {
    assert(factor <= kMaxSlowdown);
    slowdown_ = factor < 1.0 ? 1.0 : factor;
  }
  [[nodiscard]] double slowdown() const noexcept { return slowdown_; }

  // Silent-corruption hook: the data holder living on this device (a
  // LocalStore) installs it so fault injection can flip bytes at rest by
  // device handle alone. The hook mutates one resident object — the named
  // one, or a selector-derived pick — and returns its name ("" = nothing
  // matched). Timing-only devices without a holder ignore corruption.
  using CorruptHook = std::function<std::string(
      const std::string& object, std::uint64_t selector, CorruptKind kind)>;
  void set_corrupt_hook(CorruptHook hook) { corrupt_hook_ = std::move(hook); }
  std::string corrupt(const std::string& object, std::uint64_t selector,
                      CorruptKind kind) {
    return corrupt_hook_ ? corrupt_hook_(object, selector, kind)
                         : std::string{};
  }

  [[nodiscard]] std::uint64_t used_bytes() const noexcept { return used_; }
  [[nodiscard]] std::uint64_t io_count() const noexcept { return io_count_; }
  [[nodiscard]] std::uint64_t seek_count() const noexcept {
    return seek_count_;
  }

 private:
  sim::Task<void> io(std::uint64_t offset, std::uint64_t bytes,
                     std::uint64_t rate);

  sim::Simulation* sim_;
  DeviceParams params_;
  CorruptHook corrupt_hook_;
  double slowdown_ = 1.0;
  sim::ResourceQueue queue_;
  std::uint64_t expected_next_offset_ = ~0ull;
  std::uint64_t used_ = 0;
  std::uint64_t io_count_ = 0;
  std::uint64_t seek_count_ = 0;
};

}  // namespace hpcbb::storage
