#include "storage/device.h"

namespace hpcbb::storage {

std::string_view to_string(MediaKind kind) noexcept {
  switch (kind) {
    case MediaKind::kHdd: return "HDD";
    case MediaKind::kSsd: return "SSD";
    case MediaKind::kRamDisk: return "RAMDISK";
  }
  return "?";
}

DeviceParams hdd_preset() {
  return DeviceParams{.kind = MediaKind::kHdd,
                      .read_bytes_per_sec = 130 * MB,
                      .write_bytes_per_sec = 110 * MB,
                      .seek_ns = 6 * duration::ms,
                      .capacity_bytes = 2 * TiB};
}

DeviceParams ssd_preset() {
  return DeviceParams{.kind = MediaKind::kSsd,
                      .read_bytes_per_sec = 500 * MB,
                      .write_bytes_per_sec = 450 * MB,
                      .seek_ns = 60 * duration::us,
                      .capacity_bytes = 400 * GiB};
}

DeviceParams ramdisk_preset(std::uint64_t capacity_bytes) {
  return DeviceParams{.kind = MediaKind::kRamDisk,
                      .read_bytes_per_sec = 2'800 * MB,
                      .write_bytes_per_sec = 2'500 * MB,
                      .seek_ns = 1 * duration::us,
                      .capacity_bytes = capacity_bytes};
}

sim::Task<void> Device::io(std::uint64_t offset, std::uint64_t bytes,
                           std::uint64_t rate) {
  sim::SimTime service = transfer_time_ns(bytes, rate);
  if (slowdown_ > 1.0) {
    service = static_cast<sim::SimTime>(static_cast<double>(service) *
                                        slowdown_);
  }
  if (offset != expected_next_offset_) {
    service += params_.seek_ns;
    ++seek_count_;
  }
  expected_next_offset_ = offset + bytes;
  ++io_count_;

  co_await sim_->delay_until(queue_.reserve(sim_->now(), service) + service);
}

}  // namespace hpcbb::storage
