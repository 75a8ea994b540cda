#include "probes.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "mapred/records.h"

namespace hpcbb::perfbench {
namespace {

constexpr int kRounds = 5;
constexpr std::size_t kBufferBytes = 16 << 20;

// Every probe folds its results in here, so no loop can be optimised away.
volatile std::uint64_t g_sink = 0;

// Median over kRounds of the host seconds `work` takes.
template <typename Work>
double median_seconds(Work&& work) {
  std::vector<double> times;
  for (int i = 0; i < kRounds; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    work();
    times.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

double gbps(std::size_t bytes, double seconds) {
  return static_cast<double>(bytes) / 1e9 / seconds;
}

}  // namespace

std::map<std::string, double> run_probes() {
  std::uint64_t sink = 0;
  const Bytes buffer = pattern_bytes(1, 0, kBufferBytes);
  constexpr int kPasses = 4;

  std::map<std::string, double> out;
  out["common.crc32c_gbps"] = gbps(kPasses * kBufferBytes, median_seconds([&] {
    for (int p = 0; p < kPasses; ++p) sink += crc32c(buffer);
  }));
  out["common.pattern_gbps"] = gbps(kPasses * kBufferBytes, median_seconds([&] {
    for (int p = 0; p < kPasses; ++p) {
      sink += pattern_bytes(sink, 0, kBufferBytes).back();
    }
  }));
  const std::uint64_t records = kBufferBytes / mapred::kRecordSize;
  out["mapred.records_gen_gbps"] =
      gbps(kPasses * records * mapred::kRecordSize, median_seconds([&] {
        for (int p = 0; p < kPasses; ++p) {
          sink += mapred::generate_records(sink, records).back();
        }
      }));
  // A fixed dependent integer chain that touches no program code: its time
  // moves only with the host, never with a change to the system under test.
  out["host.calib_s"] = median_seconds([&] {
    std::uint64_t x = sink | 1;
    for (int i = 0; i < 100'000'000; ++i) {  // xorshift64
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink += x;
  });
  g_sink = sink;
  return out;
}

}  // namespace hpcbb::perfbench
