// M1 — real-time microbenchmarks of the production data structures inside
// the KV store: slab allocation, store set/get (single- and multi-threaded),
// CRC32C, consistent-hash lookup, and the pattern generator. These run on
// the host clock via google-benchmark (everything else in bench/ reports
// simulated time).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "common/units.h"
#include "kvstore/ring.h"
#include "kvstore/slab.h"
#include "kvstore/store.h"

namespace {

using namespace hpcbb;  // NOLINT

void BM_SlabAllocateFree(benchmark::State& state) {
  kv::SlabParams params;
  params.memory_budget = 64 * MiB;
  kv::SlabAllocator slab(params);
  const int cls = slab.class_for(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    const bool taken = slab.allocate(cls);
    benchmark::DoNotOptimize(taken);
    slab.deallocate(cls);
  }
}
BENCHMARK(BM_SlabAllocateFree)->Arg(128)->Arg(4096)->Arg(65536);

kv::StoreParams micro_store_params(std::uint32_t shards) {
  kv::StoreParams params;
  params.memory_budget = 256 * MiB;
  params.shard_count = shards;
  return params;
}

void BM_StoreSet(benchmark::State& state) {
  static kv::KvStore store(micro_store_params(8));
  const auto value_size = static_cast<std::uint64_t>(state.range(0));
  const Bytes value(value_size, 0x5A);
  Rng rng(static_cast<std::uint64_t>(state.thread_index()) + 1);
  for (auto _ : state) {
    const std::string key = "key-" + std::to_string(rng.uniform(0, 9999));
    benchmark::DoNotOptimize(store.set(key, value));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      static_cast<std::uint64_t>(state.iterations()) * value_size));
}
BENCHMARK(BM_StoreSet)->Arg(128)->Arg(4096)->Threads(1)->Threads(4);

void BM_StoreGet(benchmark::State& state) {
  static kv::KvStore& store = *[] {
    auto* s = new kv::KvStore(micro_store_params(8));  // leaked: bench-global
    const Bytes value(1024, 0x33);
    for (int i = 0; i < 10000; ++i) {
      (void)s->set("key-" + std::to_string(i), value);
    }
    return s;
  }();
  Rng rng(static_cast<std::uint64_t>(state.thread_index()) + 7);
  for (auto _ : state) {
    const std::string key = "key-" + std::to_string(rng.uniform(0, 9999));
    benchmark::DoNotOptimize(store.get(key));
  }
}
BENCHMARK(BM_StoreGet)->Threads(1)->Threads(4)->Threads(8);

void BM_Crc32c(benchmark::State& state) {
  const Bytes data = pattern_bytes(1, 0, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(1 << 20);

void BM_HashRingLookup(benchmark::State& state) {
  const kv::HashRing ring(static_cast<std::uint32_t>(state.range(0)));
  Rng rng(3);
  for (auto _ : state) {
    const std::string key = "blk-" + std::to_string(rng.next() % 100000);
    benchmark::DoNotOptimize(ring.server_for(key));
  }
}
BENCHMARK(BM_HashRingLookup)->Arg(4)->Arg(16)->Arg(64);

void BM_PatternBytes(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pattern_bytes(7, 0, static_cast<std::size_t>(state.range(0))));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PatternBytes)->Arg(4096)->Arg(1 << 20);

}  // namespace

// Like the simulated-time benches (bench_util.h JsonResult), emit a
// machine-readable JSON result file by default — google-benchmark already
// speaks JSON, so default its --benchmark_out flags instead. An explicit
// --benchmark_out on the command line wins; $HPCBB_BENCH_OUT relocates the
// default file. `--gate` (stripped before google-benchmark sees the args)
// verifies the result against bench/baselines/m1.json via
// tools/bench_gate.py, exactly like the bench_util.h finish() epilogue; the
// baseline's loose tolerances absorb host-clock noise on real-time numbers.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool gate = false;
  bool has_out = false;
  std::string path = "m1_result.json";
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i > 0 && arg == "--gate") {
      gate = true;
      continue;
    }
    if (arg.starts_with("--benchmark_out=")) {
      has_out = true;
      path = arg.substr(std::string("--benchmark_out=").size());
    }
    args.push_back(argv[i]);
  }
  std::string out_flag, format_flag;
  if (!has_out) {
    if (const char* dir = std::getenv("HPCBB_BENCH_OUT")) {
      path = std::string(dir) + "/" + path;
    }
    out_flag = "--benchmark_out=" + path;
    format_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (gate) {
    const char* root = std::getenv("HPCBB_ROOT");
    const std::string base = root != nullptr ? root : ".";
    const std::string cmd = "python3 \"" + base + "/tools/bench_gate.py\""
                            " check \"" + base + "/bench/baselines/m1.json\""
                            " \"" + path + "\"";
    return std::system(cmd.c_str()) == 0 ? 0 : 1;
  }
  return 0;
}
