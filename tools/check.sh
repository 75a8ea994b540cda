#!/usr/bin/env bash
# Full verification: build and test the default (RelWithDebInfo) and the
# Sanitize (ASan+UBSan) configurations.
#
#   tools/check.sh            # both configurations
#   tools/check.sh --fast     # default configuration only
#   tools/check.sh --chaos    # chaos-labeled tests + seeded bench_a4_chaos
#                             # smoke + master crashes (scrubber on,
#                             # checkpoints, R=2 with a KV crash,
#                             # size-triggered checkpoints, a late crash
#                             # that leaves spans open at teardown), all
#                             # under ASan+UBSan
#   tools/check.sh --tsan     # common_test + mapred_test +
#                             # integration_test under ThreadSanitizer
#                             # (build-tsan/): the byte pool, which also
#                             # runs the MapReduce engine's host tasks
#   tools/check.sh --gate     # perf-regression gate: bench_m1_kv_micro +
#                             # bench_f1_kv_latency + bench_f2_kv_throughput +
#                             # bench_f3_dfsio_write + bench_f4_dfsio_read +
#                             # bench_f5_sort + bench_f6_io_intensive +
#                             # bench_f7_schemes + bench_f8_fault +
#                             # bench_f9_local_storage + bench_f10_scaling +
#                             # bench_f11_capacity + bench_a1_bb_transport +
#                             # bench_a2_read_promotion + bench_a3_overload +
#                             # the seeded bench_a4_chaos smoke vs
#                             # bench/baselines/, plus an
#                             # injected-regression self-test
#   tools/check.sh --gate FILE [LABEL]
#                             # the gate, with every F/A bench run twice
#                             # more; the median of each host.* point over
#                             # the three runs (host.wall_s,
#                             # host.peak_rss_mb, ...) is written into the
#                             # host trajectory FILE as run LABEL (default
#                             # "change"; other runs in FILE are kept)
#
# Build trees: build/, build-sanitize/ and build-tsan/ at the repo root.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
fast=0
chaos=0
gate=0
tsan=0
[[ "${1:-}" == "--fast" ]] && fast=1
[[ "${1:-}" == "--tsan" ]] && tsan=1
[[ "${1:-}" == "--chaos" ]] && chaos=1
[[ "${1:-}" == "--gate" ]] && gate=1
trajectory="${2:-}"
trajectory_label="${3:-change}"

if [[ "${gate}" == 1 ]]; then
  echo "== gate: configure (RelWithDebInfo) =="
  cmake -B build -S .
  echo "== gate: build gated benches =="
  cmake --build build -j "${jobs}" --target bench_f1_kv_latency \
    bench_f2_kv_throughput bench_f3_dfsio_write bench_f4_dfsio_read \
    bench_f5_sort bench_f6_io_intensive bench_f7_schemes bench_f8_fault \
    bench_f9_local_storage bench_f10_scaling bench_f11_capacity \
    bench_a1_bb_transport bench_a2_read_promotion bench_a3_overload \
    bench_a4_chaos bench_m1_kv_micro
  out="$(mktemp -d)"
  # The result files go with the run, whether it passes or a bench fails.
  trap 'rm -rf "${out}"' EXIT
  # One run's host time swings by more than most changes move it: for a
  # trajectory, each F/A bench runs twice more, into a directory per
  # repetition, and only the first run is gated.
  host_dirs=("${out}")
  if [[ -n "${trajectory}" ]]; then
    host_dirs+=("${out}/rep2" "${out}/rep3")
    mkdir -p "${out}/rep2" "${out}/rep3"
  fi
  gate_bench() {
    HPCBB_BENCH_OUT="${out}" "./build/bench/$1" "${@:2}" --gate
    local dir
    for dir in "${host_dirs[@]:1}"; do
      echo "== gate: $1 again, for host time only =="
      HPCBB_BENCH_OUT="${dir}" "./build/bench/$1" "${@:2}" >/dev/null
    done
  }
  for bench in bench_f1_kv_latency bench_f2_kv_throughput \
      bench_f3_dfsio_write bench_f4_dfsio_read bench_f5_sort \
      bench_f6_io_intensive bench_f7_schemes bench_f8_fault \
      bench_f9_local_storage bench_f10_scaling bench_f11_capacity \
      bench_a1_bb_transport bench_a2_read_promotion bench_a3_overload; do
    echo "== gate: ${bench} (simulated time, deterministic) =="
    gate_bench "${bench}"
  done
  # A master crash and journal replay per scheme, among other fault paths.
  echo "== gate: bench_a4_chaos smoke (simulated time, seeded) =="
  gate_bench bench_a4_chaos smoke=1 faults.seed=1
  # One short run per benchmark swings severalfold on a shared host; the
  # gate reads the median of seven.
  echo "== gate: bench_m1_kv_micro (real time, median of 7, loose tolerances) =="
  HPCBB_BENCH_OUT="${out}" ./build/bench/bench_m1_kv_micro --gate \
    --benchmark_min_time=0.02 --benchmark_repetitions=7 \
    --benchmark_report_aggregates_only=true
  echo "== gate: self-test (an injected 2x regression must fail) =="
  if python3 tools/bench_gate.py check bench/baselines/f1.json \
      "${out}/f1_result.json" --scale-candidate 2.0 >/dev/null; then
    echo "gate self-test FAILED: a 2x regression passed the gate" >&2
    exit 1
  fi
  echo "perf gate passed (and the self-test regression was caught)"
  if [[ -n "${trajectory}" ]]; then
    python3 tools/bench_gate.py trajectory "${host_dirs[@]}" \
      --out "${trajectory}" --label "${trajectory_label}"
  fi
  exit 0
fi

if [[ "${chaos}" == 1 ]]; then
  echo "== chaos: configure (Sanitize) =="
  cmake -B build-sanitize -S . -DCMAKE_BUILD_TYPE=Sanitize
  echo "== chaos: build =="
  cmake --build build-sanitize -j "${jobs}" --target resilience_test repl_test integrity_test master_recovery_test master_replay_test health_test bench_a4_chaos experiment_runner
  echo "== chaos: ctest -L chaos =="
  ctest --test-dir build-sanitize --output-on-failure -j "${jobs}" -L chaos
  echo "== chaos: bench_a4_chaos smoke (seeded) =="
  ./build-sanitize/bench/bench_a4_chaos smoke=1 faults.seed=1
  # Each run crashes the master once, so its tasks unwind mid-operation.
  master_crash="faults.enabled=true faults.master.first=5ms"
  master_crash+=" faults.master.downtime=10ms faults.master.count=1"
  echo "== chaos: master crash and restart with the scrubber on =="
  ./build-sanitize/examples/experiment_runner fs=bb files=4 file.size=32m \
    bb.md.journal=true kv.scrub.interval=2ms ${master_crash}
  echo "== chaos: master crash with periodic checkpoints =="
  ./build-sanitize/examples/experiment_runner fs=bb files=4 file.size=16m \
    bb.md.journal=true bb.md.checkpoint_interval=3ms ${master_crash}
  echo "== chaos: master and KV server crash, R=2 journal =="
  ./build-sanitize/examples/experiment_runner fs=bb files=4 file.size=16m \
    kv.repl.factor=2 kv.failover=true bb.md.journal=true bb.heartbeat=2ms \
    ${master_crash} faults.crash.first=8ms faults.crash.downtime=20ms \
    faults.crash.count=1
  echo "== chaos: master crash with size-triggered checkpoints =="
  ./build-sanitize/examples/experiment_runner fs=bb block.size=8m \
    files=4 file.size=16m bb.md.journal=true bb.md.journal_max_bytes=256 \
    ${master_crash}
  # The crash lands after the writes, so flush workers are still parked in
  # open spans when the run ends and the cluster is torn down.
  echo "== chaos: master crash late in the run, spans open at teardown =="
  ./build-sanitize/examples/experiment_runner fs=bb block.size=8m files=4 \
    file.size=16m bb.md.journal=true faults.enabled=1 \
    faults.master.first=30ms faults.master.downtime=5ms
  echo "chaos checks passed"
  exit 0
fi

if [[ "${tsan}" == 1 ]]; then
  # No suppressions: any report fails the run. Warnings do not: this
  # configuration checks threads, and the default one checks warnings.
  echo "== tsan: configure (RelWithDebInfo + ThreadSanitizer) =="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DHPCBB_WERROR=OFF -DCMAKE_CXX_FLAGS="-g -fsanitize=thread" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  echo "== tsan: build =="
  cmake --build build-tsan -j "${jobs}" --target common_test mapred_test \
    integration_test
  echo "== tsan: common_test =="
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/common_test
  echo "== tsan: mapred_test =="
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/mapred_test
  echo "== tsan: integration_test =="
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/integration_test
  echo "tsan checks passed"
  exit 0
fi

run_config() {
  local name="$1" dir="$2" build_type="$3"
  echo "== ${name}: configure (${build_type}) =="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE="${build_type}"
  echo "== ${name}: build =="
  cmake --build "${dir}" -j "${jobs}"
  echo "== ${name}: ctest =="
  ctest --test-dir "${dir}" --output-on-failure -j "${jobs}"
}

run_config "default" build RelWithDebInfo

if [[ "${fast}" == 0 ]]; then
  run_config "sanitize" build-sanitize Sanitize
fi

echo "all checks passed"
