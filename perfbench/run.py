#!/usr/bin/env python3
"""The repository benchmark: build hpcbb, run one workload, check it, report.

Run from the repository root:

    python3 perfbench/run.py --workload dfsio-async --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload kv-zipf --seed 3 --seconds 20 --trace 1
    python3 perfbench/run.py --selftest

The first call builds perfbench/ (and with it ../src) into
.bench_build/perfbench; later calls rebuild only what changed.

--trace 0 repeats the workload in fresh processes (at least three times, and
until --seconds of wall time have passed), checks that every repetition is
correct and that the simulated figures repeat exactly, and reports the
end-to-end metrics: host-time medians and the simulated figures.

--trace 1 alternates untraced and traced repetitions, checks that tracing
leaves every simulated figure bit-identical, runs the host-kernel probes and
reports the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}). Everything before it is for people.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("dfsio-async", "sort-local", "kv-zipf")
MIN_REPS = 3
CHILD_TIMEOUT_S = 150

# (name, unit): the end-to-end metrics of every workload, as in BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s"),
    ("host_wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_elapsed_s", "s"),
    ("sim_write_mbps", "MB/s"),
    ("sim_read_mbps", "MB/s"),
]
SIM_METRICS = [name for name, _ in END_TO_END if name.startswith("sim_")]

# (name, unit): the per-layer metrics of a traced run, as in BENCHMARK.json.
ATTR_LAYERS = ("client", "flusher", "kv", "lustre", "flowctl", "mapred", "idle")
PER_LAYER = [
    ("sim.events", "count"),
    ("sim.events_per_host_s", "1/s"),
    ("common.crc32c_gbps", "GB/s"),
    ("common.pattern_gbps", "GB/s"),
    ("mapred.records_gen_gbps", "GB/s"),
    ("mapred.map_phase_s", "s"),
    ("mapred.reduce_phase_s", "s"),
    ("mapred.shuffle_mb", "MB"),
    ("mapred.locality", "ratio"),
    ("burstbuffer.create_us.p50", "us"),
    ("burstbuffer.append_us.p50", "us"),
    ("burstbuffer.append_us.p99", "us"),
    ("burstbuffer.close_us.p99", "us"),
    ("burstbuffer.read_us.p50", "us"),
    ("burstbuffer.read_us.p99", "us"),
    ("burstbuffer.flush_ms.p50", "ms"),
    ("burstbuffer.flush_ms.p99", "ms"),
    ("burstbuffer.flush_queue_depth.max", "count"),
    ("burstbuffer.flush_drain_s", "s"),
    ("burstbuffer.lustre_fallbacks", "count"),
    ("burstbuffer.backpressure_retries", "count"),
    ("flowctl.stalls", "count"),
    ("flowctl.stall_us.p99", "us"),
    ("kvstore.client_get_us.p50", "us"),
    ("kvstore.client_get_us.p99", "us"),
    ("kvstore.client_set_us.p50", "us"),
    ("kvstore.client_set_us.p99", "us"),
    ("kvstore.server_get_us.p50", "us"),
    ("kvstore.server_get_us.p99", "us"),
    ("kvstore.server_put_us.p50", "us"),
    ("kvstore.server_put_us.p99", "us"),
    ("kvstore.hit_ratio", "ratio"),
    ("kvstore.evictions", "count"),
    ("kvstore.integrity_detected", "count"),
    ("net.rpc_calls_per_op", "ratio"),
    ("net.tx_bytes_per_user_byte", "ratio"),
    ("net.rdma_read_bytes_per_user_byte", "ratio"),
    ("net.rpc_us.p99", "us"),
    ("net.retry_attempts", "count"),
    ("lustre.write_bytes_per_user_byte", "ratio"),
    ("lustre.write_ms.p99", "ms"),
    ("lustre.queue_depth.max", "count"),
    ("lustre.read_bytes", "B"),
] + [
    (f"attr.{layer}.{part}_s", "s")
    for layer in ATTR_LAYERS
    for part in ("service", "queue")
] + [
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.peak_rss_mb", "MB"),
    ("host.calib_s", "s"),
]


def build(target):
    """Configure and build perfbench/ into BUILD_DIR. Raises on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    # The compiler's scratch files stay inside the build tree too.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", target],
    ):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                       check=True)


def child(*args):
    """One repetition in a fresh process; returns its JSON report."""
    proc = subprocess.run(
        [BINARY, *args],
        stdout=subprocess.PIPE,
        stderr=sys.stderr,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"perfbench {' '.join(args)} exited "
                           f"{proc.returncode} without a report")
    return json.loads(lines[-1])


def check_reps(reps, problems):
    """Every repetition correct, and every simulated figure repeating
    exactly, between untraced repetitions and between traced and untraced."""
    for rep in reps:
        if not rep["correct"] or rep["failed"]:
            problems.extend(rep["errors"] or ["a repetition failed"])
    first = {**reps[0]["sim"], **reps[0]["report"]}
    for rep in reps[1:]:
        figures = {**rep["sim"], **rep["report"]}
        diff = sorted(k for k in first if figures.get(k) != first[k])
        if diff:
            problems.append("simulated figures differ between repetitions: "
                            + ", ".join(diff))


def describe(rep):
    fields = ", ".join(f"{k}={v:.6g}" for k, v in sorted(rep["report"].items()))
    return (f"  {'traced  ' if rep['traced'] else 'untraced'} setup {rep['setup_s']:.3f} s, "
            f"timed {rep['host_wall_s']:.3f} s, rss {rep['peak_rss_mb']:.0f} MB | {fields}")


def run_untraced(workload, seed, seconds):
    start = time.monotonic()
    reps = []
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        reps.append(child(workload, "--seed", str(seed)))
        print(describe(reps[-1]))
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "host_wall_s": statistics.median(r["host_wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    metrics.update({name: reps[0]["sim"][name] for name in SIM_METRICS})
    return reps, metrics, END_TO_END


def run_traced(workload, seed, seconds):
    start = time.monotonic()
    plain, traced = [], []
    while not traced or time.monotonic() - start < seconds:
        plain.append(child(workload, "--seed", str(seed)))
        print(describe(plain[-1]))
        traced.append(child(workload, "--seed", str(seed), "--trace"))
        print(describe(traced[-1]))
    probes = child("probes")
    untraced_wall = statistics.median(r["host_wall_s"] for r in plain)
    metrics = dict(traced[0]["layers"])
    metrics.update({
        "sim.events_per_host_s": metrics["sim.events"] / untraced_wall,
        "trace.overhead_frac":
            statistics.median(r["host_wall_s"] for r in traced) / untraced_wall - 1,
        "trace.peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in traced),
    })
    metrics.update(probes)
    return plain + traced, metrics, PER_LAYER


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the timing decorator's tests")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    if args.selftest:
        build("perfbench_test")
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")],
                              check=False).returncode
    if args.workload is None:
        parser.error("--workload is required")

    build("perfbench")
    print(f"{args.workload}: seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    runner = run_traced if args.trace else run_untraced
    reps, values, table = runner(args.workload, args.seed, args.seconds)

    problems = []
    check_reps(reps, problems)
    names = {name for name, _ in table}
    if set(values) != names:
        problems.append("metric set mismatch: missing "
                        f"{sorted(names - set(values))}, extra "
                        f"{sorted(set(values) - names)}")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(f"  failed_op_frac {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} ops)")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in table}
    for name, unit in table:
        print(f"  {name:36s} {metrics[name]['value']:>16.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, OSError, RuntimeError,
            ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
