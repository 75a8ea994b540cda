#!/usr/bin/env python3
"""Perf-regression gate for benchmark results.

Compares a freshly-produced benchmark result against a committed baseline
and fails (exit 1) when any pinned data point drifts outside its relative
tolerance — the automatic perf verdict every PR gets from the CI perf-gate
job. Accepts both result formats the repo produces: hpcbb.bench.v1 (the
simulated-time benches' JsonResult files) and google-benchmark JSON
(bench_m1_kv_micro's real-time microbenchmark output; with repetitions,
each benchmark's median is gated).

Usage:
    tools/bench_gate.py check BASELINE RESULT [--tol T] [--scale-candidate F]
    tools/bench_gate.py update RESULT [--out DIR] [--tol T] [--bench ID]
    tools/bench_gate.py trajectory RESULT_DIR... --out FILE [--label L]

`check` prints a pass/fail table, one row per baseline point. Tolerance
precedence: a point's own "tolerance" in the baseline, else --tol, else the
baseline's "default_tolerance". Points present only in the candidate are
informational (new series don't fail the gate); points missing from the
candidate do fail. --scale-candidate multiplies every candidate value, which
is how CI self-tests that an injected 2x regression actually trips the gate.

`update` (re)generates a baseline from a result file — run it after an
intentional perf change and commit the new bench/baselines/<id>.json.
Host-time series (names starting "host.", such as host.wall_s and
host.peak_rss_mb) are never written to a baseline; `check` lists them as
informational.

`trajectory` collects the host-time series of every hpcbb.bench.v1 result
in the RESULT_DIRs into FILE (schema hpcbb.hosttraj.v1) under LABEL, keeping
the other labels already there. Given a directory per repetition of the same
benches, it keeps each point's median over them. `tools/check.sh --gate FILE
LABEL` runs it once per checkout, so one file holds a change's host time and
peak RSS beside its parent's.

Baseline schema (hpcbb.gatebase.v1):
    {"schema": "hpcbb.gatebase.v1", "bench": "f1", "default_tolerance": 0.05,
     "points": [{"series": "...", "x": "...", "value": 123.4,
                 "tolerance": 0.10}]}   # per-point tolerance optional

Simulated-time benches are deterministic, so their baselines can pin values
tightly (default 5%). Real-time benches (m1) need loose tolerances: the
committed baseline is only meant to catch order-of-magnitude regressions
across very different CI hosts.
"""

import argparse
import json
import os
import statistics
import sys

GATEBASE_SCHEMA = "hpcbb.gatebase.v1"
BENCH_SCHEMA = "hpcbb.bench.v1"
TRAJECTORY_SCHEMA = "hpcbb.hosttraj.v1"

# Series measured on the host clock: reported, never pinned.
HOST_PREFIX = "host."

# google-benchmark time_unit -> nanoseconds
TIME_UNITS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        sys.exit(f"bench_gate: cannot read {path}: {e.strerror}")
    except json.JSONDecodeError as e:
        sys.exit(f"bench_gate: {path} is not valid JSON: {e}")


def result_points(doc, path):
    """Normalise a result file to {(series, x): value} plus a bench id."""
    if doc.get("schema") == BENCH_SCHEMA:
        points = {}
        for p in doc.get("points", []):
            points[(p["series"], str(p["x"]))] = float(p["value"])
        return doc.get("bench", "unknown"), points
    if "benchmarks" in doc:  # google-benchmark JSON
        # A run with --benchmark_repetitions carries a median aggregate per
        # benchmark: gate on it, under the benchmark's own name (run_name).
        # A single run carries only its iteration rows.
        rows = doc["benchmarks"]
        picked = [(b["run_name"], b) for b in rows
                  if b.get("aggregate_name") == "median"]
        if not picked:
            picked = [(b["name"], b) for b in rows
                      if b.get("run_type") != "aggregate"]
        points = {}
        for series, b in picked:
            unit = TIME_UNITS.get(b.get("time_unit", "ns"), 1.0)
            points[(series, "cpu_time_ns")] = float(b["cpu_time"]) * unit
        return "m1", points
    sys.exit(f"bench_gate: {path}: neither {BENCH_SCHEMA} nor "
             "google-benchmark JSON")


def load_baseline(path):
    if not os.path.exists(path):
        sys.exit(f"bench_gate: no baseline at {path} — generate one with:\n"
                 f"  tools/bench_gate.py update <result.json> "
                 f"--out {os.path.dirname(path) or '.'}")
    doc = load_json(path)
    if doc.get("schema") != GATEBASE_SCHEMA:
        sys.exit(f"bench_gate: {path}: unsupported schema "
                 f"{doc.get('schema')!r} (want {GATEBASE_SCHEMA!r})")
    return doc


def check(args):
    baseline = load_baseline(args.baseline)
    _, candidate = result_points(load_json(args.result), args.result)
    if args.scale_candidate != 1.0:
        candidate = {k: v * args.scale_candidate for k, v in candidate.items()}
        print(f"note: candidate values scaled x{args.scale_candidate:g} "
              "(gate self-test)")

    rows = []
    failures = 0
    for p in baseline.get("points", []):
        key = (p["series"], str(p["x"]))
        base = float(p["value"])
        tol = p.get("tolerance", args.tol if args.tol is not None
                    else baseline.get("default_tolerance", 0.05))
        name = f"{key[0]} @ {key[1]}"
        if key not in candidate:
            rows.append((name, base, None, tol, "MISSING"))
            failures += 1
            continue
        cand = candidate[key]
        if base == 0:
            ok = cand == 0
            rel = 0.0 if ok else float("inf")
        else:
            rel = (cand - base) / base
            ok = abs(rel) <= tol
        rows.append((name, base, cand, tol, f"{rel:+.1%}" if ok else "FAIL"))
        failures += 0 if ok else 1
    extras = sorted(set(candidate) - {(p["series"], str(p["x"]))
                                      for p in baseline.get("points", [])})

    width = max((len(r[0]) for r in rows), default=10)
    print(f"perf gate: {args.result} vs {args.baseline} "
          f"(bench {baseline.get('bench')})")
    print(f"  {'point':<{width}}  {'baseline':>12}  {'candidate':>12}  "
          f"{'tol':>6}  verdict")
    for name, base, cand, tol, verdict in rows:
        cand_s = f"{cand:.6g}" if cand is not None else "-"
        print(f"  {name:<{width}}  {base:>12.6g}  {cand_s:>12}  "
              f"{tol:>6.0%}  {verdict}")
    for key in extras:
        note = ("informational (host)" if key[0].startswith(HOST_PREFIX)
                else "new (not gated)")
        print(f"  {f'{key[0]} @ {key[1]}':<{width}}  {'-':>12}  "
              f"{candidate[key]:>12.6g}  {'':>6}  {note}")

    if failures:
        print(f"gate: FAIL ({failures} of {len(rows)} points out of "
              "tolerance or missing)")
        return 1
    print(f"gate: PASS ({len(rows)} points within tolerance)")
    return 0


def update(args):
    bench, points = result_points(load_json(args.result), args.result)
    if args.bench:
        bench = args.bench
    baseline = {
        "schema": GATEBASE_SCHEMA,
        "bench": bench,
        "default_tolerance": args.tol if args.tol is not None else 0.05,
        "points": [{"series": series, "x": x, "value": value}
                   for (series, x), value in sorted(points.items())
                   if not series.startswith(HOST_PREFIX)],
    }
    path = os.path.join(args.out, f"{bench}.json")
    os.makedirs(args.out, exist_ok=True)
    with open(path, "w") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    print(f"baseline ({len(baseline['points'])} points, default tol "
          f"{baseline['default_tolerance']:.0%}) written to {path}")
    return 0


def host_cpu():
    """The host's CPU model and core count, recorded beside its timings."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} cores"


def trajectory(args):
    runs = {}  # bench -> host point -> its value in each directory
    for result_dir in args.result_dirs:
        for name in sorted(os.listdir(result_dir)):
            if not name.endswith(".json"):
                continue
            doc = load_json(os.path.join(result_dir, name))
            if doc.get("schema") != BENCH_SCHEMA:
                continue  # google-benchmark output carries no host points
            bench, points = result_points(doc, name)
            for (series, _), value in points.items():
                if series.startswith(HOST_PREFIX):
                    runs.setdefault(bench, {}).setdefault(
                        series[len(HOST_PREFIX):], []).append(value)
    if not runs:
        sys.exit(f"bench_gate: no {BENCH_SCHEMA} host points in "
                 f"{' '.join(args.result_dirs)}")
    benches = {bench: {point: statistics.median(values)
                       for point, values in host.items()}
               for bench, host in runs.items()}
    doc = {"schema": TRAJECTORY_SCHEMA, "runs": {}}
    if os.path.exists(args.out):
        doc = load_json(args.out)
        if doc.get("schema") != TRAJECTORY_SCHEMA:
            sys.exit(f"bench_gate: {args.out}: unsupported schema "
                     f"{doc.get('schema')!r} (want {TRAJECTORY_SCHEMA!r})")
    doc["runs"][args.label] = {"host": host_cpu(), "benches": benches}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"host trajectory: {len(benches)} benches written to {args.out} "
          f"as {args.label!r}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="gate a result against a baseline")
    p_check.add_argument("baseline")
    p_check.add_argument("result")
    p_check.add_argument("--tol", type=float, default=None,
                         help="override the baseline's default tolerance")
    p_check.add_argument("--scale-candidate", type=float, default=1.0,
                         help="multiply candidate values (regression "
                              "self-test)")

    p_update = sub.add_parser("update", help="write a baseline from a result")
    p_update.add_argument("result")
    p_update.add_argument("--out", default="bench/baselines",
                          help="baseline directory (default bench/baselines)")
    p_update.add_argument("--tol", type=float, default=None,
                          help="default tolerance to embed (default 0.05)")
    p_update.add_argument("--bench", default=None,
                          help="bench id override (required semantics for "
                               "google-benchmark input defaults to m1)")

    p_traj = sub.add_parser("trajectory",
                            help="collect host points into a trajectory")
    p_traj.add_argument("result_dirs", nargs="+", metavar="result_dir",
                        help="result directories, one per repetition")
    p_traj.add_argument("--out", required=True,
                        help="trajectory file to write or extend")
    p_traj.add_argument("--label", default="change",
                        help="name of this run in the file (default change)")

    args = parser.parse_args()
    if args.command == "check":
        sys.exit(check(args))
    if args.command == "trajectory":
        sys.exit(trajectory(args))
    sys.exit(update(args))


if __name__ == "__main__":
    main()
