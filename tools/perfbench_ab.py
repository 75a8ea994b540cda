#!/usr/bin/env python3
"""A/B host-time comparison of two built perfbench binaries.

    python3 tools/perfbench_ab.py PARENT_BIN CHANGE_BIN WORKLOAD SEED PAIRS

Runs PAIRS pairs of one repetition each, alternating which binary runs
first, and prints for every end-to-end metric each side's median and
quartiles and in how many pairs the change read better (ties count for
neither). One run per side cannot resolve host time on a shared host; the
pairs and quartiles show whether a difference is larger than the spread.

Exits 1 if any run is not correct or fails an operation, or if any
simulated figure (the report's "sim" and "report" objects) differs between
any two runs, on either side; 0 otherwise. It claims nothing by itself.
"""

import argparse
import json
import statistics
import subprocess
import sys

# (name, better): the end-to-end metrics perfbench prints.
HOST_METRICS = [("setup_s", "lower"), ("host_wall_s", "lower"),
                ("peak_rss_mb", "lower")]
SIM_METRICS = [("sim_elapsed_s", "lower"), ("sim_write_mbps", "higher"),
               ("sim_read_mbps", "higher")]
CHILD_TIMEOUT_S = 300


def run(binary, workload, seed):
    proc = subprocess.run([binary, workload, "--seed", str(seed)],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{binary} {workload} exited {proc.returncode} "
                           "without a report")
    return json.loads(lines[-1])


def value(rep, name):
    return rep["sim"][name] if name.startswith("sim_") else rep[name]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="perfbench binary built from the parent")
    parser.add_argument("change", help="perfbench binary built from the change")
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("pairs", type=int)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("PAIRS must be at least 1")

    reps = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            binary = args.parent if side == "parent" else args.change
            reps[side].append(run(binary, args.workload, args.seed))
        p, c = reps["parent"][-1], reps["change"][-1]
        print(f"pair {i + 1:2d} ({order[0]} first): host_wall_s "
              f"{p['host_wall_s']:.3f} -> {c['host_wall_s']:.3f}, setup_s "
              f"{p['setup_s']:.4f} -> {c['setup_s']:.4f}, peak_rss_mb "
              f"{p['peak_rss_mb']:.1f} -> {c['peak_rss_mb']:.1f}", flush=True)

    problems = []
    for side, runs in reps.items():
        for rep in runs:
            if not rep["correct"] or rep["failed"]:
                problems.append(f"{side}: a run was not correct: "
                                + "; ".join(rep["errors"]))
    first = {**reps["parent"][0]["sim"], **reps["parent"][0]["report"]}
    for side, runs in reps.items():
        for rep in runs:
            figures = {**rep["sim"], **rep["report"]}
            diff = sorted(k for k in first.keys() | figures.keys()
                          if figures.get(k) != first.get(k))
            if diff:
                problems.append(f"{side}: simulated figures differ from the "
                                "parent's first run: " + ", ".join(diff))

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs "
          "(median, quartiles; wins = pairs the change read better)")
    for name, better in HOST_METRICS + SIM_METRICS:
        p = [value(r, name) for r in reps["parent"]]
        c = [value(r, name) for r in reps["change"]]
        wins = sum((cv < pv) if better == "lower" else (cv > pv)
                   for pv, cv in zip(p, c))
        pq, cq = quartiles(p), quartiles(c)
        print(f"  {name:15s} parent {pq[1]:.6g} ({pq[0]:.6g}-{pq[2]:.6g})  "
              f"change {cq[1]:.6g} ({cq[0]:.6g}-{cq[2]:.6g})  "
              f"ratio {cq[1] / pq[1]:.3f}  wins {wins}/{args.pairs}")
    events = {r["sim"]["sim.events"] for runs in reps.values() for r in runs}
    print(f"  sim.events      {', '.join(str(e) for e in sorted(events))}")

    for problem in dict.fromkeys(problems):
        print("FAIL: " + problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
