#!/usr/bin/env python3
"""Pretty-print and diff hpcbb experiment reports (hpcbb.report.v3).

Usage:
    tools/report.py show report.json
    tools/report.py diff baseline.json candidate.json
    tools/report.py incidents bundle.json [more.json ...]

`show` renders counters, gauges (with high-watermarks), histogram
summaries, the latency-attribution section — per-layer time with its
queue/service split plus the slowest ops and their bottleneck layers —
and the SLO health section as aligned tables. `diff` compares two
reports metric-by-metric and prints absolute and relative deltas, flagging
metrics present in only one report; when only one side has a health
section it prints "n/a" for it instead of failing. `incidents` renders
hpcbb.incident.v1 bundles (or the incident timeline of reports): the
alert timeline, the rule -> injected-fault correlation, and the suspect
op_ids in flight when each fault hit. Exit status for `diff` is 0 even
when values differ — it is a reporting tool, not a gate (see
tools/bench_gate.py for the gate).
"""

import argparse
import json
import sys

REPORT_SCHEMA = "hpcbb.report.v3"
INCIDENT_SCHEMA = "hpcbb.incident.v1"

# Counters surfaced in the dedicated resilience section (retry/timeout
# behaviour, injected faults, failover and failure-detector activity).
RESILIENCE_PREFIXES = (
    "net.retry.",
    "faults.injected",
    "kv.failover.",
    "kv.repl.",
    "kv.restarts",
    "bb.detector.",
    "bb.degraded.",
    "bb.md.",
    "bb.store.buffer_skips",
    "bb.read.lustre_fallbacks",
)

# Counters surfaced in the dedicated integrity section (corruption injected,
# checksum detection/repair on the read path, scrubber activity, quarantined
# blocks and CRC-failure fallbacks).
INTEGRITY_PREFIXES = (
    "kv.integrity.",
    "kv.scrub.",
    "bb.quarantined_blocks",
    "bb.read.local_crc_failures",
    "bb.read.buffer_crc_failures",
    "bb.read.lustre_crc_failures",
    "faults.injected{kind=corrupt.",
)

INTEGRITY_HISTOGRAMS = ("kv.scrub.pass_ns",)


def resilience_counters(counters):
    return {name: value for name, value in counters.items()
            if name.startswith(RESILIENCE_PREFIXES)}


def integrity_counters(counters):
    return {name: value for name, value in counters.items()
            if name.startswith(INTEGRITY_PREFIXES)}


def load(path):
    with open(path) as f:
        report = json.load(f)
    schema = report.get("schema")
    if schema != REPORT_SCHEMA:
        sys.exit(f"{path}: unsupported schema {schema!r} "
                 f"(want {REPORT_SCHEMA!r})")
    return report


def fmt_count(value):
    if isinstance(value, float):
        return f"{value:,.1f}"
    return f"{value:,}"


def fmt_ns(ns):
    """Histograms in this codebase overwhelmingly record nanoseconds."""
    if ns >= 1_000_000_000:
        return f"{ns / 1e9:.3f}s"
    if ns >= 1_000_000:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1_000:
        return f"{ns / 1e3:.1f}us"
    return f"{ns}ns"


def show(report):
    print(f"schema: {report['schema']}   sim_time: {fmt_ns(report['sim_time_ns'])}")

    counters = report.get("counters", {})
    if counters:
        print("\ncounters:")
        width = max(map(len, counters))
        for name in sorted(counters):
            print(f"  {name:<{width}}  {fmt_count(counters[name]):>16}")

    resilience = resilience_counters(counters)
    if resilience:
        print("\nresilience (retries / faults / failover):")
        width = max(map(len, resilience))
        for name in sorted(resilience):
            print(f"  {name:<{width}}  {fmt_count(resilience[name]):>16}")

    # Replication: repair/anti-entropy volume plus the repair-duration
    # histograms, pulled together so a recovery run reads as one story.
    repl_counters = {n: v for n, v in counters.items()
                     if n.startswith("kv.repl.")}
    repl_hists = {n: h for n, h in report.get("histograms", {}).items()
                  if n in ("kv.repl.repair_ns", "kv.repl.anti_entropy_ns",
                           "kv.repl.ack_primary_ns", "kv.repl.ack_all_ns")}
    if repl_counters or repl_hists:
        print("\nreplication (repair / anti-entropy):")
        width = max(map(len, list(repl_counters) + list(repl_hists)))
        for name in sorted(repl_counters):
            print(f"  {name:<{width}}  {fmt_count(repl_counters[name]):>16}")
        for name in sorted(repl_hists):
            h = repl_hists[name]
            print(f"  {name:<{width}}  runs {h['count']:>5,}  "
                  f"p50 {fmt_ns(h['p50'])}  p99 {fmt_ns(h['p99'])}  "
                  f"max {fmt_ns(h['max'])}")

    # Integrity: injected corruption vs detection/repair outcomes plus the
    # scrub-pass duration histogram, pulled together so a chaos run answers
    # "did any corrupt byte survive" in one glance.
    integ_counters = integrity_counters(counters)
    integ_hists = {n: h for n, h in report.get("histograms", {}).items()
                   if n in INTEGRITY_HISTOGRAMS}
    if integ_counters or integ_hists:
        print("\nintegrity (corruption / detection / repair):")
        width = max(map(len, list(integ_counters) + list(integ_hists)))
        for name in sorted(integ_counters):
            print(f"  {name:<{width}}  {fmt_count(integ_counters[name]):>16}")
        for name in sorted(integ_hists):
            h = integ_hists[name]
            print(f"  {name:<{width}}  runs {h['count']:>5,}  "
                  f"p50 {fmt_ns(h['p50'])}  p99 {fmt_ns(h['p99'])}  "
                  f"max {fmt_ns(h['max'])}")

    gauges = report.get("gauges", {})
    if gauges:
        print("\ngauges:                                      value    high-watermark")
        width = max(map(len, gauges))
        for name in sorted(gauges):
            g = gauges[name]
            print(f"  {name:<{width}}  {fmt_count(g['value']):>16}  "
                  f"{fmt_count(g['high_watermark']):>16}")

    histograms = report.get("histograms", {})
    if histograms:
        print("\nhistograms:              count       mean        p50        p95        p99        max")
        width = max(map(len, histograms))
        for name in sorted(histograms):
            h = histograms[name]
            print(f"  {name:<{width}}  {h['count']:>8,}  "
                  f"{fmt_ns(h['mean']):>9}  {fmt_ns(h['p50']):>9}  "
                  f"{fmt_ns(h['p95']):>9}  {fmt_ns(h['p99']):>9}  "
                  f"{fmt_ns(h['max']):>9}")

    timeline = report.get("timeline")
    if timeline:
        points = timeline.get("points", [])
        series = timeline.get("series", [])
        print(f"\ntimeline: {len(points)} samples x {len(series)} series, "
              f"interval {fmt_ns(timeline.get('interval_ns', 0))}")

    attribution = report.get("attribution")
    if attribution:
        show_attribution(attribution)

    health = report.get("health")
    if health:
        show_health(health)


def show_health(health):
    rules = health.get("rules", [])
    print(f"\nhealth: {len(rules)} rules, {health.get('warns', 0)} warns, "
          f"{health.get('pages', 0)} pages, {health.get('resolves', 0)} "
          f"resolves")
    if rules:
        width = max(max(len(r["name"]) for r in rules), 4)
        print(f"  {'rule':<{width}}  {'kind':<19}  {'state':<5}  "
              f"{'value':>14}  {'threshold':>14}  fast-burn  slow-burn")
        for r in rules:
            print(f"  {r['name']:<{width}}  {r['kind']:<19}  "
                  f"{r['state']:<5}  {r['value']:>14,.0f}  "
                  f"{r['threshold']:>14,.0f}  {r['fast_burn']:>9.2f}  "
                  f"{r['slow_burn']:>9.2f}")
    transitions = health.get("transitions", [])
    if transitions:
        print("\n  alert timeline:")
        for t in transitions:
            print(f"    {fmt_ns(t['t_ns']):>10}  {t['rule']:<24}  "
                  f"{t['from']} -> {t['to']}  (fast {t['fast_burn']:.2f}, "
                  f"slow {t['slow_burn']:.2f})")
    incidents = health.get("incidents", [])
    for inc in incidents:
        where = inc.get("file") or "(in memory)"
        print(f"  incident: {inc['rule']} at {fmt_ns(inc['t_ns'])} -> {where}")


def show_attribution(attribution):
    layers = attribution.get("layers", {})
    print(f"\nattribution: {attribution.get('op_count', 0):,} ops")
    if layers:
        print("  layer        ops  bottleneck      total      queue"
              "    service   queue%    p50(total)  p99(total)")
        width = max(max(map(len, layers)), 8)
        for name in sorted(layers):
            lay = layers[name]
            total = lay["total_ns"]
            queue = lay["queue_ns"]
            share = f"{queue / total:.0%}" if total else "-"
            hist = lay.get("total", {})
            print(f"  {name:<{width}}  {lay['ops']:>6,}  {lay['bottleneck_ops']:>10,}  "
                  f"{fmt_ns(total):>9}  {fmt_ns(queue):>9}  "
                  f"{fmt_ns(lay['service_ns']):>9}  {share:>7}  "
                  f"{fmt_ns(hist.get('p50', 0)):>12}  {fmt_ns(hist.get('p99', 0)):>10}")
    top = attribution.get("top_ops", [])
    if top:
        print(f"\n  slowest {len(top)} ops (critical-path breakdown):")
        for op in top:
            parts = "  ".join(
                f"{lay['layer']} {fmt_ns(lay['total_ns'])}"
                f" (q {fmt_ns(lay['queue_ns'])})" for lay in op.get("layers", []))
            print(f"    op {op['op_id']:<6} e2e {fmt_ns(op['e2e_ns']):>9}  "
                  f"bottleneck {op.get('bottleneck', '-'):<9}  {parts}")


def delta_line(name, a, b, width):
    if a == b:
        return None
    diff = b - a
    rel = f" ({diff / a:+.1%})" if a else ""
    return (f"  {name:<{width}}  {fmt_count(a):>16} -> {fmt_count(b):>16}"
            f"  {diff:+,}{rel}")


def diff_section(title, left, right, values):
    """values: name -> (a, b) extractor over the two dicts."""
    names = sorted(set(left) | set(right))
    if not names:
        return
    width = max(map(len, names))
    lines = []
    for name in names:
        if name not in left:
            lines.append(f"  {name:<{width}}  only in candidate")
            continue
        if name not in right:
            lines.append(f"  {name:<{width}}  only in baseline")
            continue
        a, b = values(left[name], right[name])
        line = delta_line(name, a, b, width)
        if line:
            lines.append(line)
    if lines:
        print(f"\n{title}:")
        print("\n".join(lines))


def diff(baseline, candidate):
    print(f"baseline sim_time {fmt_ns(baseline['sim_time_ns'])}, "
          f"candidate sim_time {fmt_ns(candidate['sim_time_ns'])}")
    diff_section("counters", baseline.get("counters", {}),
                 candidate.get("counters", {}), lambda a, b: (a, b))
    diff_section("resilience (retries / faults / failover)",
                 resilience_counters(baseline.get("counters", {})),
                 resilience_counters(candidate.get("counters", {})),
                 lambda a, b: (a, b))
    diff_section("integrity (corruption / detection / repair)",
                 integrity_counters(baseline.get("counters", {})),
                 integrity_counters(candidate.get("counters", {})),
                 lambda a, b: (a, b))
    diff_section("gauges (value)", baseline.get("gauges", {}),
                 candidate.get("gauges", {}),
                 lambda a, b: (a["value"], b["value"]))
    diff_section("histograms (p50)", baseline.get("histograms", {}),
                 candidate.get("histograms", {}),
                 lambda a, b: (a["p50"], b["p50"]))
    diff_section("histograms (p99)", baseline.get("histograms", {}),
                 candidate.get("histograms", {}),
                 lambda a, b: (a["p99"], b["p99"]))
    diff_section("attribution layers (total_ns)",
                 baseline.get("attribution", {}).get("layers", {}),
                 candidate.get("attribution", {}).get("layers", {}),
                 lambda a, b: (a["total_ns"], b["total_ns"]))
    diff_section("attribution layers (queue_ns)",
                 baseline.get("attribution", {}).get("layers", {}),
                 candidate.get("attribution", {}).get("layers", {}),
                 lambda a, b: (a["queue_ns"], b["queue_ns"]))
    diff_health(baseline, candidate)


def diff_health(baseline, candidate):
    """Health is optional (only with slo.* rules configured): a one-sided
    section is reported, never a crash."""
    b, c = baseline.get("health"), candidate.get("health")
    if b is None and c is None:
        return
    if b is None or c is None:
        print("\nhealth: n/a (section missing in one report)")
        return
    print(f"\nhealth: warns {b.get('warns', 0)} -> {c.get('warns', 0)}, "
          f"pages {b.get('pages', 0)} -> {c.get('pages', 0)}, "
          f"resolves {b.get('resolves', 0)} -> {c.get('resolves', 0)}")
    b_rules = {r["name"]: r for r in b.get("rules", [])}
    c_rules = {r["name"]: r for r in c.get("rules", [])}
    names = sorted(set(b_rules) | set(c_rules))
    width = max(map(len, names), default=4)
    for name in names:
        if name not in b_rules:
            print(f"  {name:<{width}}  only in candidate")
        elif name not in c_rules:
            print(f"  {name:<{width}}  only in baseline")
        else:
            sa, sb = b_rules[name]["state"], c_rules[name]["state"]
            ta = b_rules[name].get("breach_ticks", 0)
            tb = c_rules[name].get("breach_ticks", 0)
            if sa != sb or ta != tb:
                print(f"  {name:<{width}}  state {sa} -> {sb}, "
                      f"breach_ticks {ta:,} -> {tb:,}")


def show_incident(path, doc):
    print(f"== {path} ==")
    print(f"incident {doc.get('seq', '?')}: rule {doc['rule']} "
          f"({doc.get('kind', '?')}) paged at {fmt_ns(doc['t_ns'])}  "
          f"value {doc.get('value', 0):,.0f} vs threshold "
          f"{doc.get('threshold', 0):,.0f}  "
          f"(fast burn {doc.get('fast_burn', 0):.2f}, "
          f"slow {doc.get('slow_burn', 0):.2f})")

    alerts = doc.get("alerts", [])
    if alerts:
        print("  alert timeline:")
        for a in alerts:
            print(f"    {fmt_ns(a['t_ns']):>10}  {a['rule']:<24}  "
                  f"{a['from']} -> {a['to']}")

    # The correlation a post-mortem starts from: which injected faults are
    # still in the flight recorder, and which op_ids were in flight.
    faults = doc.get("faults", [])
    suspects = doc.get("suspect_op_ids", [])
    if faults:
        print(f"  injected faults in window ({len(faults)}):")
        for f in faults:
            print(f"    {fmt_ns(f['t_ns']):>10}  {f['name']}")
    else:
        print("  injected faults in window: none recorded")
    if suspects:
        print(f"  suspect op_ids in flight at fault time: "
              f"{', '.join(map(str, suspects))}")

    rec = doc.get("flightrec")
    if rec:
        rings = rec.get("rings", {})
        parts = ", ".join(f"{name} {len(ring.get('entries', []))}"
                          f" (dropped {ring.get('dropped', 0):,})"
                          for name, ring in sorted(rings.items()))
        print(f"  flight recorder: {parts or 'empty'}  "
              f"[total dropped {rec.get('dropped', 0):,}]")

    timeline = doc.get("timeline")
    if timeline:
        print(f"  timeline tail: {len(timeline.get('points', []))} samples x "
              f"{len(timeline.get('series', []))} series")
    for op in doc.get("slowest_ops", []):
        print(f"  slow op {op['op_id']}: e2e {fmt_ns(op['e2e_ns'])}  "
              f"bottleneck {op.get('bottleneck', '-')}")


def incidents(paths):
    """Render incident bundles; reports render their health section."""
    for i, path in enumerate(paths):
        if i:
            print()
        with open(path) as f:
            doc = json.load(f)
        schema = doc.get("schema")
        if schema == INCIDENT_SCHEMA:
            show_incident(path, doc)
        elif schema == REPORT_SCHEMA:
            print(f"== {path} ==")
            health = doc.get("health")
            if health:
                show_health(health)
            else:
                print("no health section (report predates slo.* rules "
                      "or none were configured)")
        else:
            sys.exit(f"{path}: unsupported schema {schema!r} (want "
                     f"{INCIDENT_SCHEMA} or a report schema)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_show = sub.add_parser("show", help="pretty-print one report")
    p_show.add_argument("report")
    p_diff = sub.add_parser("diff", help="compare two reports")
    p_diff.add_argument("baseline")
    p_diff.add_argument("candidate")
    p_inc = sub.add_parser(
        "incidents", help="render hpcbb.incident.v1 bundles / health sections")
    p_inc.add_argument("bundles", nargs="+")
    args = parser.parse_args()

    if args.command == "show":
        show(load(args.report))
    elif args.command == "incidents":
        incidents(args.bundles)
    else:
        diff(load(args.baseline), load(args.candidate))


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
