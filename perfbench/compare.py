#!/usr/bin/env python3
"""Compares benchmark result sets against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py A.jsonl            # one set: spreads
    python3 perfbench/compare.py A.jsonl B.jsonl    # A = base, B = change

A result set is a file of run records, one JSON object per line, as
`perfbench/run.py --out FILE` appends them (a captured stdout with
"record: {...}" lines works too). Untraced runs are grouped per workload;
for every end-to-end metric the tool prints each side's median and
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median.

With one set, a metric is "steady" when its spread is within a third of its
bound (setup_s is reported but exempt, as in the acceptance rule). With two
sets, the verdict per workload and metric is:
  worse       B's median is worse than A's by more than the bound;
  better      B's median is better by more than A's own spread and the two
              interquartile ranges do not overlap;
  unresolved  anything else (within noise or within the bound).
Traced runs (per-layer metrics, no bounds) are listed as medians. When the
records carry it, each side's median host-probe time is printed too: a job
that uses no library code, so a shift it shares is the host's.
Exit status 1 when any metric is worse (two sets) or unsteady (one set).
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path):
    records = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line.startswith("record: "):
            line = line[len("record: "):]
        if not line.startswith("{"):
            continue
        rec = json.loads(line)
        if "workload" in rec and "end_to_end" in rec:
            records.append(rec)
    return records


def group(records, trace):
    """{workload: {metric: [values]}} over runs of the given trace flag."""
    out = defaultdict(lambda: defaultdict(list))
    key = "per_layer" if trace else "end_to_end"
    for rec in records:
        if int(rec.get("trace", 0)) != trace:
            continue
        for name, m in rec[key].items():
            if m.get("value") is not None:
                out[rec["workload"]][name].append(float(m["value"]))
    return out


def host_probe(records, workload):
    """Median host-probe time (ms) over a set's untraced runs of a workload,
    or None for records without it."""
    values = [(r["host_probe_ms"]["before"] + r["host_probe_ms"]["after"]) / 2
              for r in records
              if r["workload"] == workload and not int(r.get("trace", 0))
              and "host_probe_ms" in r]
    return statistics.median(values) if values else None


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def fmt(v):
    return f"{v:.6g}"


def verdict(a, b, bound, better):
    med_a, q1_a, q3_a, spread_a = a
    med_b, q1_b, q3_b, _ = b
    if med_a == 0:
        return "unresolved"
    change = (med_b - med_a) / abs(med_a)  # > 0: B larger
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse"
    disjoint = q3_b < q1_a if better == "lower" else q1_b > q3_a
    if -worse_by > spread_a and disjoint:
        return "better"
    return "unresolved"


def main():
    parser = argparse.ArgumentParser(description="compare result sets")
    parser.add_argument("sets", nargs="+", help="one or two result files")
    parser.add_argument("--bench", default=str(
        Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = parser.parse_args()
    if len(args.sets) > 2:
        parser.error("give one or two result sets")
    bench = json.loads(Path(args.bench).read_text())
    metrics = bench["end_to_end"]
    sets = [load(p) for p in args.sets]
    grouped = [group(s, 0) for s in sets]
    failing = False

    for w in [w["name"] for w in bench["workloads"]]:
        if not any(w in g for g in grouped):
            continue
        counts = " / ".join(str(len(next(iter(g[w].values()), []))) for g in grouped)
        print(f"\n{w}  (runs: {counts})")
        probes = [host_probe(recs, w) for recs in sets]
        if all(p is not None for p in probes):
            line = "  host probe ms (a job that uses no library code): " + \
                " / ".join(fmt(p) for p in probes)
            if len(probes) == 2:
                line += f"  ({(probes[1] / probes[0] - 1) * 100:+.1f} %)"
            print(line)
        head = f"  {'metric':<16} {'bound':>6}"
        for label in ("A", "B")[:len(grouped)]:
            head += f" {label + ' median':>13} {label + ' Q1':>11} {label + ' Q3':>11} {label + ' spread':>9}"
        print(head + ("   verdict" if len(grouped) == 2 else "   status"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sides = [g[w].get(name) for g in grouped]
            if any(not v for v in sides):
                print(f"  {name:<16} missing")
                failing = True
                continue
            sums = [summary(v) for v in sides]
            row = f"  {name:<16} {bound:>6.3g}"
            for med, q1, q3, spread in sums:
                row += f" {fmt(med):>13} {fmt(q1):>11} {fmt(q3):>11} {spread:>9.4f}"
            if len(sums) == 2:
                v = verdict(sums[0], sums[1], bound, m["better"])
                failing |= v == "worse"
                row += f"   {v}"
            else:
                exempt = name == "setup_s"
                steady = sums[0][3] <= bound / 3
                failing |= not (steady or exempt)
                row += "   " + ("steady" if steady else
                                "exempt" if exempt else "UNSTEADY")
            print(row)

    layer = [group(s, 1) for s in sets]
    for w in sorted(set().union(*[g.keys() for g in layer])):
        print(f"\n{w} per-layer medians (traced runs)")
        names = sorted(set().union(*[g[w].keys() for g in layer]))
        for name in names:
            cells = [fmt(statistics.median(g[w][name])) if g[w].get(name)
                     else "-" for g in layer]
            print(f"  {name:<42} " + " ".join(f"{c:>14}" for c in cells))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
