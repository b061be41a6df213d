#!/usr/bin/env python3
"""Compare two benchmark result sets row by row.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds one JSON line per run, as sweep.py writes them. Prints one
row per (workload, metric) with each side's median and quartiles. End-to-
end rows get a verdict against the metric's bound in BENCHMARK.json:

  regressed     the change's median is worse than the parent's by more
                than the bound
  unresolved    the parent's own spread (interquartile distance over the
                median) is wider than the bound, and not every change run
                beats every parent run
  improved      better by more than the parent's spread, and by more than
                the change's spread (or every change run beats every
                parent run)
  within bound  none of the above

Per-layer rows have no bound; they show the medians and the change only.
Exits 1 when any row regressed.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_spec(path=SPEC):
    with open(path) as f:
        return json.load(f)


def load_runs(path):
    """{(workload, trace): {metric: [values...]}} from a result set."""
    runs = defaultdict(lambda: defaultdict(list))
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            key = (record["workload"], int(record.get("trace", 0)))
            for name, metric in record["result"]["metrics"].items():
                if metric.get("value") is not None:
                    runs[key][name].append(float(metric["value"]))
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def fmt(q):
    q1, med, q3 = q
    return f"{med:.5g} [{q1:.4g}, {q3:.4g}]"


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent, change, better, bound):
    _, p_med, _ = quartiles(parent)
    _, c_med, _ = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    if better == "higher":
        dominates = min(change) > max(parent)
    else:
        dominates = max(change) < min(parent)
    if -gain > bound:
        return "regressed"
    if spread(parent) > bound and not dominates:
        return "unresolved"
    if gain > 0 and (dominates or gain > max(spread(parent), spread(change))):
        return "improved"
    return "within bound"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    parent, change = load_runs(argv[1]), load_runs(argv[2])
    kinds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':<8} {'metric':<38} {'parent p50 [q1, q3]':>32} "
          f"{'change p50 [q1, q3]':>32} {'delta':>8}  verdict")
    regressed = False
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        for name in kinds:
            p, c = parent[key].get(name), change[key].get(name)
            if not p or not c:
                continue
            pq, cq = quartiles(p), quartiles(c)
            delta = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else float("nan")
            label = workload if trace == 0 else workload + "*"
            row = (f"{label:<8} {name:<38} {fmt(pq):>32} {fmt(cq):>32} "
                   f"{100 * delta:+7.1f}%")
            if name in bounds and trace == 0:
                v = verdict(p, c, kinds[name]["better"], bounds[name])
                regressed |= v == "regressed"
                row += f"  {v}"
            print(row)
    print("(* = traced per-layer runs; no bound)")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
