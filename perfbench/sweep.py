#!/usr/bin/env python3
"""Run the benchmark over several seeds and record a result set.

    python3 perfbench/sweep.py --workloads batch,serve,stream --seeds 1-10 \
        --out results.jsonl [--trace 0|1] [--seconds S]

Run from the repository root. Each run's JSON result is appended to --out
as one line {"workload", "seed", "trace", "result"}; compare.py reads these
files. Afterwards a table gives, per workload and end-to-end metric, the
median, the quartiles and the spread (interquartile distance over the
median) next to a third of the metric's bound in BENCHMARK.json, the
steadiness the benchmark aims for.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import compare  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    spec = compare.load_spec()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(args.out, "a") as out:
        for workload in args.workloads.split(","):
            for seed in parse_seeds(args.seeds):
                result = run_once(workload, seed, args.seconds, args.trace)
                record = {"workload": workload, "seed": seed,
                          "trace": args.trace, "result": result}
                out.write(json.dumps(record) + "\n")
                out.flush()
                status = "ok" if result["correct"] else "INCORRECT"
                print(f"{workload} seed {seed}: {status}", file=sys.stderr)

    runs = compare.load_runs(args.out)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'workload':<8} {'metric':<22} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound/3':>8}")
    for (workload, trace), by_metric in sorted(runs.items()):
        if trace != 0:
            continue
        for name, values in by_metric.items():
            if name not in bounds:
                continue
            q1, med, q3 = compare.quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            third = bounds[name]["bound"] / 3.0
            flag = "" if spread <= third else "  <-- wide"
            print(f"{workload:<8} {name:<22} {med:12.5g} {q1:12.5g} "
                  f"{q3:12.5g} {spread:8.4f} {third:8.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
