#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage, from the root of a checkout:

    python3 perfbench/spread.py WORKLOAD [WORKLOAD ...] [--seeds 1-10] [--trace 0|1]

Runs BENCHMARK.json's command once per seed on each workload, checks that
every run reports correct outputs and exactly the declared metrics, and
prints each metric's median, quartiles and spread: (Q3 - Q1) / median, as
statistics.quantiles(values, n=4) gives the quartiles.  A spread is
flagged when it is not below a third of the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    declared = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    ok = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in seeds_of(args.seeds):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                print(f"{workload} seed {seed}: exit {out.returncode}, no result\n{out.stderr}")
                ok = False
                continue
            if not result["correct"] or set(result["metrics"]) != set(bounds):
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"metrics={sorted(result['metrics'])}")
                ok = False
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}", flush=True)
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            flag = ""
            if bound is not None and not spread < bound / 3:
                flag = "  <-- spread not below bound/3"
                ok = False
            print(f"  {workload:16s} {name:28s} median {med:14.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:7.4f}  bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
