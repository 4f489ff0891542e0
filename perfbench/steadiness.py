#!/usr/bin/env python3
"""Steadiness report: run one workload N times and summarize each metric.

Usage (from the repository root):

    python3 perfbench/steadiness.py --workload <name> [--runs 10] [--seed0 1]
        [--seconds <s>] [--trace 0] [--json out.json]

Runs perfbench/run.py with seeds seed0 .. seed0+runs-1 and prints, per
metric, the median, the interquartile range (statistics.quantiles, n=4) as
a share of the median, and min/max, next to the metric's bound from
BENCHMARK.json. Exits 1 if any run failed or reported correct=false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--json", help="write every run's result here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs, ok = [], True
    for i in range(args.runs):
        seed = args.seed0 + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=False)
        if done.returncode != 0 or not done.stdout.strip():
            print(f"seed {seed}: run failed (exit {done.returncode})")
            ok = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        ok = ok and result["correct"] and result["failed"] == 0
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    if len(runs) < 2:
        return 1

    print(f"\n{args.workload}: {len(runs)} runs, {seconds:g} s each")
    print(f"{'metric':<48} {'unit':>7} {'median':>14} {'IQR/med':>8} {'bound':>6} "
          f"{'min':>14} {'max':>14}")
    for name in sorted(runs[0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:<48} {runs[0]['metrics'][name]['unit']:>7} {med:>14.6g} "
              f"{spread:>8.2%} {'' if bound is None else f'{bound:g}':>6} "
              f"{min(vals):>14.6g} {max(vals):>14.6g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
