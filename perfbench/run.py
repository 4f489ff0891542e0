#!/usr/bin/env python3
"""Build and run the mcopt performance benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) on first use, runs one workload, and prints
the program's notes followed, as the last stdout line, by one JSON object
{"correct", "attempted", "failed", "metrics"}. Untraced runs report the
end-to-end metrics of BENCHMARK.json, traced runs its per-layer metrics; a
per-layer metric the workload does not exercise reads 0. Exits non-zero,
printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("des_sweep", "native_kernels", "service_small_jobs")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")
    return os.path.join(build_dir, "perfbench")


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    try:
        end_to_end, per_layer = declared_metrics()
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    binary = build()

    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="4", MCOPT_LOG_LEVEL="warn")
    if args.workload == "native_kernels":
        # 4 pinned OpenMP threads, one per core. Only here: libgomp binds the
        # initial thread when OMP_PROC_BIND is set, and threads it spawns
        # (the service's workers) would inherit that one-core mask.
        env.update(OMP_PROC_BIND="close", OMP_PLACES="cores")
    else:
        env.pop("OMP_PROC_BIND", None)
        env.pop("OMP_PLACES", None)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--golden", os.path.join(HERE, "golden.txt"),
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, timeout=RUN_TIMEOUT_S, text=True, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"{args.workload} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("no output")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON")

    declared = per_layer if args.trace == "1" else end_to_end
    got = result.get("metrics", {})
    metrics = {}
    for m in declared:
        name = m["name"]
        if name in got:
            if got[name]["unit"] != m["unit"]:
                fail(f"metric {name}: unit {got[name]['unit']} != declared {m['unit']}")
            metrics[name] = got[name]
        elif args.trace == "1":
            metrics[name] = {"value": 0.0, "unit": m["unit"]}
        else:
            fail(f"end-to-end metric {name} missing")
    undeclared = sorted(set(got) - set(metrics))
    if undeclared:
        fail(f"undeclared metrics: {', '.join(undeclared)}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
