#!/usr/bin/env python3
"""Run the benchmark several times per workload, one seed each, and report
every metric's median and its spread: the distance between the first and
third quartile as a share of the median, next to the metric's bound.

Usage (from the repository root):

    python3 e2ebench/spread.py [--runs 10] [--first-seed 1] [--trace 0|1]
                               [--workload NAME ...]

Runs are sequential so they do not disturb each other. Raw results go to
e2ebench/out/spread-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    started = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.time() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workload", nargs="*")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    raw = {}
    worst = 0.0
    for w in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, wall = run_once(spec, w, seed, args.trace)
            if not result["correct"] or result["failed"]:
                print(f"  {w} seed {seed}: correct={result['correct']} failed={result['failed']}")
            runs.append({"seed": seed, "wall_s": wall, "result": result})
            print(f"  {w} seed {seed}: {wall:.1f} s", flush=True)
        raw[w] = runs
        print(f"{w}:")
        for m in metrics:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            med, share = spread(values)
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                ratio = share / bound
                if m["name"] != "setup_s":
                    worst = max(worst, ratio)
                flag = f"bound {bound:<5} spread/bound {ratio:5.2f}"
            print(f"  {m['name']:<40} median {med:>16.6g} {m['unit']:<9} spread {share:7.4f}  {flag}")
    out = os.path.join(ROOT, "e2ebench", "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"spread-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump(raw, f, indent=1)
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}; raw results in {path}")


if __name__ == "__main__":
    main()
