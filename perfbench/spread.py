#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs each workload once per seed
and reports, for every end-to-end metric, the distance between the first
and third quartile of the runs as a share of their median, against the
metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Each run uses another seed. The spread of setup_s is reported but not
held to its bound (set-up times are compared between medians only).
Exits 1 when a run fails or a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for k in range(args.runs):
            seed = args.first_seed + k
            cmd = bench["command"] + [
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", "0",
            ]
            start = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - start
            host = [l for l in proc.stderr.splitlines()
                    if l.startswith(("# host", "# timed work"))]
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                print(proc.stderr[-2000:])
                ok = False
                continue
            result = json.loads(lines[-1])
            print(f"{workload} seed {seed}: {wall:.1f} s, correct {result['correct']}, "
                  f"attempted {result['attempted']}, failed {result['failed']} "
                  f"{' '.join(host)}", flush=True)
            ok &= result["correct"] and result["failed"] == 0
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
            held = name == "setup_s" or spread <= bounds[name]
            ok &= held
            print(f"  {name:18s} median {med:12.5g}  spread {spread:6.3f}  "
                  f"bound {bounds[name]:4.2f}  {'ok' if held else 'TOO WIDE'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
