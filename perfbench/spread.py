#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload offline_td --seeds 1-10 [--trace 0]

For every end-to-end metric it prints the median and the quartiles of the
per-seed values (statistics.quantiles, n=4) and their spread: the
interquartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json. A spread above a third of the bound is marked.
Each run's table goes to stderr; the summary to stdout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    failed = False
    for workload in args.workload:
        values = {}
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            run = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(run.stdout + run.stderr)
            if run.returncode != 0:
                print(f"{workload} seed {seed}: exit {run.returncode}")
                failed = True
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct = false")
                failed = True
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {len(seeds_of(args.seeds))} seeds")
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s" and not spread <= bound / 3:
                mark = "  <-- above a third of the bound"
            print(f"  {name:<34} median {q2:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} bound {bound}{mark}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
