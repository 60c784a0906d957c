#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py --workloads paper-cells,serve --runs 10

Runs perfbench/run.py untraced once per seed (seeds 1..runs) for each
workload, then prints, per metric, the median of the runs and
the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. The
bounds in BENCHMARK.json are set against these spreads (README.md).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(workload, seed, seconds):
    script = Path(__file__).resolve().parent / "run.py"
    out = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed ops")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        config = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        seconds = json.loads(config.read_text())["run_seconds"]

    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds)
                for seed in range(1, args.runs + 1)]
        print(f"{workload}: {args.runs} runs of {seconds} s")
        for name in runs[0]:
            values = [r[name] for r in runs]
            print(f"  {name:24s} median {statistics.median(values):14.6g}"
                  f"  spread {spread(values):7.2%}  "
                  + " ".join(f"{v:.4g}" for v in values))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
