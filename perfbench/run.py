#!/usr/bin/env python3
"""Builds and runs the fairsched benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout. The first run configures and
builds libfairsched, the fairsched_exp session worker and the benchmark
binary from source with CMake (Release) under $CARGO_TARGET_DIR, or
.bench_build when that is unset, both relative to the checkout root. The
benchmark's standard output is passed through; its last line is the JSON
result. Build logs and the benchmark's standard error go to files in the
build directory. Exits non-zero, printing no result, when the build or
the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper-cells", "strategy-grid", "serve", "dispatch")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args()


def tail(path, lines=30):
    try:
        return "".join(path.read_text(errors="replace").splitlines(True)[-lines:])
    except OSError:
        return ""


def build(root, build_dir):
    """Configures (once) and builds; returns the build directory or exits."""
    log = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "--parallel", "4"])
    with open(log, "w") as out:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
            if code != 0:
                # A failed configure must not leave a cache behind that
                # skips configuring next time.
                (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
                sys.stderr.write(tail(log))
                sys.exit(f"perfbench: build step failed ({code}): {' '.join(step)}")


def main():
    args = parse_args()
    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    build(root, build_dir)

    out_dir = build_dir / "out" / f"{args.workload}-{args.seed}-{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    command = [str(build_dir / "fairsched_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out", str(out_dir),
               "--worker-bin", str(build_dir / "fairsched_exp")]
    stderr_path = out_dir / "stderr.log"
    with open(stderr_path, "w") as err:
        try:
            run = subprocess.run(command, stdout=subprocess.PIPE, stderr=err,
                                 cwd=root, timeout=RUN_TIMEOUT_S, text=True)
        except subprocess.TimeoutExpired:
            sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        sys.stderr.write(tail(stderr_path))
        sys.exit(f"perfbench: benchmark exited with {run.returncode}")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
