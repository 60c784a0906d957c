#!/usr/bin/env python3
"""REF memory gate: peak RSS growth of one-shot ref-scaling runs.

    ref_memory_gate.py --exp build/fairsched_exp

Runs `fairsched_exp ref-scaling --min-orgs=k --max-orgs=k --instances=1
--threads=1 --no-cache` at k=8 and k=11 and fails (exit 1) when the k=11
run's peak RSS exceeds the k=8 run's by more than 5 MB.

Under the psi_sp rule REF (src/sched/ref.h) records placements for the
grand coalition only; its proper subcoalitions keep counters and value
steps, never a schedule. So going from 8 to 11 organizations (255 to 2047
coalitions) adds only the engines' fixed state and their value steps:
about 1 MB on a Release build. Recording every subcoalition's schedule
and keeping it until run() returns adds about 8 MB, which this gate
catches.
The difference of two runs of one binary cancels the process's fixed
footprint (code, allocator, instance), so the bound carries across hosts.

Each run's peak RSS is read with resource.getrusage(RUSAGE_CHILDREN) in a
fresh helper process that waits for that one run only, so the readings of
the two runs never mix.
"""

import argparse
import resource
import subprocess
import sys

SMALL_ORGS = 8
LARGE_ORGS = 11
MAX_DELTA_MB = 5.0


def peak_rss_mb(command):
    """Peak RSS of `command` in MB, measured by a fresh helper process."""
    out = subprocess.run([sys.executable, __file__, "--measure", "--"] + command,
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    return float(out.strip().splitlines()[-1])


def measure(command):
    """Helper mode: runs `command` and prints its peak RSS in MB."""
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    # ru_maxrss is in KB on Linux.
    print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)


def ref_scaling(exp, orgs):
    return [exp, "ref-scaling", f"--min-orgs={orgs}", f"--max-orgs={orgs}",
            "--instances=1", "--threads=1", "--no-cache"]


def main():
    if len(sys.argv) > 2 and sys.argv[1] == "--measure":
        measure(sys.argv[3:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--exp", required=True, help="fairsched_exp binary")
    args = parser.parse_args()

    small = peak_rss_mb(ref_scaling(args.exp, SMALL_ORGS))
    large = peak_rss_mb(ref_scaling(args.exp, LARGE_ORGS))
    delta = large - small
    print(f"ref-scaling peak RSS: k={SMALL_ORGS} {small:.1f} MB, "
          f"k={LARGE_ORGS} {large:.1f} MB, delta {delta:.1f} MB "
          f"(bound {MAX_DELTA_MB:.1f} MB)")
    if delta > MAX_DELTA_MB:
        print("FAIL: REF's peak memory grows too fast with the org count; "
              "are subcoalition schedules kept resident?")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
