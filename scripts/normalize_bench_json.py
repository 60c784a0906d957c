#!/usr/bin/env python3
"""Canonicalize a BENCH_*.json for determinism diffs.

The sweep engine's determinism contract covers the statistical output;
wall-clock measurements and cache/shard accounting are observations of one
particular execution and legitimately differ between a whole run and a
sharded+merged run. This script drops exactly those
volatile fields and re-dumps the rest with sorted keys, so two equivalent
runs must compare byte-equal:

    diff <(normalize_bench_json.py a.json) <(normalize_bench_json.py b.json)

Used by the shard-equivalence CI job next to the (stricter) raw byte diff
of the CSV outputs, which contain no volatile fields in the first place.
"""

import json
import sys

# Top-level fields outside the deterministic contract.
VOLATILE_TOP = {"baseline_wall_ms", "total_wall_ms", "elapsed_ms",
                "cache", "shards"}
# Per-cell fields outside it.
VOLATILE_CELL = {"wall_ms"}


def canonicalize(path):
    with open(path) as handle:
        data = json.load(handle)
    for key in VOLATILE_TOP:
        data.pop(key, None)
    for cell in data.get("cells", []):
        for key in VOLATILE_CELL:
            cell.pop(key, None)
    return json.dumps(data, indent=2, sort_keys=True)


def main():
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} BENCH_file.json", file=sys.stderr)
        return 2
    print(canonicalize(sys.argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
