#!/usr/bin/env python3
"""Perf-regression gate over the BENCH_*.json smoke outputs.

CI runs the --smoke matrix twice — workload/baseline cache on (default) and
off (--no-cache) — and feeds both JSON directories here:

    compare_bench.py record --cached DIR --uncached DIR --out bench/baselines
    compare_bench.py check  --cached DIR --uncached DIR \
        --baselines bench/baselines

`record` distills every bench shape in GATES into a committed baseline
under bench/baselines/. `check` distills the current run the same way and
fails (exit 1) when a gated field breaks its rule against the baseline.

Each gate table row names the shape's input files (the cache-on/off pair
for the nine sweeps, the cached directory alone for the other benches),
the identity tag its BENCH file must carry, the fields it distills, and a
rule per gated field:

* exact — deterministic counters and the matrix shape (runs, events,
  decisions, workers, ...): a shrunk smoke matrix would make every timing
  look great. Re-record bench/baselines when the config changes on purpose.
* eps — the cache hit_rate, deterministic for a fixed sweep plan.
* tol — speedup = uncached / cached total_wall_ms. Both runs do the same
  instruction mix on one machine, so the ratio transfers across machines
  far better than wall times; gated only when the baseline replays
  simulation runs from the cache, elsewhere it is noise around 1.0.
* max / min — wall times and rates within a machine-to-machine slack.
* floor — hard speedup floors: fairshare-decay's four half-lives share
  one instance + REF baseline (2x); a warm strategy grid does one window
  + REF per cell, not per deviation (observed ~1.3-1.45x); warm dispatch
  sessions beat spawn-per-attempt (2x).
* fixed — dispatch's CSVs match across modes, with zero v1 fallbacks.
* served — sessions serve exactly shards x repeats shards.

A gate row may end with a short reason, appended to its failure line.
elapsed_speedup and the absolute times are recorded, not gated.
"""

import argparse
import json
import math
import operator
import pathlib
import sys

TOLERANCE = 0.25
HIT_RATE_EPSILON = 1e-6

# Rule -> (limit, comparison the current value must pass against it), or
# None where the rule does not apply to this baseline.
RULES = {
    "exact": lambda cur, base, f, p: (base[f], "=="),
    "eps": lambda cur, base, f, p: (base[f] - p, ">="),
    "tol": lambda cur, base, f, p: (
        (base[f] * (1.0 - p), ">=") if base["replayed_runs"] > 0 else None
    ),
    "max": lambda cur, base, f, p: (base[f] * p, "<="),
    "min": lambda cur, base, f, p: (base[f] / p, ">="),
    "floor": lambda cur, base, f, p: (p, ">="),
    "fixed": lambda cur, base, f, p: (p, "=="),
    "served": lambda cur, base, f, p: (cur["shards"] * cur["repeats"], "=="),
}
COMPARE = {"==": operator.eq, ">=": operator.ge, "<=": operator.le}

# A field is a dotted path into {"cached": ..., "uncached": ...}, or a
# (numerator, denominator) pair of paths for a ratio.
SWEEP_FIELDS = {
    "runs": "cached.runs",
    "hit_rate": "cached.cache.hit_rate",
    "replayed_runs": "cached.cache.replayed_runs",
    "speedup": ("uncached.total_wall_ms", "cached.total_wall_ms"),
    "elapsed_speedup": ("uncached.elapsed_ms", "cached.elapsed_ms"),
    "cached_total_wall_ms": "cached.total_wall_ms",
    "uncached_total_wall_ms": "uncached.total_wall_ms",
    "cached_elapsed_ms": "cached.elapsed_ms",
    "uncached_elapsed_ms": "uncached.elapsed_ms",
}
SWEEP_GATES = [
    ("runs", "exact", None, "re-record bench/baselines if intended"),
    ("hit_rate", "eps", HIT_RATE_EPSILON,
     "the prefix planner stopped sharing work"),
    ("speedup", "tol", TOLERANCE),
]
RECONFIGURED = "re-record bench/baselines if the smoke config changed"


def cached(*keys, **renamed):
    """Fields read straight from the cached BENCH file."""
    fields = {key: f"cached.{key}" for key in keys}
    fields.update({k: f"cached.{path}" for k, path in renamed.items()})
    return fields


def exact(*keys, why):
    return [(key, "exact", None, why) for key in keys]


def sweep(name, floor=None):
    floors = [("speedup", "floor", floor)] if floor else []
    return dict(name=name, inputs=("cached", "uncached"), tag="sweep",
                fields=SWEEP_FIELDS, gates=SWEEP_GATES + floors,
                shown=("elapsed_speedup",))


GATES = [
    sweep("table1"),
    sweep("table2"),
    sweep("utilization"),
    sweep("rand-convergence"),
    sweep("fig10"),
    sweep("horizon-growth"),
    sweep("fairshare-decay", floor=2.0),
    # The config-defined policy smoke (bench/configs/custom_policy.cfg).
    sweep("custom"),
    # No deviation replays a policy run (replayed_runs = 0), so only the
    # exact hit rate and the floor gate the shared honest baselines.
    sweep("strategy", floor=1.1),
    dict(
        name="ref-scaling", inputs=("cached",), tag="sweep",
        fields=cached(
            "largest_orgs", "horizon", "ref_wall_ms_per_run",
            events="engine.events", decisions="engine.decisions",
            engine_wall_ms="engine.wall_ms",
            events_per_sec="engine.events_per_sec",
            decisions_per_sec="engine.decisions_per_sec"),
        gates=exact("largest_orgs", "horizon", "events", "decisions",
                    why="the engine's event stream / decision sequence is "
                    "part of the equivalence contract; " + RECONFIGURED)
        + [("ref_wall_ms_per_run", "max", 8.0)],
    ),
    dict(
        name="serve", inputs=("cached",), tag="sweep",
        fields=cached(
            "policy", "source", "orgs", "machines", "arrivals",
            "engine_events", "decisions", "completions", "final_time",
            "peak_resident_jobs", "peak_resident_orgs", "decisions_per_sec",
            "events_per_sec", latency_p50_ns="decision_latency_ns.p50",
            latency_p99_ns="decision_latency_ns.p99"),
        gates=exact("policy", "source", "orgs", "machines", "arrivals",
                    "engine_events", "decisions", "completions",
                    "final_time", "peak_resident_jobs", "peak_resident_orgs",
                    why="the serve decision stream is pinned by the replay "
                    "contract; " + RECONFIGURED)
        + [("decisions_per_sec", "min", 8.0),
           ("latency_p99_ns", "max", 16.0)],
    ),
    dict(
        name="dispatch", inputs=("cached",), tag="benchmark",
        command="fairsched_exp dispatch --dispatch-bench",
        fields=cached(
            "workers", "shards", "repeats", "spawn_warm_ms",
            "session_cold_ms", "session_warm_ms", "warm_speedup",
            "session_opens", "session_served", "session_fallback",
            "cache_hits", "cache_misses", "csv_identical",
            bench_sweep="sweep"),
        gates=exact("bench_sweep", "workers", "shards", "repeats",
                    why="re-record bench/baselines if the bench "
                    "configuration changed")
        + [("csv_identical", "fixed", True,
            "session-mode CSV diverged from spawn-mode CSV; the "
            "dispatch-determinism contract is broken"),
           ("session_fallback", "fixed", 0,
            "attempts fell back to spawn-per-attempt; the session worker "
            "no longer speaks protocol v2 to its own dispatcher"),
           ("session_served", "served", None, "shards x repeats"),
           ("warm_speedup", "floor", 2.0),
           ("session_warm_ms", "max", 8.0)],
    ),
]


def load_json(path, what):
    """Loads a JSON file, turning every I/O or parse failure into a clear
    error that names the offending file instead of a traceback."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as err:
        raise SystemExit(f"error: cannot read {what} {path}: {err}")
    except json.JSONDecodeError as err:
        raise SystemExit(
            f"error: {what} {path} is not valid JSON ({err}); "
            f"was the producing run killed mid-write?"
        )


def load_bench(directory, gate):
    name, tag = gate["name"], gate["tag"]
    path = pathlib.Path(directory) / f"BENCH_{name}.json"
    if not path.is_file():
        command = gate.get("command", f"fairsched_exp {name} --smoke")
        raise SystemExit(
            f"error: missing bench output {path} — did the `{command}` run "
            f"for this directory complete?"
        )
    data = load_json(path, "bench output")
    if data.get(tag) != name:
        raise SystemExit(f"error: {path} reports {tag} {data.get(tag)!r}")
    return data


def lookup(benches, path):
    value = benches
    for key in path.split("."):
        value = value[key]
    return value


def distill(gate, args):
    """One baseline record from the shape's BENCH input files."""
    name = gate["name"]
    benches = {d: load_bench(getattr(args, d), gate) for d in gate["inputs"]}
    if "uncached" in benches:
        on, off = benches["cached"], benches["uncached"]
        if not on["cache"]["enabled"]:
            raise SystemExit(f"error: {name}: the --cached run had no cache")
        if off["cache"]["enabled"]:
            raise SystemExit(f"error: {name}: the --uncached run had a cache")
        if on["runs"] != off["runs"]:
            raise SystemExit(
                f"error: {name}: cached and uncached run counts differ "
                f"({on['runs']} vs {off['runs']})"
            )
    distilled = {"sweep": name}
    for field, path in gate["fields"].items():
        if isinstance(path, tuple):
            numerator, denominator = (lookup(benches, p) for p in path)
            distilled[field] = (
                numerator / denominator if denominator > 0 else math.inf
            )
        else:
            distilled[field] = lookup(benches, path)
    return distilled


def fmt(value):
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def summary(gate, values, baseline=None):
    """The gated and shown fields, each gated one that is not pinned to
    its baseline followed by the baseline value."""
    fields = {field: rule for field, rule, *_ in gate["gates"]}
    fields.update(dict.fromkeys(gate.get("shown", ())))
    return " ".join(
        f"{field}={fmt(values[field])}"
        + (f" (baseline {fmt(baseline[field])})"
           if baseline and rule not in (None, "exact", "fixed", "served")
           else "")
        for field, rule in fields.items()
    )


def record(args):
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for gate in GATES:
        current = distill(gate, args)
        path = out / f"{gate['name']}.json"
        with open(path, "w") as handle:
            json.dump(current, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"recorded {path}: {summary(gate, current)}")
    return 0


def check(args):
    failures = []
    for gate in GATES:
        name = gate["name"]
        baseline_path = pathlib.Path(args.baselines) / f"{name}.json"
        if not baseline_path.is_file():
            failures.append(f"{name}: no committed baseline {baseline_path}")
            continue
        baseline = load_json(baseline_path, "committed baseline")
        current = distill(gate, args)
        for field, rule, param, *why in gate["gates"]:
            bound = RULES[rule](current, baseline, field, param)
            if bound is None:
                continue
            limit, op = bound
            if not COMPARE[op](current[field], limit):
                failures.append(
                    f"{name}: {field}={fmt(current[field])} breaks the "
                    f"{rule} gate ({op} {fmt(limit)}, baseline "
                    f"{fmt(baseline.get(field))})"
                    + "".join(f" — {reason}" for reason in why)
                )
        print(f"{name}: {summary(gate, current, baseline)}")

    if failures:
        print("\nPERF REGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nall bench baselines within tolerance")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("record", record), ("check", check)):
        p = sub.add_parser(name)
        p.add_argument("--cached", required=True,
                       help="dir of BENCH_*.json from the default (cached) run")
        p.add_argument("--uncached", required=True,
                       help="dir of BENCH_*.json from the --no-cache run")
        p.set_defaults(fn=fn)
    sub.choices["record"].add_argument("--out", default="bench/baselines")
    sub.choices["check"].add_argument("--baselines", default="bench/baselines")
    args = parser.parse_args()
    try:
        return args.fn(args)
    except KeyError as err:
        # A bench/baseline JSON from a different schema generation: name
        # the missing key instead of dying with a traceback.
        raise SystemExit(
            f"error: bench/baseline JSON is missing key {err} — the file "
            f"predates the current schema; re-run the smoke matrix and "
            f"re-record bench/baselines"
        )


if __name__ == "__main__":
    sys.exit(main())
