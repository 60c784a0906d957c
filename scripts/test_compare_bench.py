#!/usr/bin/env python3
"""Tests for the perf gate in compare_bench.py.

Builds minimal BENCH_*.json inputs in a temp directory, records baselines
from them, then runs `check` over a mutation matrix: for every bench shape
one just-inside and one just-outside case per gated field, the conditional
speedup gate, and each named-file error.

    python3 scripts/test_compare_bench.py
"""

import contextlib
import importlib.util
import io
import json
import os
import pathlib
import sys
import tempfile
import unittest

SCRIPT = pathlib.Path(__file__).with_name("compare_bench.py")

SWEEPS = ["table1", "table2", "utilization", "rand-convergence", "fig10",
          "horizon-growth", "fairshare-decay", "custom", "strategy"]
FLOORS = {"fairshare-decay": 2.0, "strategy": 1.1}


def load_script():
    spec = importlib.util.spec_from_file_location("compare_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sweep_bench(name, enabled, total_wall_ms):
    return {"sweep": name, "runs": 6, "total_wall_ms": total_wall_ms,
            "elapsed_ms": total_wall_ms / 2,
            "cache": {"enabled": enabled, "hit_rate": 0.75,
                      "replayed_runs": 4}}


def fixtures():
    """{dir: {file name: content}} for a run every gate passes.

    Every sweep's speedup is 3.0, so the 25% tolerance puts its floor at
    2.25 — above both hard floors."""
    cached = {f"BENCH_{s}.json": sweep_bench(s, True, 100.0) for s in SWEEPS}
    uncached = {f"BENCH_{s}.json": sweep_bench(s, False, 300.0)
                for s in SWEEPS}
    cached["BENCH_ref-scaling.json"] = {
        "sweep": "ref-scaling", "largest_orgs": 4, "horizon": 500,
        "ref_wall_ms_per_run": 10.0,
        "engine": {"events": 392, "decisions": 248, "wall_ms": 0.1,
                   "events_per_sec": 3.5e6, "decisions_per_sec": 2.2e6}}
    cached["BENCH_serve.json"] = {
        "sweep": "serve", "policy": "fairshare", "source": "synthetic",
        "orgs": 1000, "machines": 1000, "arrivals": 2000,
        "engine_events": 4000, "decisions": 2000, "completions": 2000,
        "final_time": 1528, "peak_resident_jobs": 1107,
        "peak_resident_orgs": 260, "decisions_per_sec": 500000.0,
        "events_per_sec": 1000000.0,
        "decision_latency_ns": {"p50": 400, "p99": 2000}}
    cached["BENCH_dispatch.json"] = {
        "benchmark": "dispatch", "sweep": "fairshare-decay", "workers": 2,
        "shards": 4, "repeats": 3, "spawn_warm_ms": 100.0,
        "session_cold_ms": 30.0, "session_warm_ms": 20.0,
        "warm_speedup": 5.0, "session_opens": 2, "session_served": 12,
        "session_fallback": 0, "cache_hits": 22, "cache_misses": 2,
        "csv_identical": True}
    return {"cached": cached, "uncached": uncached}


def setter(directory, name, path, value):
    """A mutation writing `value` at dotted `path` of one BENCH file."""
    def mutate(inputs):
        node = inputs[directory][f"BENCH_{name}.json"]
        *parents, leaf = path.split(".")
        for key in parents:
            node = node[key]
        node[leaf] = value
    return mutate


def both(name, path, value):
    """Sets the same field in the cached and the uncached sweep file."""
    def mutate(inputs):
        setter("cached", name, path, value)(inputs)
        setter("uncached", name, path, value)(inputs)
    return mutate


def speedup(name, ratio):
    return setter("uncached", name, "total_wall_ms", 100.0 * ratio)


def unreplayed(name):
    return setter("cached", name, "cache.replayed_runs", 0)


def matrix():
    """(case, expected verdict, mutate current inputs, mutate recorded
    inputs or None) — verdicts are pass, fail (a gate) or error (an input
    the gate cannot read)."""
    cases = []

    def case(label, verdict, current, recorded=None):
        cases.append((label, verdict, current, recorded))

    for s in SWEEPS:
        case(f"{s} runs equal", "pass", both(s, "runs", 6))
        case(f"{s} runs +1", "fail", both(s, "runs", 7))
        case(f"{s} hit_rate -0.5eps", "pass",
             setter("cached", s, "cache.hit_rate", 0.75 - 0.5e-6))
        case(f"{s} hit_rate -2eps", "fail",
             setter("cached", s, "cache.hit_rate", 0.75 - 2e-6))
        case(f"{s} speedup 2.26 of 3.0", "pass", speedup(s, 2.26))
        case(f"{s} speedup 2.24 of 3.0", "fail", speedup(s, 2.24))
        # Without replayed runs in the baseline only the floor gates.
        floor = FLOORS.get(s)
        if floor:
            case(f"{s} unreplayed floor+0.01", "pass",
                 speedup(s, floor + 0.01), unreplayed(s))
            case(f"{s} unreplayed floor-0.01", "fail",
                 speedup(s, floor - 0.01), unreplayed(s))
        else:
            case(f"{s} unreplayed speedup 1.0", "pass", speedup(s, 1.0),
                 unreplayed(s))
        case(f"{s} cached run without cache", "error",
             setter("cached", s, "cache.enabled", False))
        case(f"{s} uncached run with cache", "error",
             setter("uncached", s, "cache.enabled", True))
        case(f"{s} run counts differ", "error",
             setter("uncached", s, "runs", 7))

    exact = {
        "ref-scaling": {"largest_orgs": 5, "horizon": 501,
                        "engine.events": 393, "engine.decisions": 249},
        "serve": {"policy": "fcfs", "source": "trace", "orgs": 1001,
                  "machines": 1001, "arrivals": 2001, "engine_events": 4001,
                  "decisions": 2001, "completions": 2001,
                  "final_time": 1529, "peak_resident_jobs": 1108,
                  "peak_resident_orgs": 261},
        "dispatch": {"sweep": "table1", "workers": 3, "shards": 5,
                     "repeats": 4},
    }
    for name, fields in exact.items():
        base = fixtures()["cached"][f"BENCH_{name}.json"]
        for path, changed in fields.items():
            node = base
            for key in path.split("."):
                node = node[key]
            case(f"{name} {path} equal", "pass",
                 setter("cached", name, path, node))
            case(f"{name} {path} changed", "fail",
                 setter("cached", name, path, changed))

    bounds = [
        ("ref-scaling", "ref_wall_ms_per_run", 79.9, 80.1),
        ("serve", "decisions_per_sec", 62500.5, 62499.5),
        ("serve", "decision_latency_ns.p99", 32000, 32001),
        ("dispatch", "csv_identical", True, False),
        ("dispatch", "session_fallback", 0, 1),
        ("dispatch", "session_served", 12, 11),
        ("dispatch", "warm_speedup", 2.01, 1.99),
        ("dispatch", "session_warm_ms", 159.9, 160.1),
    ]
    for name, path, inside, outside in bounds:
        case(f"{name} {path}={inside}", "pass",
             setter("cached", name, path, inside))
        case(f"{name} {path}={outside}", "fail",
             setter("cached", name, path, outside))

    def drop(directory, file_name):
        return lambda inputs: inputs[directory].pop(file_name)

    def raw(directory, file_name, text):
        return lambda inputs: inputs[directory].__setitem__(file_name, text)

    def drop_key(directory, file_name, key):
        return lambda inputs: inputs[directory][file_name].pop(key)

    for directory, file_name in [("cached", "BENCH_table1.json"),
                                 ("uncached", "BENCH_strategy.json"),
                                 ("cached", "BENCH_serve.json"),
                                 ("cached", "BENCH_dispatch.json")]:
        case(f"missing {directory}/{file_name}", "error",
             drop(directory, file_name))
        case(f"invalid JSON {directory}/{file_name}", "error",
             raw(directory, file_name, '{"sweep": '))
    case("missing key runs", "error",
         drop_key("cached", "BENCH_table1.json", "runs"))
    case("missing key engine", "error",
         drop_key("cached", "BENCH_ref-scaling.json", "engine"))
    case("missing key warm_speedup", "error",
         drop_key("cached", "BENCH_dispatch.json", "warm_speedup"))
    case("wrong sweep tag", "error",
         setter("cached", "table1", "sweep", "table2"))
    case("wrong benchmark tag", "error",
         setter("cached", "dispatch", "benchmark", "serve"))
    return cases


def write_inputs(root, inputs):
    for directory, files in inputs.items():
        path = pathlib.Path(root) / directory
        path.mkdir(parents=True, exist_ok=True)
        for file_name, content in files.items():
            text = content if isinstance(content, str) else json.dumps(content)
            (path / file_name).write_text(text)
    return {d: str(pathlib.Path(root) / d) for d in ("cached", "uncached")}


def run(module, argv):
    """(verdict, output) of one compare_bench.py invocation."""
    out = io.StringIO()
    saved = sys.argv
    sys.argv = ["compare_bench.py"] + argv
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = module.main()
    except SystemExit as err:
        return "error", str(err.code)
    finally:
        sys.argv = saved
    return ("pass" if rc == 0 else "fail"), out.getvalue()


def evaluate(module, root, current, recorded=None):
    """Records baselines from the fixtures (mutated by `recorded`) and
    checks the fixtures mutated by `current` against them."""
    base_inputs = fixtures()
    if recorded:
        recorded(base_inputs)
    dirs = write_inputs(pathlib.Path(root) / "recorded", base_inputs)
    baselines = str(pathlib.Path(root) / "baselines")
    verdict, output = run(module, ["record", "--cached", dirs["cached"],
                                   "--uncached", dirs["uncached"],
                                   "--out", baselines])
    assert verdict == "pass", output
    inputs = fixtures()
    current(inputs)
    dirs = write_inputs(pathlib.Path(root) / "current", inputs)
    return run(module, ["check", "--cached", dirs["cached"], "--uncached",
                        dirs["uncached"], "--baselines", baselines])


class CompareBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.module = load_script()

    def test_mutation_matrix(self):
        for label, expected, current, recorded in matrix():
            with self.subTest(label), tempfile.TemporaryDirectory() as root:
                verdict, output = evaluate(self.module, root, current,
                                           recorded)
                self.assertEqual(verdict, expected, output)

    def test_record_then_check_round_trips(self):
        with tempfile.TemporaryDirectory() as root:
            dirs = write_inputs(root, fixtures())
            args = ["--cached", dirs["cached"], "--uncached", dirs["uncached"]]
            first, second = (os.path.join(root, d) for d in ("b1", "b2"))
            for out in (first, second):
                verdict, output = run(self.module,
                                      ["record", *args, "--out", out])
                self.assertEqual(verdict, "pass", output)
            names = sorted(os.listdir(first))
            self.assertEqual(len(names), len(SWEEPS) + 3)
            for name in names:
                self.assertEqual(pathlib.Path(first, name).read_bytes(),
                                 pathlib.Path(second, name).read_bytes())
            verdict, output = run(self.module,
                                  ["check", *args, "--baselines", first])
            self.assertEqual(verdict, "pass", output)
            record = json.loads(pathlib.Path(first, "table1.json").read_text())
            self.assertEqual(record["speedup"], 3.0)
            self.assertEqual(record["sweep"], "table1")

    def test_errors_name_the_offending_file(self):
        cases = [
            (lambda i: i["cached"].pop("BENCH_fig10.json"),
             "BENCH_fig10.json"),
            (lambda i: i["cached"].__setitem__("BENCH_serve.json", "{"),
             "BENCH_serve.json"),
            (lambda i: i["cached"]["BENCH_table2.json"].pop("runs"),
             "'runs'"),
            (setter("cached", "utilization", "sweep", "fig10"),
             "BENCH_utilization.json"),
            (setter("cached", "dispatch", "benchmark", None),
             "BENCH_dispatch.json"),
        ]
        for current, needle in cases:
            with self.subTest(needle), tempfile.TemporaryDirectory() as root:
                verdict, output = evaluate(self.module, root, current)
                self.assertEqual(verdict, "error")
                self.assertIn(needle, output)

    def test_failures_say_why(self):
        cases = [
            (setter("cached", "dispatch", "csv_identical", False),
             "dispatch-determinism contract is broken"),
            (setter("cached", "dispatch", "session_fallback", 1),
             "no longer speaks protocol v2"),
            (setter("cached", "ref-scaling", "engine.events", 393),
             "part of the equivalence contract; re-record"),
            (speedup("table1", 2.0), "baseline 3.000"),
        ]
        for current, needle in cases:
            with self.subTest(needle), tempfile.TemporaryDirectory() as root:
                verdict, output = evaluate(self.module, root, current)
                self.assertEqual(verdict, "fail")
                self.assertIn(needle, output)

    def test_missing_baseline_fails_the_gate(self):
        with tempfile.TemporaryDirectory() as root:
            evaluate(self.module, root, lambda inputs: None)
            os.remove(os.path.join(root, "baselines", "serve.json"))
            dirs = {d: os.path.join(root, "current", d)
                    for d in ("cached", "uncached")}
            verdict, output = run(self.module, [
                "check", "--cached", dirs["cached"], "--uncached",
                dirs["uncached"], "--baselines",
                os.path.join(root, "baselines")])
            self.assertEqual(verdict, "fail")
            self.assertIn("serve.json", output)


if __name__ == "__main__":
    unittest.main()
