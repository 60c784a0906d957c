#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds through perfbench/run.py, then checks that:
  * every exact count of the traced run repeats across two runs of one
    seed, on every workload;
  * no self time of the traced run is negative, so no layer is counted
    twice, and every layer reads non-zero on some gated workload;
  * the program's inputs come from --seed alone: a run with an empty
    environment from an empty working directory reports the same counts,
    another seed reports different ones, and a missing --seed is refused;
  * a directory holding only BENCHMARK.json and perfbench/ fails cleanly,
    printing no result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-cells", "strategy-grid", "serve", "dispatch")
SECONDS = "2"
# Each self time is the traced time left over after the layers timed
# inside it. A layer counted twice drives it below zero. The direct probes,
# timed outside the op, and host noise move it by a few percent either way.
SELF_TERMS = {
    "exp.self_ms": ("workload.generate_ms", "workload.assign_ms", "ref.ms",
                    "rand.ms", "policy.ms", "metrics.ms", "exp.plan_ms",
                    "strategy.apply_ms", "strategy.evaluate_ms"),
    "serve.self_ns": ("serve.source_ns", "serve.select_ns",
                      "serve.notify_ns"),
    "dist.dispatch_self_ms": ("dist.worker_ms", "dist.transport_ms"),
}
SELF_TOLERANCE = 0.05
LAYERS = ("workload.", "ref.", "rand.", "policy.", "sim.", "sched.",
          "metrics.", "exp.", "strategy.", "serve.", "dist.", "trace.")


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (target if target.is_absolute() else ROOT / target) / "perfbench"


def parse(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def run_script(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT).stdout
    return parse(out)


def run_binary(workload, seed, cwd, env):
    binary = build_dir() / "fairsched_perfbench"
    out = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", "1", "--out", str(cwd / "out"),
         "--worker-bin", str(build_dir() / "fairsched_exp")],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True, cwd=cwd, env=env).stdout
    return parse(out)


def exact_counts(result):
    """The traced metrics that are counts, hence must repeat exactly.

    dist.artifact_bytes is left out: artifacts carry wall-clock fields,
    so their length moves by a few digits from run to run.
    """
    return {name: m["value"] for name, m in result["metrics"].items()
            if (m["unit"] in ("count", "bytes") or name == "exp.hit_rate")
            and name != "dist.artifact_bytes"}


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # Builds once; the traced runs of seed 7 are shared by the tests.
        cls.first = {w: run_script(w, 7, 1) for w in WORKLOADS}

    def test_runs_are_correct(self):
        for workload, result in self.first.items():
            with self.subTest(workload=workload):
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)

    def test_counts_repeat_exactly_for_one_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                again = run_script(workload, 7, 1)
                self.assertEqual(exact_counts(self.first[workload]),
                                 exact_counts(again))

    def test_layers_add_up_to_the_untraced_op(self):
        for workload, result in self.first.items():
            with self.subTest(workload=workload):
                share = result["metrics"]["trace.layer_sum_share"]["value"]
                # The self time closes the sum, so this bounds the tracing
                # overhead; host noise between interleaved runs is ~10%.
                self.assertLess(abs(share - 1.0), 0.25)

    def test_self_times_are_not_negative(self):
        for workload, result in self.first.items():
            values = {name: m["value"] for name, m in result["metrics"].items()}
            for term, layers in SELF_TERMS.items():
                total = values[term] + sum(values[layer] for layer in layers)
                if total == 0:
                    continue  # the workload leaves this layer idle
                with self.subTest(workload=workload, term=term):
                    self.assertGreaterEqual(values[term],
                                            -SELF_TOLERANCE * total)

    def test_every_layer_is_read_on_a_gated_workload(self):
        config = json.loads((ROOT / "BENCHMARK.json").read_text())
        gated = [w["name"] for w in config["workloads"]]
        for layer in LAYERS:
            with self.subTest(layer=layer):
                self.assertTrue(any(
                    m["value"] != 0
                    for workload in gated
                    for name, m in self.first[workload]["metrics"].items()
                    if name.startswith(layer)))

    def test_inputs_come_from_the_seed_only(self):
        scratch = build_dir() / "test-scratch"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        for workload in ("paper-cells", "dispatch"):
            with self.subTest(workload=workload):
                bare = run_binary(workload, 7, scratch, env={})
                self.assertEqual(exact_counts(bare),
                                 exact_counts(self.first[workload]))
        other = run_binary("paper-cells", 8, scratch, env={})
        first = exact_counts(self.first["paper-cells"])
        self.assertNotEqual(exact_counts(other)["workload.jobs"],
                            first["workload.jobs"])
        shutil.rmtree(scratch, ignore_errors=True)

    def test_missing_seed_is_refused(self):
        binary = build_dir() / "fairsched_perfbench"
        run = subprocess.run(
            [str(binary), "--workload", "paper-cells", "--seconds", "1",
             "--trace", "0", "--out", str(build_dir() / "out")],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        self.assertNotEqual(run.returncode, 0)
        self.assertEqual(run.stdout, "")

    def test_bare_benchmark_directory_fails_without_result(self):
        with tempfile.TemporaryDirectory(dir=build_dir()) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            run = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "serve",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                cwd=bare, env=env, timeout=180)
            self.assertNotEqual(run.returncode, 0)
            self.assertEqual(run.stdout, "")


if __name__ == "__main__":
    unittest.main()
