#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_perfbench.py

Builds the harness like run.py does, then checks that BENCHMARK.json keeps
its contract, that every workload emits every declared metric, and that the
output checks catch a perturbed record digest and a mismatched replay.
Takes about a minute after the build.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)

_spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(BENCH_DIR, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Harness:
    binary = None

    @classmethod
    def run(cls, workload, trace, seconds=1, seed=0, extra=(), pins=None):
        if cls.binary is None:
            cls.binary = run.build()
        cmd = run.harness_command(cls.binary, workload, seed, seconds, trace, extra)
        if pins is not None:
            cmd[cmd.index("--pins") + 1] = pins
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=run.RUN_TIMEOUT_S)
        return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


class ContractTest(unittest.TestCase):
    def test_benchmark_json_keys_and_names(self):
        spec = load_benchmark()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertLessEqual(os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)
        self.assertTrue(1 <= len(spec["paths"]) <= 16)
        for p in spec["paths"]:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
        self.assertTrue(1 <= len(spec["command"]) <= 32)
        self.assertTrue(all(len(a) <= 200 for a in spec["command"]))
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        names = [w["name"] for w in spec["workloads"]]
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))


class MetricsTest(unittest.TestCase):
    def test_every_end_to_end_metric_for_every_workload(self):
        declared = run.declared_metrics(0)
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, result, err = Harness.run(workload, trace=0)
                self.assertEqual(code, 0, err)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, declared)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_every_per_layer_metric_in_the_traced_run(self):
        declared = run.declared_metrics(1)
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, result, err = Harness.run(workload, trace=1)
                self.assertEqual(code, 0, err)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, declared)
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertGreater(metrics["bender.replay_tuples"], 0)
                self.assertEqual(metrics["bender.replay_mismatches"], 0)
                self.assertGreater(metrics["fault.apply_cold_us"], 0)
                self.assertGreater(metrics["hbm.cmd.act"], 0)


class CheckTest(unittest.TestCase):
    def test_perturbed_record_digest_is_caught(self):
        with open(os.path.join(BENCH_DIR, "pins.json")) as f:
            pins = json.load(f)
        pin = pins["workloads"]["trr_refresh"]
        pin["digest"] = "%016x" % (int(pin["digest"], 16) ^ 1)
        path = os.path.join(run.build_dir(), "work", "pins-perturbed.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(pins, f)
        code, result, err = Harness.run("trr_refresh", trace=0, seed=pins["seed"], pins=path)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("pinned", err)

    def test_mismatched_replay_is_caught(self):
        code, result, err = Harness.run("fig6_bank_scan", trace=1, extra=["--perturb-replay"])
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["metrics"]["bender.replay_mismatches"]["value"], 0)
        self.assertIn("probe fidelity", err)


if __name__ == "__main__":
    unittest.main(verbosity=2)
