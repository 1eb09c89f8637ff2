"""Tests of the benchmark command and its definition.

    python3 -m unittest discover -s perfbench/tests -v

Checks BENCHMARK.json against the benchmark contract, runs every workload
through perfbench/run.py at a tiny design scale (traced and untraced),
builds and runs the C++ tests in perfbench_test.cpp, and checks that the
command fails without printing a result where the analyzer's sources are
missing.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE_SCALE = "0.01"


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_command(workload, trace, cwd=ROOT, script=None):
    bench = load_benchmark()
    cmd = [sys.executable, script or os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--scale", SMOKE_SCALE]
    assert bench["command"][0] == "python3"
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class BenchmarkDefinition(unittest.TestCase):
    def test_keys_names_units_and_bounds(self):
        bench = load_benchmark()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        self.assertEqual(bench["paths"], ["perfbench"])
        self.assertTrue(all(not a.startswith("/") and ".." not in a
                            for a in bench["command"]))
        self.assertIsInstance(bench["run_seconds"], int)
        self.assertTrue(1 <= bench["run_seconds"] <= 60)
        self.assertTrue(2 <= len(bench["workloads"]) <= 8)
        names = []
        for w in bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25, m)
            names.append(m["name"])
        for m in bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in bench["end_to_end"]))


class SmokeRuns(unittest.TestCase):
    """Every workload through the real command, at a tiny design scale."""

    def check(self, workload, trace):
        proc = run_command(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        bench = load_benchmark()
        specs = bench["per_layer" if trace else "end_to_end"]
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in specs})
        if not trace:
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, name)

    def test_workloads(self):
        for w in load_benchmark()["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)

    def test_unknown_workload_fails_without_result(self):
        proc = run_command("no_such_workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class CppTests(unittest.TestCase):
    def test_perfbench_tests(self):
        bdir = run.build_dir()
        self.assertIsNotNone(run.build(bdir))
        build = subprocess.run(["cmake", "--build", bdir, "--target", "perfbench_tests",
                                "-j", "4"], capture_output=True, text=True)
        self.assertEqual(build.returncode, 0, build.stdout[-3000:] + build.stderr[-3000:])
        proc = subprocess.run([os.path.join(bdir, "perfbench_tests")],
                              capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:])


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        # A directory holding only BENCHMARK.json and the benchmark itself.
        tmp = os.path.join(run.build_dir(), "bare-checkout")
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(BENCH_DIR, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "signoff", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, env=env, capture_output=True, text=True, timeout=180)
        shutil.rmtree(tmp, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
