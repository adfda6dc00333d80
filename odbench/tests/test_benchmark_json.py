"""Checks BENCHMARK.json against the rules it must follow and against the
metric table compiled into the odbench program.

Run through `python3 odbench/run.py --test`, which builds the program and
points ODBENCH_BIN at it.
"""

import json
import os
import re
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkJsonShape(unittest.TestCase):
    def test_keys_and_limits(self):
        b = load()
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(
            os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)
        self.assertTrue(1 <= len(b["command"]) <= 32)
        for arg in b["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/"), arg)
            self.assertNotIn("..", arg.split("/"), arg)
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, PATH)
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)), p)
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)

    def test_names_units_and_bounds(self):
        b = load()
        self.assertEqual([w["name"] for w in b["workloads"]],
                         ["jit-x86", "synth-cold", "serve-open"])
        seen = set()
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            seen.add(w["name"])
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertGreater(m["bound"], 0)
            self.assertLessEqual(m["bound"], 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertNotIn(m["name"], seen, "names are used once")
            seen.add(m["name"])
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))


@unittest.skipUnless(os.environ.get("ODBENCH_BIN"), "odbench not built")
class BenchmarkJsonMatchesProgram(unittest.TestCase):
    def test_same_metrics(self):
        out = subprocess.run([os.environ["ODBENCH_BIN"], "--list-metrics"],
                             capture_output=True, text=True, check=True)
        table = json.loads(out.stdout)
        b = load()
        for kind in ("end_to_end", "per_layer"):
            listed = {(m["name"], m["unit"], m["better"]) for m in b[kind]}
            compiled = {(m["name"], m["unit"], m["better"])
                        for m in table[kind]}
            self.assertEqual(listed, compiled, kind)


if __name__ == "__main__":
    unittest.main()
