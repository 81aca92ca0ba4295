"""The benchmark's own tests.  Run from the repository root:

    python3 bench/selfcheck.py

About a minute.  Kept out of the repository's pytest suite (the file name
does not match ``test_*.py``) so the tier-1 test time stays flat.
"""

from __future__ import annotations

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from curvepi.dsl import parse_presentation  # noqa: E402
from worker import Client  # noqa: E402


def cyclic_class(r: str) -> str:
    """A relator string up to rotation and inversion."""
    forms = [r, r[::-1].swapcase()]
    return min(f[i:] + f[:i] for f in forms for i in range(len(f)))


def counters(result: dict) -> dict:
    return {
        name: value
        for name, value in result["trace"]["metrics"].items()
        if not name.endswith(".s") and name != "trace.overhead_s"
    }


class InputsTest(unittest.TestCase):
    def test_relator_strings_are_the_presentations_as_written(self):
        for name, (text, gens, relators) in workloads.PRESENTATIONS.items():
            with self.subTest(name):
                self.assertEqual(
                    parse_presentation(text), parse_presentation(workloads.render(gens, relators))
                )

    def test_seeded_inputs_are_rewrites_and_repeat(self):
        for name, (text, gens, relators) in workloads.PRESENTATIONS.items():
            self.assertEqual(workloads.presentation_text(name, 0, 5), text)
            original = sorted(cyclic_class(r) for r in relators)
            for seed in (1, 2, 99):
                for k in (0, 1):
                    got = workloads.presentation_text(name, seed, k)
                    self.assertEqual(got, workloads.presentation_text(name, seed, k))
                    rels = got.split("|")[1].strip(" >").split(", ")
                    letters = [
                        "".join(t[0] if t == t[0] else t[0].upper() for t in r.split()) for r in rels
                    ]
                    self.assertEqual(sorted(cyclic_class(r) for r in letters), original)
            self.assertNotEqual(
                workloads.presentation_text(name, 1, 0), workloads.presentation_text(name, 2, 0)
            )

    def test_benchmark_json_lists_what_run_reports(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


class GateTest(unittest.TestCase):
    def test_wrong_expected_value_raises_fail_frac(self):
        client = Client()
        workloads.enumerate_pass(client, 0, 0)
        self.assertEqual((client.attempted, len(client.errors)), (2, 0))
        saved = dict(workloads.ORDERS)
        workloads.ORDERS["G2378"] += 1
        try:
            client = Client()
            workloads.enumerate_pass(client, 0, 0)
        finally:
            workloads.ORDERS.update(saved)
        result = client.result()
        self.assertEqual(result["failed"] / result["attempted"], 0.5)
        self.assertIn("10753", result["errors"][0])

    def test_wrong_reference_fails_verify(self):
        saved = workloads.VERIFY_REFERENCE
        workloads.VERIFY_REFERENCE = saved.replace('"pass"', '"fail"', 1)
        try:
            client = Client()
            workloads.verify_pass(client, 0, 0)
        finally:
            workloads.VERIFY_REFERENCE = saved
        self.assertEqual(client.result()["failed"], 1)


class WorkerTest(unittest.TestCase):
    def setUp(self):
        self.cwd = os.getcwd()
        os.chdir(ROOT)

    def tearDown(self):
        os.chdir(self.cwd)

    def test_seeded_variants_give_the_expected_outputs(self):
        for workload, seed in (("enumerate", 0), ("enumerate", 7), ("subgroup", 7)):
            with self.subTest(workload=workload, seed=seed):
                runner = run.Runner(workload, seed)
                results = [runner.spawn(3)]
                if workloads.WORKLOADS[workload].gate:
                    results.append(runner.spawn(0, "--gate"))
                for r in results:
                    self.assertEqual(r["failed"], 0, r["errors"])

    def test_counters_repeat_and_self_times_add_up(self):
        for workload, seed in (("verify", 0), ("enumerate", 5)):
            with self.subTest(workload=workload):
                runner = run.Runner(workload, seed)
                first, second = runner.spawn(1, "--trace"), runner.spawn(1, "--trace")
                self.assertEqual(counters(first), counters(second))
                self.assertGreater(first["trace"]["metrics"]["coset_table.todd_coxeter.calls"], 0)
                run.self_time_report([first, second])  # raises if they do not add up


if __name__ == "__main__":
    unittest.main()
