"""Self-test of the result checker: a wrong answer must count as a failure.

    python3 bench/test_check.py

Runs the first small-batch round under the reference seed through the
current code, then feeds the checker perturbed references, a wrong exit
code and a perturbed construction fact, and expects a problem each time.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import workloads  # noqa: E402
from run import run_op  # noqa: E402


def _first_float_path(value, path=()):
    """Path to the first float inside a nested result, or None."""
    if isinstance(value, float):
        return path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        found = _first_float_path(item, path + (key,))
        if found is not None:
            return found
    return None


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from fracsub import cli

        cls.cwd = os.getcwd()
        os.chdir(BENCH.parent)
        cls.work = Path(".bench_work") / "test-check"
        shutil.rmtree(cls.work, ignore_errors=True)
        cls.work.mkdir(parents=True)
        cls.ops = workloads.build_round("small-batch", check.REFERENCE_SEED, 0, cls.work)
        cls.runs = [run_op(cli, op["argv"]) for op in cls.ops]
        rounds = check.reference_rounds("small-batch", check.REFERENCE_SEED)
        cls.refs = next(rounds)
        rounds.close()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)
        os.chdir(cls.cwd)

    def problems(self, i, ref=None, code=None, op=None):
        _, got_code, out, error = self.runs[i]
        self.assertIsNone(error)
        return check.check_op(op or self.ops[i], got_code if code is None else code, out, ref)

    def test_seed_code_matches_reference(self):
        for i, ref in enumerate(self.refs):
            self.assertEqual(self.problems(i, ref), [], self.ops[i]["argv"])

    def test_perturbed_float_is_a_failure(self):
        i = next(i for i, ref in enumerate(self.refs)
                 if ref["result"] is not None and _first_float_path(ref["result"]) is not None)
        ref = copy.deepcopy(self.refs[i])
        path = _first_float_path(ref["result"])
        value = ref["result"]
        for key in path:
            value = value[key]
        _set(ref["result"], path, value * (1 + 2.0 ** -30) + 2.0 ** -30)
        self.assertNotEqual(self.problems(i, ref), [])

    def test_float_within_gate_is_accepted(self):
        self.assertEqual(check.same(1.0, 1.0 + 2.0 ** -45), [])
        self.assertNotEqual(check.same(1.0, 1.0 + 2.0 ** -38), [])

    def test_perturbed_rational_is_a_failure(self):
        i = next(i for i, op in enumerate(self.ops) if op["kind"] == "gaps")
        ref = copy.deepcopy(self.refs[i])
        ref["result"]["gap_upper"] += "1"
        self.assertNotEqual(self.problems(i, ref), [])

    def test_wrong_exit_code_is_a_failure(self):
        for i, op in enumerate(self.ops):
            wrong = 1 if op["exit"] == 0 else 0
            self.assertNotEqual(self.problems(i, code=wrong), [], op["argv"])
            self.assertNotEqual(self.problems(i, self.refs[i], code=wrong), [], op["argv"])

    def test_wrong_construction_fact_is_a_failure(self):
        i = next(i for i, op in enumerate(self.ops) if op["kind"] == "stability")
        op = copy.deepcopy(self.ops[i])
        op["expect"]["gap_lower"] = str(check.Fraction(op["expect"]["gap_lower"]) + 1)
        self.assertNotEqual(self.problems(i, op=op), [])

    def test_changed_input_is_a_failure(self):
        ref = copy.deepcopy(self.refs[0])
        ref["inputs"][0] = "0" * 64
        self.assertNotEqual(self.problems(0, ref), [])


if __name__ == "__main__":
    unittest.main()
