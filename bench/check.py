"""Result checker behind the benchmark's failure count.

Every op is checked twice over:

* by construction, on any seed: the exit code, the report envelope (the
  command name and the sha256 of each input the generator wrote), and
  what the generator knows about the input: the family flavor,
  ``bounds_hold``, both gaps recomputed exactly, stability's premise,
  matroid freeness, block structure, entropies recomputed with numpy;
* against references recorded from the seed code
  (``reference/<workload>.jsonl.gz``, one line per round, written by
  ``make_reference.py``) when the run uses the reference seed and the op
  lies inside the recorded rounds.  The parsed ``result`` is
  compared, not the bytes, so report whitespace may change.  Strings
  (rationals travel as "p/q" strings), bools, ints, nulls and exit codes
  must match exactly; floats within 2**-40 relative, with an absolute
  floor at unit scale so values that are rounding noise around zero do
  not demand bit-identical noise.

``check_op`` returns a list of problems; an empty list means the op is
correct.
"""

from __future__ import annotations

import gzip
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).with_name("reference")
REFERENCE_SEED = 0
REF_FLOAT_REL = 2.0 ** -40
# float paths checked by construction use the package's own default
# verdict tolerance, relative at scales above one
BUILD_TOL = 2.0 ** -30


def reference_rounds(workload: str, seed: int):
    """Iterator over the recorded rounds of `workload`, or None for another seed.

    Rounds are read one at a time, so the references add next to nothing
    to the workload process's peak RSS.
    """
    path = REFERENCE_DIR / f"{workload}.jsonl.gz"
    if seed != REFERENCE_SEED or not path.exists():
        return None

    def rounds():
        with gzip.open(path, "rt") as fh:
            for line in fh:
                yield json.loads(line)

    return rounds()


def same(ref, got, where: str = "result") -> list[str]:
    """Differences between a reference value and a reported one."""
    if isinstance(ref, float) or (isinstance(got, float) and isinstance(ref, int)
                                  and not isinstance(ref, bool)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{where}: expected a number, got {got!r}"]
        if abs(got - ref) > REF_FLOAT_REL * max(1.0, abs(ref), abs(got)):
            return [f"{where}: {got!r} differs from reference {ref!r}"]
        return []
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"differ from reference {sorted(ref)}"]
        return [p for k in ref for p in same(ref[k], got[k], f"{where}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: {got!r} differs from reference {ref!r}"]
        return [p for i, (a, b) in enumerate(zip(ref, got)) for p in same(a, b, f"{where}[{i}]")]
    if type(got) is not type(ref) or got != ref:
        return [f"{where}: {got!r} differs from reference {ref!r}"]
    return []


def _q(x) -> Fraction:
    """A report scalar ("p/q" string, int or float) as an exact rational."""
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"not a scalar: {x!r}")
    return Fraction(x)


def _close(problems: list, where: str, got, want, scalar: str) -> None:
    """Rational results must equal `want` exactly, float ones within BUILD_TOL."""
    want = Fraction(want)
    if scalar == "rational":
        expected = str(want.numerator) if want.denominator == 1 else f"{want.numerator}/{want.denominator}"
        if got != expected:
            problems.append(f"{where}: {got!r}, expected {expected}")
        return
    if isinstance(got, bool) or not isinstance(got, (int, float)) or not math.isfinite(got):
        problems.append(f"{where}: {got!r} is not a finite number")
    elif abs(Fraction(got) - want) > BUILD_TOL * max(1, abs(want)):
        problems.append(f"{where}: {got!r}, expected {float(want)!r}")


def _expect(problems: list, where: str, got, want) -> None:
    if got != want:
        problems.append(f"{where}: {got!r}, expected {want!r}")


def _coverage_is_one(problems: list, where: str, family: dict, sets=None) -> None:
    cov = [Fraction(0)] * family["n"]
    for m in family["members"]:
        if sets is not None and sorted(m["set"]) not in sets:
            problems.append(f"{where}: member {m['set']} is not one of the given sets")
        if len(m["set"]) == family["n"]:
            problems.append(f"{where}: full-set member")
        for e in m["set"]:
            cov[e - 1] += Fraction(m["weight"])
    if any(c != 1 for c in cov):
        problems.append(f"{where}: coverage {[str(c) for c in cov]} is not a partition")


class _Entropies:
    """Marginal entropies (bits) of a pmf file, recomputed with numpy."""

    def __init__(self, path: str):
        doc = json.loads(Path(path).read_text())
        self.pmf = np.array(doc["pmf"], dtype=float).reshape(doc["alphabets"])
        self.n = self.pmf.ndim
        self.full = (1 << self.n) - 1

    def h(self, mask: int) -> float:
        if mask == 0:
            return 0.0
        axes = tuple(i for i in range(self.n) if not (mask >> i) & 1)
        p = self.pmf.sum(axis=axes) if axes else self.pmf
        p = p[p > 0]
        return float(-(p * np.log2(p)).sum())

    def tc(self) -> float:
        return sum(self.h(1 << i) for i in range(self.n)) - self.h(self.full)


def _by_construction(op: dict, res: dict) -> list[str]:
    kind, exp, p = op["kind"], op["expect"], []
    scalar = exp.get("scalar", "rational")
    if kind == "gaps":
        _close(p, "gap_upper", res["gap_upper"], _q(exp["gap_upper"]), scalar)
        _close(p, "gap_lower", res["gap_lower"], _q(exp["gap_lower"]), scalar)
        _expect(p, "classification.flavor", res["classification"]["flavor"], "partition")
        _expect(p, "bounds_hold", res["bounds_hold"], [True, True])
        _close(p, "duality_residual", res["duality_residual"], 0, scalar)
        for note in ("grounded", "submodular", "nondecreasing", "family:partition"):
            if note not in res["notes"]:
                p.append(f"notes: {note!r} missing from {res['notes']}")
    elif kind == "equality":
        _expect(p, "branch", res["branch"], "covering")
        _close(p, "gap", res["gap"], _q(exp["gap"]), scalar)
        zero = _q(exp["gap"]) == 0 if scalar == "rational" else abs(_q(exp["gap"])) <= BUILD_TOL
        _expect(p, "equality", res["equality"], zero)
        _expect(p, "condition_holds", res["condition_holds"], zero)
    elif kind == "stability":
        _expect(p, "satisfied", res["satisfied"], True)
        _expect(p, "epsilon_covers_gap", res["epsilon_covers_gap"], True)
        _expect(p, "sigma", res["sigma"], exp["sigma"])
        _close(p, "gap_upper", res["gap_upper"], _q(exp["gap_upper"]), scalar)
        _close(p, "gap_lower", res["gap_lower"], _q(exp["gap_lower"]), scalar)
        if len(res["defects"]) != len(exp["defects"]):
            p.append(f"defects: {len(res['defects'])} values, expected {len(exp['defects'])}")
        for i, (got, want) in enumerate(zip(res["defects"], exp["defects"])):
            _close(p, f"defects[{i}]", got, _q(want), scalar)
    elif kind == "certify":
        for key in ("verdict", "checked_sum", "target"):
            _expect(p, key, res[key], exp[key])
    elif kind == "shearer":
        _expect(p, "k", res["k"], exp["k"])
        _close(p, "member_sum", res["member_sum"], _q(exp["member_sum"]), scalar)
        _close(p, "scaled_total", res["scaled_total"], _q(exp["scaled_total"]), scalar)
        eq = _q(exp["member_sum"]) == _q(exp["scaled_total"])
        _expect(p, "equality", res["equality"], eq)
        _expect(p, "condition_holds", res["condition_holds"], eq)
    elif kind == "mmi":
        _expect(p, "mode", res["mode"], exp["mode"])
        e = _Entropies(exp["dist"])
        tc = e.tc()
        mode = exp["mode"]
        if mode == "tc":
            _close(p, "value", res["value"], tc, "float")
        elif mode == "dtc":
            hf = e.h(e.full)
            _close(p, "value", res["value"],
                   hf - sum(hf - e.h(e.full ^ (1 << i)) for i in range(e.n)), "float")
        elif mode == "family":
            want = sum(float(Fraction(w)) * e.h(m) for m, w in exp["family"]) - e.h(e.full)
            _close(p, "value", res["value"], want, "float")
            _close(p, "joint_entropy", res["joint_entropy"], e.h(e.full), "float")
        elif mode == "max":
            _close(p, "value", res["value"], tc, "float")
            _close(p, "total_correlation", res["total_correlation"], tc, "float")
            _coverage_is_one(p, "argmax", res["argmax"])
        else:  # si: the singleton partition bounds it by TC / (n - 1)
            v = res["value"]
            if not (-BUILD_TOL <= v <= tc / (e.n - 1) + BUILD_TOL):
                p.append(f"value: {v!r} outside [0, TC/(n-1) = {tc / (e.n - 1)!r}]")
            _coverage_is_one(p, "argmax", res["argmax"])
    elif kind == "matroid":
        for key in ("weighted_rank_sum", "total_rank", "equality", "free_outside_loops"):
            _expect(p, key, res[key], exp[key])
        _expect(p, "loop_elements", res["loop_elements"], [])
    elif kind == "detineq":
        k = np.array(exp["matrix"], dtype=float)
        _close(p, "log_rhs", res["log_rhs"], float(np.linalg.slogdet(k)[1]), "float")
        _expect(p, "equality", res["equality"], exp["equality"])
        _expect(p, "diagonal_ok", res["diagonal_ok"], exp["equality"])
        _expect(p, "merge_groups", res["merge_groups"], exp["merge_groups"])
        if not exp["equality"] and not res["log_gap"] > 0:
            p.append(f"log_gap: {res['log_gap']!r} is not positive on a dense matrix")
    elif kind == "normalize":
        fam, merge = res["family"], res["merge_map"]
        _expect(p, "family.n", fam["n"], exp["merged_n"])
        _expect(p, "merge_map[1] vs merge_map[n]", merge["1"], merge[str(exp["merged_n"] + 1)])
        _coverage_is_one(p, "family", fam)
    elif kind == "find-partition":
        _expect(p, "found", res["found"], True)
        sets = [sorted(m["set"]) for m in json.loads(Path(op["argv"][1]).read_text())["members"]]
        if res["found"]:
            _coverage_is_one(p, "family", res["family"], sets)
    elif kind == "selftest":
        _expect(p, "all_ok", res["all_ok"], True)
    else:
        p.append(f"unknown op kind {kind!r}")
    return p


def check_op(op: dict, code, out: str, ref: dict | None = None) -> list[str]:
    """Problems with one op's exit code and stdout; [] when correct."""
    problems = []
    if code != op["exit"]:
        problems.append(f"exit code {code!r}, expected {op['exit']}")
    if ref is not None:
        if ref["exit"] != code:
            problems.append(f"exit code {code!r}, reference {ref['exit']}")
        if ref["inputs"] != list(op["inputs"].values()):
            problems.append("generated inputs differ from the reference inputs")
    if problems or code not in (0, 1):
        if not problems and out:
            problems.append(f"exit {code} with a report on stdout")
        return problems
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    _expect(problems, "command", report.get("command"), op["argv"][0])
    digests = sorted(d["sha256"] for d in report.get("inputs", {}).values())
    _expect(problems, "input sha256", digests, sorted(op["inputs"].values()))
    res = report.get("result")
    if not isinstance(res, dict):
        return problems + [f"result is {res!r}"]
    try:
        problems += _by_construction(op, res)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"malformed result: {type(exc).__name__}: {exc}")
    if ref is not None:
        problems += same(ref["result"], res)
    return problems
