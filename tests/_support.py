"""Shared test helpers: instance generators and independent oracles.

The oracles here are deliberately written against the definitions, not
against the library's algorithms, so that agreement between the two is
evidence and not tautology.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from fracsub import JointDistribution, SetFunction, WeightedFamily
from fracsub.bitsets import full_mask, iter_bits, subsets
from fracsub.lp import Constraint, RationalLP
from fracsub.rationals import effective_tol
from fracsub.setfn import Verdict


@contextmanager
def under_seconds(limit: float, what: str = "block"):
    t0 = time.perf_counter()
    yield
    took = time.perf_counter() - t0
    assert took < limit, f"{what} took {took:.2f}s, budget {limit}s"


# ---------------------------------------------------------------- families


def random_set_partition(n: int, rng: random.Random) -> list[int]:
    """A uniform-ish set partition of [1:n] as block masks, >= 2 blocks."""
    while True:
        blocks: list[int] = []
        for i in range(n):
            j = rng.randrange(len(blocks) + 1)
            if j == len(blocks):
                blocks.append(1 << i)
            else:
                blocks[j] |= 1 << i
        if n == 1 or len(blocks) >= 2:
            return blocks


def random_partition_family(n: int, rng: random.Random, mixes: int = 3) -> WeightedFamily:
    """Convex combination of set partitions, always including singletons.

    The singleton component keeps every ordered pair separated, so the
    result satisfies the standing assumptions and has sigma > 0.
    """
    lam = [Fraction(rng.randint(1, 9)) for _ in range(mixes + 1)]
    total = sum(lam)
    lam = [x / total for x in lam]
    weights: dict[int, Fraction] = {}
    for i in range(n):
        weights[1 << i] = weights.get(1 << i, Fraction(0)) + lam[0]
    for t in range(1, mixes + 1):
        for block in random_set_partition(n, rng):
            weights[block] = weights.get(block, Fraction(0)) + lam[t]
    return WeightedFamily(n=n, members=tuple(sorted(weights.items())))


def random_covering_family(n: int, rng: random.Random) -> WeightedFamily:
    """A partition plus strictly positive extra members: a covering."""
    base = random_partition_family(n, rng)
    weights = {m: w for m, w in base.members}
    for _ in range(rng.randint(1, 3)):
        m = rng.randrange(1, (1 << n) - 1)
        w = Fraction(rng.randint(1, 4), rng.randint(4, 9))
        weights[m] = weights.get(m, Fraction(0)) + w
    return WeightedFamily(n=n, members=tuple(sorted(weights.items())))


def random_packing_family(n: int, rng: random.Random) -> WeightedFamily:
    """A partition scaled below 1, or with one member shrunk."""
    base = random_partition_family(n, rng)
    members = list(base.members)
    if rng.random() < 0.5:
        rho = Fraction(rng.randint(1, 7), 8)
        members = [(m, w * rho) for m, w in members]
    else:
        i = rng.randrange(len(members))
        m, w = members[i]
        members[i] = (m, w * Fraction(rng.randint(1, 7), 8))
    return WeightedFamily(n=n, members=tuple(members))


def coverage_by_hand(wf: WeightedFamily) -> list[Fraction]:
    cov = [Fraction(0)] * wf.n
    for m, w in wf.members:
        for i in range(wf.n):
            if (m >> i) & 1:
                cov[i] += w
    return cov


# ---------------------------------------------------------- set functions


def submodular_by_definition(f: SetFunction, tol: float = 0.0) -> bool:
    """All-pairs f(S) + f(T) >= f(S|T) + f(S&T); O(4^n), n small only."""
    vals = f.values
    for s in subsets(f.n):
        for t in subsets(f.n):
            if vals[s] + vals[t] < vals[s | t] + vals[s & t] - tol:
                return False
    return True


def submodular_by_loops(f: SetFunction, tol: float | None = None) -> Verdict:
    """Local-exchange scan over (S, i, j) in table order, one cell at a time."""
    eps = effective_tol(f.is_rational, tol)
    n, vals = f.n, f.values
    for s in subsets(n):
        free = full_mask(n) & ~s
        for i in iter_bits(free):
            bi = 1 << i
            fi = vals[s | bi]
            for j in iter_bits(free >> (i + 1)):
                bj = 1 << (i + 1 + j)
                if fi + vals[s | bj] < vals[s | bi | bj] + vals[s] - eps:
                    return Verdict(False, (s | bi, s | bj))
    return Verdict(True)


def modular_by_loops(f: SetFunction, tol: float | None = None) -> Verdict:
    """First subset whose value is not the sum of its singleton values."""
    eps = effective_tol(f.is_rational, tol)
    vals = f.values
    singles = [vals[1 << i] for i in range(f.n)]
    for a in subsets(f.n):
        acc = sum(singles[i] for i in iter_bits(a))
        if abs(vals[a] - acc) > eps:
            return Verdict(False, a)
    return Verdict(True)


def nondecreasing_by_loops(f: SetFunction, tol: float | None = None) -> Verdict:
    """First covering pair (S, S + i) in table order with a drop."""
    eps = effective_tol(f.is_rational, tol)
    n, vals = f.n, f.values
    for s in subsets(n):
        for i in iter_bits(full_mask(n) & ~s):
            if vals[s | (1 << i)] < vals[s] - eps:
                return Verdict(False, (s, s | (1 << i)))
    return Verdict(True)


def random_modular_table(n: int, rng: random.Random) -> SetFunction:
    xs = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
    values = []
    for m in subsets(n):
        acc = Fraction(0)
        for i in range(n):
            if (m >> i) & 1:
                acc += xs[i]
        values.append(acc)
    return SetFunction(n=n, values=tuple(values), label="modular")


def modular_from_singletons(xs) -> SetFunction:
    xs = list(xs)
    n = len(xs)
    values = []
    for m in subsets(n):
        acc = xs[0] - xs[0]
        for i in range(n):
            if (m >> i) & 1:
                acc += xs[i]
        values.append(acc)
    return SetFunction(n=n, values=tuple(values), label="modular")


# ------------------------------------------------------------ distributions


def random_pmf(sizes, rng: random.Random) -> JointDistribution:
    total = 1
    for s in sizes:
        total *= s
    cells = np.array([rng.random() + 0.02 for _ in range(total)])
    cells /= cells.sum()
    return JointDistribution(tuple(sizes), cells.reshape(tuple(sizes)))


def product_pmf(sizes, rng: random.Random) -> JointDistribution:
    margs = []
    for s in sizes:
        v = np.array([rng.random() + 0.05 for _ in range(s)])
        margs.append(v / v.sum())
    pmf = margs[0]
    for m in margs[1:]:
        pmf = np.multiply.outer(pmf, m)
    return JointDistribution(tuple(sizes), pmf)


def identical_bits(n: int) -> JointDistribution:
    pmf = np.zeros((2,) * n)
    pmf[(0,) * n] = 0.5
    pmf[(1,) * n] = 0.5
    return JointDistribution((2,) * n, pmf)


# ------------------------------------------------------------------- exact LP


def _solve_square(a: list[list[Fraction]], b: list[Fraction]):
    """Exact Gaussian elimination; None if the matrix is singular."""
    k = len(a)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(k):
        piv = next((r for r in range(col, k) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(k):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [m[i][k] for i in range(k)]


def _row_reduce(rows: list[list[Fraction]]):
    """Echelon form; returns (independent rows, inconsistent flag)."""
    rows = [r[:] for r in rows]
    ncols = len(rows[0]) - 1
    out = []
    pivot_cols = []
    for col in range(ncols):
        piv = None
        for r in rows:
            if r[col] != 0 and all(r[c] == 0 for c in pivot_cols):
                piv = r
                break
        if piv is None:
            continue
        piv = [x / piv[col] for x in piv]
        rows = [
            [x - r[col] * y for x, y in zip(r, piv)] if r is not piv else r
            for r in rows
        ]
        out.append(piv)
        pivot_cols.append(col)
    for r in rows:
        if all(x == 0 for x in r[:-1]) and r[-1] != 0:
            return out, True
    return out, False


def brute_force_lp_max(lp: RationalLP):
    """Vertex enumeration for bounded LPs: returns (status, value).

    Inequalities get slack columns; every basis of the reduced equality
    system is solved exactly, and the best feasible vertex wins.  Only
    valid when the feasible region is bounded (true for the partition
    polytopes this backs up).
    """
    nvars = lp.nvars
    rows = []
    slack_rows = [i for i, c in enumerate(lp.rows) if c.relation != "="]
    ncols = nvars + len(slack_rows)
    for i, c in enumerate(lp.rows):
        row = list(c.coeffs) + [Fraction(0)] * len(slack_rows)
        if c.relation != "=":
            j = slack_rows.index(i)
            row[nvars + j] = Fraction(1) if c.relation == "<=" else Fraction(-1)
        rows.append(row + [c.rhs])
    reduced, inconsistent = _row_reduce(rows)
    if inconsistent:
        return "infeasible", None
    rank = len(reduced)
    a = [r[:-1] for r in reduced]
    b = [r[-1] for r in reduced]
    best = None
    if rank == 0:
        best = Fraction(0) if all(x == 0 for x in b) else None
    for cols in itertools.combinations(range(ncols), rank):
        sq = [[a[r][c] for c in cols] for r in range(rank)]
        sol = _solve_square(sq, b)
        if sol is None or any(x < 0 for x in sol):
            continue
        x = [Fraction(0)] * ncols
        for c, v in zip(cols, sol):
            x[c] = v
        value = sum(
            (co * xv for co, xv in zip(lp.objective, x[:nvars])), Fraction(0)
        )
        if best is None or value > best:
            best = value
    if best is None:
        return "infeasible", None
    return "optimal", best


def partition_lp(n: int, masks, costs) -> RationalLP:
    """Equality LP: coverage of every element is 1, maximize costs."""
    rows = []
    for i in range(n):
        coeffs = [Fraction(1) if (m >> i) & 1 else Fraction(0) for m in masks]
        rows.append(Constraint(tuple(coeffs), "=", Fraction(1)))
    return RationalLP(objective=tuple(costs), rows=tuple(rows))


def proper_nonempty_subsets(n: int) -> list[int]:
    return list(range(1, full_mask(n)))
