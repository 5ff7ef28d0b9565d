"""Shared test helpers: instance generators and independent oracles.

The oracles here are deliberately written against the definitions, not
against the library's algorithms, so that agreement between the two is
evidence and not tautology.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from fracsub import JointDistribution, SetFunction, WeightedFamily
from fracsub.bitsets import full_mask, iter_bits, subsets
from fracsub.errors import PreconditionError, ValidationError
from fracsub.families import FamilyClassification
from fracsub.gauss import PDMatrix, principal_minor
from fracsub.lp import Constraint, LPOutcome, RationalLP
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


def classify_by_bits(wf: WeightedFamily) -> FamilyClassification:
    """Coverage by one Fraction addition per member bit, then the flavor."""
    cov = [Fraction(0)] * wf.n
    for mask, w in wf.members:
        for b in iter_bits(mask):
            cov[b] += w
    over = tuple(i + 1 for i, c in enumerate(cov) if c > 1)
    under = tuple(i + 1 for i, c in enumerate(cov) if c < 1)
    if not over and not under:
        flavor = "partition"
    elif not under:
        flavor = "covering"
    elif not over:
        flavor = "packing"
    else:
        flavor = "none"
    return FamilyClassification(flavor, tuple(cov), over, under)


def signature_groups_by_tuples(n: int, masks) -> list[int]:
    """Co-occurrence classes keyed by per-element membership tuples."""
    sig: dict[tuple[bool, ...], int] = {}
    for i in range(n):
        key = tuple(bool((m >> i) & 1) for m in masks)
        sig[key] = sig.get(key, 0) | (1 << i)
    return sorted(sig.values(), key=lambda g: g & -g)


def normalize_by_loops(wf: WeightedFamily):
    """The standing cleanup, member by member and class by class."""
    full = full_mask(wf.n)
    kept = [(m, w) for m, w in wf.members if w != 0]
    delta = sum((w for m, w in kept if m == full), Fraction(0))
    if delta >= 1:
        raise PreconditionError(f"full-set weight {delta} >= 1 cannot be rescaled away")
    if delta > 0:
        scale = 1 / (1 - delta)
        kept = [(m, w * scale) for m, w in kept if m != full]
    if not kept:
        raise PreconditionError("empty family after normalization")
    groups = signature_groups_by_tuples(wf.n, [m for m, _ in kept])
    merge_map = {}
    for new_idx, group in enumerate(groups, start=1):
        for b in iter_bits(group):
            merge_map[b + 1] = new_idx
    reps = [group & -group for group in groups]
    new_members = []
    for mask, w in kept:
        nm = 0
        for gi, rep in enumerate(reps):
            if mask & rep:
                nm |= 1 << gi
        new_members.append((nm, w))
    return WeightedFamily(len(groups), tuple(new_members)), merge_map


def sigma_by_loops(wf: WeightedFamily) -> tuple[Fraction, tuple[int, int]]:
    """Minimum separating weight and its first 1-indexed (i, j) pair,
    one Fraction addition per (pair, member); zero is returned, not raised."""
    best: Fraction | None = None
    worst_pair = None
    for i in range(wf.n):
        for j in range(wf.n):
            if i == j:
                continue
            s = Fraction(0)
            for mask, w in wf.members:
                if (mask >> i) & 1 and not (mask >> j) & 1:
                    s += w
            if best is None or s < best:
                best, worst_pair = s, (i + 1, j + 1)
    return best, worst_pair


def min_multiplicity_by_loops(masks, n: int) -> int:
    """Smallest cover count over elements, counted bit by bit."""
    counts = [0] * n
    for m in masks:
        for b in iter_bits(m):
            counts[b] += 1
    for i, c in enumerate(counts):
        if c == 0:
            raise ValidationError(f"element {i + 1} appears in no member")
    return min(counts)


def weighted_sum_by_members(wf: WeightedFamily, values, exact: bool):
    """sum gamma(S) * values[k], one product and one addition per member."""
    pairs = zip((w for _, w in wf.members), values)
    if exact:
        return sum((w * v for w, v in pairs), Fraction(0))
    return math.fsum(float(w) * v for w, v in pairs)


def gap_upper_by_members(f: SetFunction, wf: WeightedFamily):
    s = weighted_sum_by_members(wf, [f.value(m) for m, _ in wf.members], f.is_rational)
    return s - f.value(full_mask(f.n))


def gap_lower_by_members(f: SetFunction, wf: WeightedFamily):
    top = f.value(full_mask(f.n))
    conds = [top - f.value(full_mask(f.n) ^ m) for m, _ in wf.members]
    return top - weighted_sum_by_members(wf, conds, f.is_rational)


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


# --------------------------------------------------- matroids and matrices


def free_outside_loops_by_subsets(m) -> bool:
    """r(S) = |S minus loops| for every subset S, one rank call each."""
    loop_mask = 0
    for i in range(m.n):
        if m.rank(1 << i) == 0:
            loop_mask |= 1 << i
    return all(m.rank(s) == (s & ~loop_mask).bit_count() for s in subsets(m.n))


def log_minor_by_cholesky(K: PDMatrix, mask: int) -> float:
    """ln det K(mask) from one Cholesky factorization of that minor."""
    if mask == 0:
        return 0.0
    low = np.linalg.cholesky(principal_minor(K, mask))
    return 2.0 * float(np.sum(np.log(np.diag(low))))


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


def _fraction_pivot(
    tableau: list[list[Fraction]], basis: list[int], row: int, col: int
) -> None:
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    prow = tableau[row]
    for r, trow in enumerate(tableau):
        if r != row and trow[col] != 0:
            f = trow[col]
            tableau[r] = [x - f * y for x, y in zip(trow, prow)]
    basis[row] = col


def _fraction_simplex(
    tableau: list[list[Fraction]],
    basis: list[int],
    cost: list[Fraction],
    ncols_enterable: int,
) -> str:
    """Bland's rule simplex on a tableau already in canonical form."""
    while True:
        m = len(tableau)
        y = [cost[basis[r]] for r in range(m)]
        in_basis = set(basis)
        entering = -1
        for j in range(ncols_enterable):
            if j in in_basis:
                continue
            cbar = cost[j]
            for r in range(m):
                if y[r] != 0 and tableau[r][j] != 0:
                    cbar -= y[r] * tableau[r][j]
            if cbar > 0:
                entering = j  # Bland: smallest improving index
                break
        if entering < 0:
            return "optimal"
        leave = -1
        best: Fraction | None = None
        for r in range(m):
            a = tableau[r][entering]
            if a > 0:
                ratio = tableau[r][-1] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[r] < basis[leave])
                ):
                    best, leave = ratio, r
        if leave < 0:
            return "unbounded"
        _fraction_pivot(tableau, basis, leave, entering)


def simplex_by_fractions(lp: RationalLP) -> LPOutcome:
    """Two-phase Bland simplex on a Fraction tableau, one entry at a time."""
    nstruct = lp.nvars
    rows = []
    for c in lp.rows:
        coeffs, rel, rhs = list(c.coeffs), c.relation, c.rhs
        if rhs < 0:
            coeffs = [-a for a in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        rows.append((coeffs, rel, rhs))

    slack_col: dict[int, int] = {}
    art_col: dict[int, int] = {}
    ncols = nstruct
    for r, (_, rel, _) in enumerate(rows):
        if rel in ("<=", ">="):
            slack_col[r] = ncols
            ncols += 1
    n_nonart = ncols
    for r, (_, rel, _) in enumerate(rows):
        if rel in (">=", "="):
            art_col[r] = ncols
            ncols += 1

    zero = Fraction(0)
    tableau = []
    basis = []
    for r, (coeffs, rel, rhs) in enumerate(rows):
        trow = [zero] * ncols + [rhs]
        for j, a in enumerate(coeffs):
            trow[j] = a
        if rel == "<=":
            trow[slack_col[r]] = Fraction(1)
        elif rel == ">=":
            trow[slack_col[r]] = Fraction(-1)
        if r in art_col:
            trow[art_col[r]] = Fraction(1)
        tableau.append(trow)
        basis.append(art_col[r] if r in art_col else slack_col[r])

    if art_col:
        cost1 = [zero] * ncols
        for c in art_col.values():
            cost1[c] = Fraction(-1)
        _fraction_simplex(tableau, basis, cost1, ncols)  # bounded below, never unbounded
        val1 = sum(cost1[basis[r]] * tableau[r][-1] for r in range(len(tableau)))
        if val1 < 0:
            return LPOutcome("infeasible")
        art_set = set(art_col.values())
        r = 0
        while r < len(tableau):
            if basis[r] in art_set:
                piv = next(
                    (j for j in range(n_nonart) if tableau[r][j] != 0), None
                )
                if piv is None:
                    del tableau[r]  # redundant original row
                    del basis[r]
                    continue
                _fraction_pivot(tableau, basis, r, piv)
            r += 1

    cost2 = list(lp.objective) + [zero] * (ncols - nstruct)
    status = _fraction_simplex(tableau, basis, cost2, n_nonart)
    if status == "unbounded":
        return LPOutcome("unbounded")
    x = [zero] * ncols
    for r in range(len(tableau)):
        x[basis[r]] = tableau[r][-1]
    solution = tuple(x[:nstruct])
    value = sum((o * s for o, s in zip(lp.objective, solution)), zero)
    return LPOutcome("optimal", solution, value)


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
