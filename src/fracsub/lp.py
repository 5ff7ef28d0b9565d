"""Exact linear programming over the rationals.

Primal simplex, two phases, Bland's anti-cycling rule, in exact
integer arithmetic.  Problems are stated as

    maximize c . x   subject to rows (a, rel, b) with rel in {=, <=, >=}
    and x >= 0.

with fractions.Fraction coefficients in and out.  There is no presolve
and no scaling; infeasibility and unboundedness are detected explicitly
(phase 1 optimum below zero, respectively an entering column with no
positive pivot).  Binary64 objective costs can be embedded exactly
because every float is a rational.

Each tableau row is a list of Python-int numerators over one positive
int denominator, reduced by their gcd after every pivot, and the costs
are ints over their common denominator.  Reduced costs are recomputed
each iteration as C_j Q - sum_r w_r N_r[j] with Q the lcm of the row
denominators, and the ratio test cross-multiplies, so every pivot is
the one a Fraction tableau would choose.  Carrying no factorization is
simple and fast at the desk scale this package targets (tens of
variables), and exactness makes certificates re-verifiable with zero
residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bitsets import member_bits
from .errors import PreconditionError, ValidationError

RELATIONS = ("=", "<=", ">=")


def _frac(x) -> Fraction:
    if isinstance(x, bool):
        raise ValidationError("bool is not a coefficient")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact: binary64 is a subset of Q
    raise ValidationError(f"unsupported coefficient type {type(x).__name__}")


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise ValidationError(f"relation must be one of {RELATIONS}")
        object.__setattr__(self, "coeffs", tuple(_frac(a) for a in self.coeffs))
        object.__setattr__(self, "rhs", _frac(self.rhs))


@dataclass(frozen=True)
class RationalLP:
    objective: tuple[Fraction, ...]
    rows: tuple[Constraint, ...]

    def __post_init__(self):
        object.__setattr__(self, "objective", tuple(_frac(a) for a in self.objective))
        for row in self.rows:
            if len(row.coeffs) != len(self.objective):
                raise ValidationError("constraint width does not match objective")

    @property
    def nvars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LPOutcome:
    status: str  # "optimal" | "infeasible" | "unbounded"
    solution: tuple[Fraction, ...] | None = None
    value: Fraction | None = None


def _reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    g = math.gcd(den, *nums)
    if g == 1:
        return nums, den
    return [a // g for a in nums], den // g


def _pivot(
    rows: list[list[int]], dens: list[int], basis: list[int], row: int, col: int
) -> None:
    """Make column col a unit vector with its 1 in row.

    Tableau entry (r, j) is rows[r][j] / dens[r], dens[r] > 0.
    """
    prow = rows[row]
    if prow[col] < 0:
        prow = [-a for a in prow]
    # the pivot row divided by its pivot: numerators over prow[col]
    prow, p = _reduced(prow, prow[col])
    rows[row], dens[row] = prow, p
    for r, nums in enumerate(rows):
        a = nums[col]
        if r != row and a:
            rows[r], dens[r] = _reduced(
                [x * p - a * y for x, y in zip(nums, prow)], dens[r] * p
            )
    basis[row] = col


def _run_simplex(
    rows: list[list[int]],
    dens: list[int],
    basis: list[int],
    cost: list[int],
    ncols_enterable: int,
) -> str:
    """Bland's rule simplex on a tableau already in canonical form.

    cost holds integer costs over one common denominator; only signs
    and exact comparisons of them steer the pivots.
    """
    while True:
        # reduced cost of column j, times Q * (cost denominator):
        # C_j Q - sum_r w_r N_r[j], with w_r = C_basis(r) Q / d_r
        q = math.lcm(*dens)
        weighted = [
            (cost[b] * (q // d), nums)
            for b, d, nums in zip(basis, dens, rows)
            if cost[b]
        ]
        in_basis = set(basis)
        entering = -1
        for j in range(ncols_enterable):
            if j in in_basis:
                continue
            cbar = cost[j] * q
            for w, nums in weighted:
                cbar -= w * nums[j]
            if cbar > 0:
                entering = j  # Bland: smallest improving index
                break
        if entering < 0:
            return "optimal"
        # ratio rhs / a of a row is nums[-1] / nums[entering]: the row
        # denominator cancels, and ties compare by cross-multiplication
        leave = -1
        for r, nums in enumerate(rows):
            a = nums[entering]
            if a > 0:
                if leave < 0:
                    leave = r
                    continue
                lead = rows[leave]
                lhs, rhs = nums[-1] * lead[entering], lead[-1] * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave = r
        if leave < 0:
            return "unbounded"
        _pivot(rows, dens, basis, leave, entering)


def _int_row(values) -> tuple[list[int], int]:
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def solve(lp: RationalLP) -> LPOutcome:
    """Two-phase exact simplex; deterministic for identical input."""
    nstruct = lp.nvars
    rows_in = []
    for c in lp.rows:
        coeffs, rel, rhs = list(c.coeffs), c.relation, c.rhs
        if rhs < 0:
            coeffs = [-a for a in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        rows_in.append((coeffs, rel, rhs))

    slack_col: dict[int, int] = {}
    art_col: dict[int, int] = {}
    ncols = nstruct
    for r, (_, rel, _) in enumerate(rows_in):
        if rel in ("<=", ">="):
            slack_col[r] = ncols
            ncols += 1
    n_nonart = ncols
    for r, (_, rel, _) in enumerate(rows_in):
        if rel in (">=", "="):
            art_col[r] = ncols
            ncols += 1

    rows: list[list[int]] = []
    dens: list[int] = []
    basis: list[int] = []
    for r, (coeffs, rel, rhs) in enumerate(rows_in):
        nums, den = _int_row(coeffs + [rhs])
        trow = nums[:nstruct] + [0] * (ncols - nstruct) + nums[-1:]
        if rel == "<=":
            trow[slack_col[r]] = den
        elif rel == ">=":
            trow[slack_col[r]] = -den
        if r in art_col:
            trow[art_col[r]] = den
        trow, den = _reduced(trow, den)
        rows.append(trow)
        dens.append(den)
        basis.append(art_col[r] if r in art_col else slack_col[r])

    if art_col:
        cost1 = [0] * ncols
        for c in art_col.values():
            cost1[c] = -1
        _run_simplex(rows, dens, basis, cost1, ncols)  # bounded below, never unbounded
        q = math.lcm(*dens)
        val1 = sum(cost1[b] * nums[-1] * (q // d) for b, d, nums in zip(basis, dens, rows))
        if val1 < 0:
            return LPOutcome("infeasible")
        art_set = set(art_col.values())
        r = 0
        while r < len(rows):
            if basis[r] in art_set:
                piv = next((j for j in range(n_nonart) if rows[r][j] != 0), None)
                if piv is None:
                    del rows[r]  # redundant original row
                    del dens[r]
                    del basis[r]
                    continue
                _pivot(rows, dens, basis, r, piv)
            r += 1

    cost_nums, _ = _int_row(lp.objective)
    cost2 = cost_nums + [0] * (ncols - nstruct)
    status = _run_simplex(rows, dens, basis, cost2, n_nonart)
    if status == "unbounded":
        return LPOutcome("unbounded")
    zero = Fraction(0)
    x = [zero] * ncols
    for b, d, nums in zip(basis, dens, rows):
        x[b] = Fraction(nums[-1], d)
    solution = tuple(x[:nstruct])
    value = sum((o * s for o, s in zip(lp.objective, solution)), zero)
    return LPOutcome("optimal", solution, value)


def residuals(lp: RationalLP, solution) -> list[Fraction]:
    """Exact a.x - b per row, in input order."""
    out = []
    for row in lp.rows:
        acc = sum((a * x for a, x in zip(row.coeffs, solution)), Fraction(0))
        out.append(acc - row.rhs)
    return out


def verify(lp: RationalLP, outcome: LPOutcome) -> bool:
    """Re-check an optimal certificate with zero tolerance."""
    if outcome.status != "optimal" or outcome.solution is None:
        return False
    if any(x < 0 for x in outcome.solution):
        return False
    for row, res in zip(lp.rows, residuals(lp, outcome.solution)):
        if row.relation == "=" and res != 0:
            return False
        if row.relation == "<=" and res > 0:
            return False
        if row.relation == ">=" and res < 0:
            return False
    value = sum(
        (o * s for o, s in zip(lp.objective, outcome.solution)), Fraction(0)
    )
    return value == outcome.value


def partition_polytope(n: int, masks) -> tuple[Constraint, ...]:
    """Equality rows: coverage of every element of [1:n] is exactly 1."""
    columns = member_bits(list(masks), n).T.tolist()
    return tuple(Constraint(tuple(column), "=", 1) for column in columns)


def maximize_partition_weighted_sum(n: int, masks, costs):
    """Maximize sum cost(S) * gamma(S) over exact fractional partitions.

    Members must be proper nonempty subsets.  Costs may be binary64;
    they are embedded exactly.  Returns (positive-weight family, value
    as float).  Raises if the polytope is empty.
    """
    from .families import WeightedFamily  # local import: families depends on lp

    masks = list(masks)
    costs = list(costs)
    if len(masks) != len(costs):
        raise ValidationError("costs and members must align")
    full = (1 << n) - 1
    for m in masks:
        if not 0 < m < full:
            raise ValidationError("members must be proper nonempty subsets")
    out = solve(RationalLP(tuple(costs), partition_polytope(n, masks)))
    if out.status != "optimal":
        raise PreconditionError("family admits no fractional partition")
    kept = tuple((m, g) for m, g in zip(masks, out.solution) if g > 0)
    return WeightedFamily(n, kept), float(out.value)
