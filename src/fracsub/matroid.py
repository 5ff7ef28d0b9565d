"""Matroid rank functions as exact submodular instances.

Four constructions cover the test surface:

    linear   rank of a set of columns of a rational matrix, by exact
             Gaussian elimination (no floating pivots, no tolerance)
    graphic  rank of an edge subset = edges that join distinct
             components, via union-find; self-loops are matroid loops
    uniform  min(|S|, k)
    free     |S|

Every rank function is grounded, non-decreasing, submodular, and has
unit increments, so the gap machinery applies with exact rational
arithmetic.  ``rank_equality_check`` decides when a fractional
partition attains sum gamma(F) r(F) = r(E): this happens iff every
subset avoiding the loops is independent (the matroid is free outside
its loops), which is also checked on its own by one rank call,
r(E minus loops) = |E minus loops|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .bitsets import check_mask, full_mask, iter_bits, subsets
from .errors import ConsistencyError, PreconditionError, ValidationError
from .families import WeightedFamily
from .setfn import SetFunction

MAX_DENSE_N = 20


@dataclass(frozen=True)
class LinearMatroid:
    """Ground element i is column i of a rational matrix (rows given)."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValidationError("linear matroid needs at least one matrix row")
        width = len(self.rows[0])
        if width < 1:
            raise ValidationError("linear matroid needs at least one column")
        norm = []
        for r, row in enumerate(self.rows):
            if len(row) != width:
                raise ValidationError(f"matrix row {r} has inconsistent width")
            norm.append(tuple(Fraction(x) for x in row))
        object.__setattr__(self, "rows", tuple(norm))

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def rank(self, mask: int) -> int:
        check_mask(mask, self.n)
        cols = list(iter_bits(mask))
        if not cols:
            return 0
        work = [[row[c] for c in cols] for row in self.rows]
        rank = 0
        for c in range(len(cols)):
            piv = next(
                (r for r in range(rank, len(work)) if work[r][c] != 0), None
            )
            if piv is None:
                continue
            work[rank], work[piv] = work[piv], work[rank]
            prow = work[rank]
            for r in range(len(work)):
                if r != rank and work[r][c] != 0:
                    f = work[r][c] / prow[c]
                    work[r] = [a - f * b for a, b in zip(work[r], prow)]
            rank += 1
        return rank


@dataclass(frozen=True)
class GraphicMatroid:
    """Ground element i is edge i (1-indexed vertex pairs)."""

    vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertices < 1:
            raise ValidationError("graphic matroid needs at least one vertex")
        if not self.edges:
            raise ValidationError("graphic matroid needs at least one edge")
        for u, v in self.edges:
            if not (1 <= u <= self.vertices and 1 <= v <= self.vertices):
                raise ValidationError(f"edge ({u},{v}) leaves the vertex range")

    @property
    def n(self) -> int:
        return len(self.edges)

    def rank(self, mask: int) -> int:
        check_mask(mask, self.n)
        parent = list(range(self.vertices + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        rank = 0
        for b in iter_bits(mask):
            u, v = self.edges[b]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                rank += 1
        return rank


@dataclass(frozen=True)
class UniformMatroid:
    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or not 0 <= self.k <= self.n:
            raise ValidationError("uniform matroid needs 0 <= k <= n, n >= 1")

    def rank(self, mask: int) -> int:
        check_mask(mask, self.n)
        return min(mask.bit_count(), self.k)


@dataclass(frozen=True)
class FreeMatroid:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("free matroid needs n >= 1")

    def rank(self, mask: int) -> int:
        check_mask(mask, self.n)
        return mask.bit_count()


Matroid = Union[LinearMatroid, GraphicMatroid, UniformMatroid, FreeMatroid]


def rank_setfn(m: Matroid) -> SetFunction:
    """Dense rational table of the rank function (n capped for density)."""
    if m.n > MAX_DENSE_N:
        raise ValidationError(f"dense rank table capped at n = {MAX_DENSE_N}")
    values = tuple(Fraction(m.rank(s)) for s in subsets(m.n))
    return SetFunction(m.n, values, label="matroid-rank")


def loops(m: Matroid) -> tuple[int, ...]:
    """1-indexed elements of rank zero."""
    return tuple(i + 1 for i in range(m.n) if m.rank(1 << i) == 0)


@dataclass(frozen=True)
class RankEqualityReport:
    weighted_rank_sum: Fraction
    total_rank: int
    equality: bool
    loop_elements: tuple[int, ...]
    free_outside_loops: bool


def rank_equality_check(m: Matroid, wf: WeightedFamily) -> RankEqualityReport:
    """sum gamma(F) r(F) = r(E) iff the matroid is free outside its loops.

    Both sides are decided independently and exactly: the weighted sum
    against the total rank, and freeness outside the loops as the one
    rank r(E minus loops) = |E minus loops|.  That rank suffices because
    subsets of an independent set are independent and loops add no
    rank, so it gives r(S) = |S minus loops| for every subset S.  The
    two sides must agree.
    """
    if m.n != wf.n:
        raise ValidationError(f"matroid on [1:{m.n}] but family on [1:{wf.n}]")
    if wf.classify().flavor != "partition":
        raise PreconditionError("rank equality needs a fractional partition")
    # without a separating family the forward implication can fail
    # (two parallel elements covered only jointly reach equality)
    wf.require_standing_assumptions()
    lhs = wf.weighted_sum([m.rank(f) for f, _ in wf.members], exact=True)
    rhs = m.rank(full_mask(m.n))
    equality = lhs == rhs
    loop_els = loops(m)
    loop_mask = 0
    for e in loop_els:
        loop_mask |= 1 << (e - 1)
    rest = full_mask(m.n) & ~loop_mask
    structure = m.rank(rest) == rest.bit_count()
    report = RankEqualityReport(
        weighted_rank_sum=lhs,
        total_rank=rhs,
        equality=bool(equality),
        loop_elements=loop_els,
        free_outside_loops=bool(structure),
    )
    if equality != structure:
        raise ConsistencyError(
            "rank equality and structural freeness disagree", report=report
        )
    return report
