"""Weighted multiset families over [1:n] and their coverage structure.

A WeightedFamily pairs subset masks with positive rational weights
gamma(S) (zero weights are tolerated in raw input and removed by
``normalize``).  The coverage sum of element i is

    c_i = sum of gamma(S) over members S containing i.

All c_i = 1 makes the family a fractional partition, all c_i >= 1 a
fractional covering, all c_i <= 1 a fractional packing.  Weights are
exact rationals by design, so classification is never a tolerance
question.

``normalize`` applies the standing cleanup: drop zero weights, remove
a full-set member of total weight delta < 1 while rescaling the rest
by 1/(1 - delta), and merge ground elements that co-occur in every
member (the returned merge map tracks the relabeling).  ``dual`` sends
gamma to the complement family gamma_bar(S^c) = gamma(S)/(w - 1) where
w is the total weight; it is an involution and flips covering with
packing.  ``sigma`` is the separation constant

    sigma = min over ordered pairs i != j of
            sum of gamma(S) over members with i in S, j not in S,

the denominator of the stability bound; a normalized fractional
partition always has sigma > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .bitsets import check_mask, complement, full_mask, iter_bits
from .errors import PreconditionError, ValidationError
from . import lp


@dataclass(frozen=True)
class FamilyClassification:
    flavor: str  # "partition" | "covering" | "packing" | "none"
    coverage: tuple[Fraction, ...]
    over_covered: tuple[int, ...]  # 1-indexed elements with c_i > 1
    under_covered: tuple[int, ...]  # 1-indexed elements with c_i < 1


def _coerce_weight(raw) -> Fraction:
    if not isinstance(raw, Fraction):
        if isinstance(raw, bool):
            raise ValidationError("bool is not a weight")
        if not isinstance(raw, int):
            raise ValidationError(
                f"weights must be exact rationals, got {type(raw).__name__}"
            )
        raw = Fraction(raw)
    if raw.numerator < 0:  # the denominator of a Fraction is positive
        raise ValidationError(f"negative weight {raw}")
    return raw


@dataclass(frozen=True)
class WeightedFamily:
    """Multiset of (subset mask, rational weight) pairs on [1:n].

    Member order is stable and duplicates are kept; every operation
    treats the family as a multiset.
    """

    n: int
    members: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValidationError(f"ground set size must be >= 1, got {self.n}")
        norm = []
        for mask, w in self.members:
            check_mask(mask, self.n)
            norm.append((mask, _coerce_weight(w)))
        object.__setattr__(self, "members", tuple(norm))

    @cached_property
    def classification(self) -> FamilyClassification:
        # members counted per element in ints, one group per distinct
        # weight; then one exact product per (weight, element)
        by_weight: dict[tuple[int, int], tuple[Fraction, list[int]]] = {}
        for mask, w in self.members:
            by_weight.setdefault((w.numerator, w.denominator), (w, []))[1].append(mask)
        cov = [Fraction(0)] * self.n
        for w, masks in by_weight.values():
            counts = _member_bits(masks, self.n).sum(axis=0).tolist()
            for i, count in enumerate(counts):
                if count:
                    cov[i] += w * count
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

    def classify(self) -> FamilyClassification:
        return self.classification

    def weight_total(self) -> Fraction:
        return sum((w for _, w in self.members), Fraction(0))

    def dual(self) -> "WeightedFamily":
        """Complement family gamma(S)/(w-1) on the S^c; needs w > 1."""
        if any(w == 0 for _, w in self.members):
            raise PreconditionError("dual needs positive weights; normalize first")
        w = self.weight_total()
        if w <= 1:
            raise PreconditionError(f"dual needs total weight > 1, got {w}")
        scale = w - 1
        return WeightedFamily(
            self.n,
            tuple((complement(m, self.n), g / scale) for m, g in self.members),
        )

    def sigma(self) -> Fraction:
        """Minimum separating weight over ordered element pairs."""
        if self.n < 2:
            raise PreconditionError("sigma needs at least two ground elements")
        best: Fraction | None = None
        worst_pair = None
        for i in range(self.n):
            for j in range(self.n):
                if i == j:
                    continue
                s = Fraction(0)
                for mask, w in self.members:
                    if (mask >> i) & 1 and not (mask >> j) & 1:
                        s += w
                if best is None or s < best:
                    best, worst_pair = s, (i + 1, j + 1)
        if best == 0:
            raise PreconditionError(
                f"sigma = 0: no member separates {worst_pair[0]} from {worst_pair[1]}",
                witness=worst_pair,
            )
        return best

    def satisfies_standing_assumptions(self) -> bool:
        """Positive weights, no full-set member, no always-co-occurring pair."""
        if not self.members or any(w == 0 for _, w in self.members):
            return False
        full = full_mask(self.n)
        if any(m == full for m, _ in self.members):
            return False
        masks = [m for m, _ in self.members]
        if self.n > 1 and len(_signature_groups(_member_bits(masks, self.n))) < self.n:
            return False
        return True

    def normalize(self) -> tuple["WeightedFamily", dict[int, int]]:
        """Standing cleanup; returns (family, merge map old -> new, 1-indexed)."""
        full = full_mask(self.n)
        kept = [(m, w) for m, w in self.members if w != 0]
        delta = sum((w for m, w in kept if m == full), Fraction(0))
        if delta >= 1:
            raise PreconditionError(
                f"full-set weight {delta} >= 1 cannot be rescaled away"
            )
        if delta > 0:
            scale = 1 / (1 - delta)
            kept = [(m, w * scale) for m, w in kept if m != full]
        if not kept:
            raise PreconditionError("empty family after normalization")
        bits = _member_bits([m for m, _ in kept], self.n)
        groups = _signature_groups(bits)
        merge_map = {}
        for new_idx, group in enumerate(groups, start=1):
            for b in iter_bits(group):
                merge_map[b + 1] = new_idx
        # a member's new mask holds bit gi iff it contains class gi's
        # smallest element (then it contains the whole class)
        reps = [(group & -group).bit_length() - 1 for group in groups]
        packed = np.packbits(bits[:, reps], axis=1, bitorder="little")
        raw, width = packed.tobytes(), packed.shape[1]
        new_members = tuple(
            (int.from_bytes(raw[k * width : (k + 1) * width], "little"), w)
            for k, (_, w) in enumerate(kept)
        )
        return WeightedFamily(len(groups), new_members), merge_map


def _member_bits(masks: list[int], n: int) -> np.ndarray:
    """0/1 matrix with one row per mask: entry (k, i) is bit i of masks[k]."""
    width = (n + 7) // 8
    raw = b"".join(m.to_bytes(width, "little") for m in masks)
    return np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width),
        axis=1,
        count=n,
        bitorder="little",
    )


def _signature_groups(bits: np.ndarray) -> list[int]:
    """Partition ground elements into co-occurrence classes.

    bits is the member-by-element matrix of ``_member_bits``.  Two
    elements belong to one class iff every member contains both or
    neither, i.e. their columns are equal.  Classes are returned as
    masks on the original ground set, ordered by smallest element.
    """
    sig: dict[bytes, int] = {}
    for i in range(bits.shape[1]):
        key = bits[:, i].tobytes()
        sig[key] = sig.get(key, 0) | (1 << i)
    return sorted(sig.values(), key=lambda g: g & -g)


def find_fractional_partition(masks, n: int) -> WeightedFamily | None:
    """Positive weights making every coverage sum exactly 1, if any.

    Solves max sum(gamma) over the exact partition polytope of the
    given multiset.  Full-set and empty members never receive weight:
    a full-set weight delta < 1 could always be rescaled away, delta = 1
    is the degenerate family the normalization guard rejects, and an
    empty member would make the objective unbounded.  Returns the
    positive-weight sub-multiset, or None if no assignment exists.
    """
    full = full_mask(n)
    vars_ = [(idx, check_mask(m, n)) for idx, m in enumerate(masks)]
    vars_ = [(idx, m) for idx, m in vars_ if 0 < m < full]
    if not vars_:
        return None
    rows = []
    for i in range(n):
        coeffs = tuple(
            Fraction(1) if (m >> i) & 1 else Fraction(0) for _, m in vars_
        )
        rows.append(lp.Constraint(coeffs, "=", Fraction(1)))
    prog = lp.RationalLP(tuple(Fraction(1) for _ in vars_), tuple(rows))
    out = lp.solve(prog)
    if out.status != "optimal":
        return None
    kept = tuple(
        (m, g) for (_, m), g in zip(vars_, out.solution) if g > 0
    )
    if not kept:
        return None
    return WeightedFamily(n, kept)


def min_multiplicity(masks, n: int) -> int:
    """Smallest cover count over elements for an unweighted multiset."""
    counts = [0] * n
    for m in masks:
        check_mask(m, n)
        for b in iter_bits(m):
            counts[b] += 1
    for i, c in enumerate(counts):
        if c == 0:
            raise ValidationError(f"element {i + 1} appears in no member")
    return min(counts)


def singleton_family(n: int) -> WeightedFamily:
    """All singletons with weight 1: the canonical fractional partition."""
    return WeightedFamily(n, tuple((1 << i, Fraction(1)) for i in range(n)))


def co_singleton_family(n: int) -> WeightedFamily:
    """All (n-1)-subsets with weight 1/(n-1); needs n >= 2."""
    if n < 2:
        raise ValidationError("co-singleton family needs n >= 2")
    full = full_mask(n)
    w = Fraction(1, n - 1)
    return WeightedFamily(n, tuple((full ^ (1 << i), w) for i in range(n)))
