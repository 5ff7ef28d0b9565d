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

Every family-weighted sum, sum gamma(S) * x(S) over the members, is
``weighted_sum``, which reads one cached grouping of member positions
by weight.  Coverage, sigma and the standing assumptions read the
cached member-by-element bit matrix B of ``bitsets.member_bits``: c_i
is the weighted sum of column i, and the separating weights are
sum_w w * B_w^T (1 - B_w) over the rows B_w of weight w, in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np

from .bitsets import check_mask, complement, full_mask, iter_bits, member_bits
from .errors import PreconditionError, ValidationError
from .rationals import Scalar
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
    def _groups(self) -> tuple[tuple[Fraction, np.ndarray], ...]:
        """(w, positions in ``members`` of the weight-w members) per distinct w."""
        by_weight: dict[tuple[int, int], tuple[Fraction, list[int]]] = {}
        for k, (_, w) in enumerate(self.members):
            by_weight.setdefault((w.numerator, w.denominator), (w, []))[1].append(k)
        return tuple((w, np.array(pos, dtype=np.intp)) for w, pos in by_weight.values())

    @cached_property
    def _bits(self) -> np.ndarray:
        """The member-by-element bit matrix, one row per member in order."""
        return member_bits([m for m, _ in self.members], self.n)

    def weighted_sum(self, values, exact: bool) -> Scalar:
        """sum of gamma(S) * values[k] over members[k] = (S, gamma(S)).

        Exact (int or Fraction values): one product per distinct weight,
        and a Fraction result.  Binary64: one math.fsum of the products
        float(gamma) * value, rounded once whatever the member order; a
        sum past the binary64 range raises ValidationError.
        """
        values = np.asarray(values)
        if exact:
            return sum(
                (w * sum(values[pos].tolist()) for w, pos in self._groups), Fraction(0)
            )
        try:
            with np.errstate(over="raise"):
                products = [(float(w) * values[pos]).tolist() for w, pos in self._groups]
            return math.fsum(chain.from_iterable(products))
        except (FloatingPointError, OverflowError):  # in a product or a partial sum
            raise ValidationError("weighted member sum overflows binary64") from None

    @cached_property
    def classification(self) -> FamilyClassification:
        cov = [self.weighted_sum(column, exact=True) for column in self._bits.T]
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
        return sum((w * len(pos) for w, pos in self._groups), Fraction(0))

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
        # separating weights as exact ints over the common denominator:
        # pair counts B_w^T (1 - B_w) in int64, then one product per (w, pair)
        den = math.lcm(*(w.denominator for w, _ in self._groups))
        sep = np.zeros((self.n, self.n), dtype=object)
        for w, pos in self._groups:
            b = self._bits[pos].astype(np.int64)
            sep += w.numerator * (den // w.denominator) * (b.T @ (1 - b)).astype(object)
        np.fill_diagonal(sep, math.inf)
        i, j = divmod(int(sep.argmin()), self.n)  # the first minimum in (i, j) order
        if sep[i, j] == 0:
            raise PreconditionError(
                f"sigma = 0: no member separates {i + 1} from {j + 1}",
                witness=(i + 1, j + 1),
            )
        return Fraction(sep[i, j], den)

    def satisfies_standing_assumptions(self) -> bool:
        """Positive weights, no full-set member, no always-co-occurring pair."""
        zero_weight = any(w == 0 for w, _ in self._groups)
        if not self.members or zero_weight or self._bits.all(axis=1).any():
            return False
        return self.n == 1 or len(_signature_groups(self._bits)) == self.n

    def require_standing_assumptions(self) -> None:
        """Refuse (PreconditionError) a family that needs ``normalize`` first."""
        if not self.satisfies_standing_assumptions():
            raise PreconditionError(
                "family violates the standing assumptions; normalize first"
            )

    def normalize(self) -> tuple["WeightedFamily", dict[int, int]]:
        """Standing cleanup; returns (family, merge map old -> new, 1-indexed)."""
        full = full_mask(self.n)
        delta = self.weighted_sum([m == full for m, _ in self.members], exact=True)
        kept = [(m, w) for m, w in self.members if w != 0]
        if delta >= 1:
            raise PreconditionError(
                f"full-set weight {delta} >= 1 cannot be rescaled away"
            )
        if delta > 0:
            scale = 1 / (1 - delta)
            kept = [(m, w * scale) for m, w in kept if m != full]
        if not kept:
            raise PreconditionError("empty family after normalization")
        bits = member_bits([m for m, _ in kept], self.n)
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


def _signature_groups(bits: np.ndarray) -> list[int]:
    """Partition ground elements into co-occurrence classes.

    bits is the member-by-element matrix of ``member_bits``.  Two
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
    masks = [m for m in masks if 0 < check_mask(m, n) < full]
    if not masks:
        return None
    try:
        family, _ = lp.maximize_partition_weighted_sum(n, masks, [1] * len(masks))
    except PreconditionError:  # the polytope is empty
        return None
    return family


def min_multiplicity(masks, n: int) -> int:
    """Smallest cover count over elements for an unweighted multiset."""
    masks = [check_mask(m, n) for m in masks]
    counts = member_bits(masks, n).sum(axis=0).tolist()
    if 0 in counts:
        raise ValidationError(f"element {counts.index(0) + 1} appears in no member")
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
