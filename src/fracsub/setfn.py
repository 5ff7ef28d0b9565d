"""Dense set functions on the ground set [1:n] and their structure tests.

A SetFunction stores all 2**n values in table order (index = subset
mask), so every predicate here is an exhaustive, deterministic check
rather than a sample.  Instances are either exact-rational or binary64;
see :mod:`fracsub.rationals` for the comparison conventions.

The table is one numpy array.  Binary64 tables are float64.  Rational
tables are integer numerators over one common denominator (the lcm of
the values' denominators): int64 while every sum a scan forms stays
below 2**60 in magnitude, otherwise an object array of exact Python
ints.  ``values`` and ``value`` hand back Fractions and floats, so the
storage never shows outside this module.

Each predicate is a handful of whole-array comparisons over the
(2,)*n view of the table, one per element or element pair, so the
exhaustive checks stay cheap well past the sizes the tests use: the
three predicates together take about 0.012 / 0.08 / 0.34 s at
n = 16 / 18 / 20, on rational and float tables alike (best of five,
2 vCPU, Python 3.11, numpy 2.4), not counting the table build.

Submodularity is checked through local exchanges

    f(S + i) + f(S + j) >= f(S + i + j) + f(S)   for all S, i < j not in S,

which is equivalent to the definitional inequality over all pairs of
subsets but costs O(2**n * n**2) instead of O(4**n).  A failing
exchange is reported as the definitional witness pair
(S + i, S + j), whose union is S + i + j and intersection is S.

Monotonicity comes in two strengths.  ``is_nondecreasing`` demands
f(S) <= f(T) for all nested pairs (checked on covering pairs S, S + i).
``is_prefix_nondecreasing`` only demands that f({1}), f([1:2]), ...,
f([1:n]) is a non-decreasing chain; the chain deliberately starts at
j = 1, so a function may pass it while dipping below f(emptyset).
The weaker form is what the covering-side gap bound needs.

Witnesses are the first failure in table order (smallest S, then i,
then j).  Rational tables are compared as exact integers; float tables
use the same expression order as the textbook loops, so float verdicts
are bit-for-bit those of a scalar evaluation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np

from .bitsets import MASKS, MAX_GROUND, check_mask, elements, full_mask, iter_bits, subsets
from .errors import PreconditionError, ValidationError
from .rationals import Scalar, coerce_scalar, effective_tol

MAX_ENTROPY_N = 12
GENERATOR_KINDS = ("coverage", "entropy", "matroid-plus-modular")

# int64 numerators are kept only while max|numerator| * (n + 4) stays
# below this, which bounds every sum the scans form (at most n + 1
# values) well inside the int64 range
_INT64_GUARD = 1 << 60
_NON_FINITE = "values must be finite, not NaN or infinity"


def _check_ground(n) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_GROUND:
        raise ValidationError(f"ground set size must be 1..{MAX_GROUND}, got {n}")


@dataclass(frozen=True)
class Verdict:
    """Boolean answer plus a witness for the failing case (None if ok)."""

    ok: bool
    witness: object = field(default=None, metadata=MASKS)

    def __bool__(self) -> bool:
        return self.ok


class SetFunction:
    """Immutable dense table of one set function.

    ``SetFunction(n, values, label)`` takes the 2**n values in table
    order; values[mask] is f(S) for the subset S encoded by mask.  All
    values share one scalar kind: Fraction (ints are coerced) or float.
    ``table`` is the read-only array behind them: float64 values, or
    integer numerators over ``denominator`` (None for float tables).
    """

    __slots__ = ("n", "label", "table", "denominator")

    def __init__(self, n: int, values: Iterable[Scalar], label: str = ""):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "label", label)
        self.__post_init__(values)

    # the table build keeps the dataclass hook's name, which the
    # benchmark's tracer (bench/tracing.py) times as setfn.build_ms
    def __post_init__(self, values: Iterable[Scalar]) -> None:
        n = self.n
        _check_ground(n)
        vals = [coerce_scalar(v) for v in values]
        if len(vals) != 1 << n:
            raise ValidationError(f"need {1 << n} values for n={n}, got {len(vals)}")
        kinds = {isinstance(v, float) for v in vals}
        if len(kinds) > 1:
            raise ValidationError("mixed rational and float values in one table")
        if kinds == {True}:
            table = np.array(vals, dtype=np.float64)
            if not np.isfinite(table).all():
                raise ValidationError(_NON_FINITE)
            den = None
        else:
            den = math.lcm(*{v.denominator for v in vals})
            nums = [v.numerator * (den // v.denominator) for v in vals]
            exact = max(map(abs, nums)) * (n + 4) < _INT64_GUARD
            table = np.array(nums, dtype=np.int64 if exact else object)
        table.setflags(write=False)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "denominator", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"SetFunction is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"SetFunction is immutable; cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetFunction):
            return NotImplemented
        return (
            (self.n, self.label, self.denominator)
            == (other.n, other.label, other.denominator)
            and bool(np.array_equal(self.table, other.table))
        )

    def __hash__(self) -> int:
        return hash((self.n, self.label, self.values))

    def __repr__(self) -> str:
        return f"SetFunction(n={self.n!r}, values={self.values!r}, label={self.label!r})"

    @property
    def values(self) -> tuple[Scalar, ...]:
        """All 2**n values in table order, as Fractions or floats."""
        raw = self.table.tolist()
        if self.denominator is None:
            return tuple(raw)
        den = self.denominator
        return tuple(Fraction(x, den) for x in raw)

    @property
    def is_rational(self) -> bool:
        return self.denominator is not None

    @property
    def is_grounded(self) -> bool:
        return self.table.item(0) == 0

    def value(self, mask: int) -> Scalar:
        x = self.table.item(check_mask(mask, self.n))
        return x if self.denominator is None else Fraction(x, self.denominator)

    def conditional(self, s: int, t: int) -> Scalar:
        """f(S | T) = f(S + T) - f(T); requires a grounded function."""
        if not self.is_grounded:
            raise PreconditionError("conditional values need f(emptyset) = 0")
        return self.value(s | t) - self.value(t)


@dataclass(frozen=True)
class PartialSetFunction:
    """Values known only on some subsets (mask -> scalar), one scalar kind."""

    n: int
    entries: tuple[tuple[int, Scalar], ...]

    def __post_init__(self):
        _check_ground(self.n)
        seen: dict[int, Scalar] = {}
        norm = []
        for mask, raw in self.entries:
            check_mask(mask, self.n)
            if mask in seen:
                raise ValidationError(f"duplicate entry for subset {elements(mask)}")
            v = coerce_scalar(raw)
            if isinstance(v, float) and not math.isfinite(v):
                raise ValidationError(_NON_FINITE)
            seen[mask] = v
            norm.append((mask, v))
        kinds = {type(v) is float for _, v in norm}
        if len(kinds) > 1:
            raise ValidationError("mixed rational and float values in one table")
        object.__setattr__(self, "entries", tuple(norm))

    @property
    def is_rational(self) -> bool:
        return not any(type(v) is float for _, v in self.entries)

    def as_dict(self) -> dict[int, Scalar]:
        return dict(self.entries)


def _scan_tol(f: SetFunction, tol: float | None):
    # rational numerators share a positive denominator: compare them exactly
    return 0 if f.is_rational else effective_tol(False, tol)


def _element_faces(f: SetFunction, i: int):
    """f(S) and f(S + i) over the S avoiding i, each indexed by S in table order.

    Both are views of the (2,)*n cube of the table with every axis but
    element i's merged, so C order runs over S ascending.
    """
    v = f.table.reshape(-1, 2, 1 << i)
    return v[:, 0], v[:, 1]


def _pair_faces(f: SetFunction, i: int, j: int):
    """f(S), f(S + i), f(S + j), f(S + i + j) over the S avoiding i < j."""
    v = f.table.reshape(-1, 2, 1 << (j - 1 - i), 2, 1 << i)
    return v[:, 0, :, 0], v[:, 0, :, 1], v[:, 1, :, 0], v[:, 1, :, 1]


def _first(bad: np.ndarray) -> int | None:
    """C-order position of the first True, or None."""
    return int(bad.argmax()) if bad.any() else None


def _insert_zero_bit(k: int, bit: int) -> int:
    """Mask of the k-th S in a face whose merged axes skip element ``bit``."""
    low = k & ((1 << bit) - 1)
    return ((k >> bit) << (bit + 1)) | low


def is_submodular(f: SetFunction, tol: float | None = None) -> Verdict:
    """Exhaustive local-exchange submodularity test.

    Rational instances are compared exactly (tol forced to 0).  The
    witness, if any, is the definitional violating pair lifted to
    (S + i, S + j) for the first failing (S, i, j) in table order.
    """
    eps = _scan_tol(f, tol)
    first = None
    for i in range(f.n):
        for j in range(i + 1, f.n):
            s, si, sj, sij = _pair_faces(f, i, j)
            k = _first((si + sj) < (sij + s) - eps)
            if k is not None:
                cand = (_insert_zero_bit(_insert_zero_bit(k, i), j), i, j)
                first = cand if first is None else min(first, cand)
    if first is None:
        return Verdict(True)
    s, i, j = first
    return Verdict(False, (s | 1 << i, s | 1 << j))


def is_modular(f: SetFunction, tol: float | None = None) -> Verdict:
    """True iff f(A) equals the sum of its singleton values for every A.

    The A = emptyset case makes groundedness part of the check.  The
    witness is the first failing subset in table order.
    """
    eps = _scan_tol(f, tol)
    # acc[A] sums the singleton values of A in ascending element order
    acc = np.zeros(1, dtype=f.table.dtype)
    for i in range(f.n):
        acc = np.concatenate((acc, acc + f.table[1 << i]))
    a = _first(np.abs(f.table - acc) > eps)
    return Verdict(True) if a is None else Verdict(False, a)


def is_nondecreasing(f: SetFunction, tol: float | None = None) -> Verdict:
    """Full monotonicity: f(S) <= f(T) whenever S is inside T.

    Checked on covering pairs (transitivity lifts the result to all
    nested pairs); the witness is the first violating covering pair
    (S, S + i) in table order.
    """
    eps = _scan_tol(f, tol)
    first = None
    for i in range(f.n):
        s, si = _element_faces(f, i)
        k = _first(si < s - eps)
        if k is not None:
            cand = (_insert_zero_bit(k, i), i)
            first = cand if first is None else min(first, cand)
    if first is None:
        return Verdict(True)
    s, i = first
    return Verdict(False, (s, s | 1 << i))


def is_prefix_nondecreasing(f: SetFunction, tol: float | None = None) -> bool:
    """Chain condition f([1:1]) <= f([1:2]) <= ... <= f([1:n]).

    Starts at j = 1: the value at the empty set does not participate.
    """
    eps = _scan_tol(f, tol)
    chain = f.table[[full_mask(j) for j in range(1, f.n + 1)]]
    return not bool((chain[1:] < chain[:-1] - eps).any())


def _coverage_table(n: int, rng: random.Random) -> tuple[Fraction, ...]:
    universe = 2 * n + 2
    weights = [rng.randint(1, 9) for _ in range(universe)]
    elem_mask = []
    for _ in range(n):
        m = 0
        for u in range(universe):
            if rng.random() < 0.5:
                m |= 1 << u
        elem_mask.append(m)
    union = [0] * (1 << n)
    cache: dict[int, int] = {0: 0}
    out = []
    for s in subsets(n):
        if s:
            low = s & -s
            union[s] = union[s ^ low] | elem_mask[low.bit_length() - 1]
        u = union[s]
        if u not in cache:
            cache[u] = sum(weights[b] for b in iter_bits(u))
        out.append(Fraction(cache[u]))
    return tuple(out)


def _entropy_table(n: int, rng: random.Random) -> tuple[float, ...]:
    # deferred import: info depends on this module
    from .info import entropy_table_from_pmf

    cells = [rng.random() + 0.05 for _ in range(1 << n)]
    total = sum(cells)
    pmf = np.array([c / total for c in cells], dtype=float).reshape((2,) * n)
    return tuple(entropy_table_from_pmf(pmf))


def _matroid_modular_table(n: int, rng: random.Random) -> tuple[Fraction, ...]:
    from .matroid import LinearMatroid

    k = max(1, (n + 1) // 2)
    rows = tuple(
        tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)) for _ in range(k)
    )
    m = LinearMatroid(rows)
    costs = [Fraction(rng.randint(0, 9)) for _ in range(n)]
    out = []
    for s in subsets(n):
        out.append(Fraction(m.rank(s)) + sum((costs[i] for i in iter_bits(s)), Fraction(0)))
    return tuple(out)


def generate_submodular(n: int, seed: int, kind: str) -> SetFunction:
    """Deterministic grounded submodular instance of the requested kind.

    coverage: weighted-coverage function, exact rational.
    entropy: joint-entropy function of a random pmf on n binary
        variables, binary64 (n <= 12).
    matroid-plus-modular: linear-matroid rank plus a nonnegative
        modular function, exact rational.

    All three kinds are monotone, hence also prefix-nondecreasing.
    """
    if kind not in GENERATOR_KINDS:
        raise ValidationError(f"unknown generator kind {kind!r}")
    _check_ground(n)
    if kind == "entropy" and n > MAX_ENTROPY_N:
        raise ValidationError(f"entropy kind supports n <= {MAX_ENTROPY_N}, got {n}")
    rng = random.Random(f"{kind}:{n}:{seed}")
    if kind == "coverage":
        table = _coverage_table(n, rng)
    elif kind == "entropy":
        table = _entropy_table(n, rng)
    else:
        table = _matroid_modular_table(n, rng)
    return SetFunction(n, table, label=f"{kind}-{seed}")
