"""Upper and lower gap functionals and everything built on them.

For a set function f on [1:n] and a weighted family (F, gamma):

    gap_upper = sum gamma(S) f(S)        - f([1:n])
    gap_lower = f([1:n]) - sum gamma(S) f(S | S^c)

with f(S | T) = f(S + T) - f(T), so f(S | S^c) = f([1:n]) - f(S^c).
For grounded submodular f and a fractional partition both gaps are
nonnegative, and they are linked through the complement family by the
exact identity

    gap_upper(f, wf) / w(wf) = gap_lower(f, dual(wf)) / w(dual(wf)).

``stability_check`` turns a small gap into a per-element bound: if
either gap is at most epsilon, every defect

    f({i}) + f([1:n] - {i}) - f([1:n])

is at most epsilon / sigma(wf).  ``certify_modular_partial`` decides
modularity from values on the members and the full set alone, and
``equality_conditions_covering`` characterizes zero gap for coverings
and packings of non-decreasing functions (modular, and zero on the
over- respectively under-covered elements).  ``shearer_check`` is the
integer-counting special case: with k the minimum cover multiplicity,
k * f([1:n]) = sum of member values iff those same conditions hold.

Rational instances are compared exactly; float instances use the
caller tolerance (default 2**-30).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .bitsets import MASKS, full_mask
from .errors import ConsistencyError, PreconditionError, ValidationError
from .families import FamilyClassification, WeightedFamily, min_multiplicity
from .rationals import Scalar, coerce_scalar, effective_tol, require_finite
from .setfn import (
    PartialSetFunction,
    SetFunction,
    Verdict,
    is_modular,
    is_nondecreasing,
    is_prefix_nondecreasing,
    is_submodular,
)


def _check_same_ground(f: SetFunction, wf: WeightedFamily) -> None:
    if f.n != wf.n:
        raise ValidationError(
            f"set function on [1:{f.n}] but family on [1:{wf.n}]"
        )


def _weighted_sum(rational: bool, terms) -> Scalar:
    """Sum of weight * value pairs, exact or compensated."""
    if rational:
        return sum((w * v for w, v in terms), Fraction(0))
    return math.fsum(float(w) * v for w, v in terms)


def gap_upper(f: SetFunction, wf: WeightedFamily) -> Scalar:
    _check_same_ground(f, wf)
    s = _weighted_sum(f.is_rational, ((w, f.value(m)) for m, w in wf.members))
    return s - f.value(full_mask(f.n))


def gap_lower(f: SetFunction, wf: WeightedFamily) -> Scalar:
    _check_same_ground(f, wf)
    full = full_mask(f.n)
    top = f.value(full)
    s = _weighted_sum(
        f.is_rational,
        ((w, top - f.value(full ^ m)) for m, w in wf.members),
    )
    return top - s


def duality_residual(f: SetFunction, wf: WeightedFamily) -> Scalar:
    """gap_upper(f, wf)/w - gap_lower(f, dual(wf))/w_bar; 0 when exact."""
    _check_same_ground(f, wf)
    dual = wf.dual()
    gu = gap_upper(f, wf)
    gl = gap_lower(f, dual)
    w = wf.weight_total()
    wbar = dual.weight_total()
    if f.is_rational:
        return gu / w - gl / wbar
    return gu / float(w) - gl / float(wbar)


@dataclass(frozen=True)
class GapReport:
    gap_upper: Scalar
    gap_lower: Scalar
    weight_total: Fraction
    classification: FamilyClassification
    bounds_hold: tuple[bool, bool]
    notes: tuple[str, ...]


def gap_report(f: SetFunction, wf: WeightedFamily, tol: float | None = None) -> GapReport:
    """Both gaps plus the hypotheses that were actually verified."""
    eps = effective_tol(f.is_rational, tol)
    gu = gap_upper(f, wf)
    gl = gap_lower(f, wf)
    notes = []
    if f.is_grounded:
        notes.append("grounded")
    if is_submodular(f, tol):
        notes.append("submodular")
    if is_nondecreasing(f, tol):
        notes.append("nondecreasing")
    elif is_prefix_nondecreasing(f, tol):
        notes.append("prefix-nondecreasing")
    cls = wf.classify()
    notes.append(f"family:{cls.flavor}")
    return GapReport(
        gap_upper=gu,
        gap_lower=gl,
        weight_total=wf.weight_total(),
        classification=cls,
        bounds_hold=(gu >= -eps, gl >= -eps),
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class StabilityReport:
    sigma: Fraction
    epsilon: Scalar
    bound: Scalar
    defects: tuple[Scalar, ...]
    satisfied: bool
    gap_upper: Scalar
    gap_lower: Scalar
    epsilon_covers_gap: bool


def stability_check(
    f: SetFunction,
    wf: WeightedFamily,
    epsilon,
    tol: float | None = None,
) -> StabilityReport:
    """Per-element near-modularity bound from a small gap.

    Requires grounded submodular f and a fractional partition that
    already satisfies the standing assumptions (so sigma > 0).  The
    report flags, rather than rejects, an epsilon smaller than both
    gaps: the bound is vacuous evidence in that case because its
    premise (some gap <= epsilon) was never established.
    """
    _check_same_ground(f, wf)
    eps = effective_tol(f.is_rational, tol)
    if not f.is_grounded:
        raise PreconditionError("stability needs f(emptyset) = 0")
    sub = is_submodular(f, tol)
    if not sub:
        raise PreconditionError(
            "stability needs a submodular function", witness=sub.witness
        )
    if wf.classify().flavor != "partition":
        raise PreconditionError("stability needs a fractional partition")
    if not wf.satisfies_standing_assumptions():
        raise PreconditionError(
            "family violates the standing assumptions; normalize first"
        )
    sigma = wf.sigma()
    epsilon = require_finite(coerce_scalar(epsilon), "epsilon")
    if epsilon < 0:
        raise ValidationError("epsilon must be nonnegative")
    full = full_mask(f.n)
    top = f.value(full)
    defects = tuple(
        f.value(1 << i) + f.value(full ^ (1 << i)) - top for i in range(f.n)
    )
    if f.is_rational:
        bound = epsilon / sigma
    else:
        bound = float(epsilon) / float(sigma)
    gu = gap_upper(f, wf)
    gl = gap_lower(f, wf)
    return StabilityReport(
        sigma=sigma,
        epsilon=epsilon,
        bound=bound,
        defects=defects,
        satisfied=all(d <= bound + eps for d in defects),
        gap_upper=gu,
        gap_lower=gl,
        epsilon_covers_gap=bool(epsilon >= min(gu, gl) - eps),
    )


@dataclass(frozen=True)
class ModularityCertificate:
    verdict: str  # "modular" | "not-modular" | "insufficient-data"
    checked_sum: Scalar | None
    target: Scalar | None
    assumed_submodular: bool
    missing: tuple[int, ...] = field(metadata=MASKS)
    note: str = ""


def certify_modular_partial(
    partial: PartialSetFunction,
    wf: WeightedFamily,
    assume_submodular: bool = True,
    tol: float | None = None,
) -> ModularityCertificate:
    """Decide modularity from values on the members and [1:n] only.

    For a grounded submodular f and a fractional partition, equality of
    sum gamma(S) f(S) with f([1:n]) forces modularity; inequality
    refutes it with no submodularity assumption at all (a modular
    grounded function always attains equality).  The certificate
    records which premise the caller asserted.
    """
    if partial.n != wf.n:
        raise ValidationError(
            f"partial values on [1:{partial.n}] but family on [1:{wf.n}]"
        )
    if wf.classify().flavor != "partition":
        raise PreconditionError("certification needs a fractional partition")
    if not wf.satisfies_standing_assumptions():
        raise PreconditionError(
            "family violates the standing assumptions; normalize first"
        )
    table = partial.as_dict()
    full = full_mask(partial.n)
    required = [m for m, _ in wf.members] + [full]
    missing = tuple(sorted({m for m in required if m not in table}))
    if missing:
        return ModularityCertificate(
            verdict="insufficient-data",
            checked_sum=None,
            target=None,
            assumed_submodular=assume_submodular,
            missing=missing,
            note="values missing for required subsets",
        )
    eps = effective_tol(partial.is_rational, tol)
    checked = _weighted_sum(
        partial.is_rational, ((w, table[m]) for m, w in wf.members)
    )
    target = table[full]
    equal = abs(checked - target) <= eps
    if not equal:
        verdict, note = "not-modular", "weighted member sum differs from the total"
    elif assume_submodular:
        verdict, note = "modular", ""
    else:
        verdict = "insufficient-data"
        note = "equality holds but submodularity was not asserted"
    return ModularityCertificate(
        verdict=verdict,
        checked_sum=checked,
        target=target,
        assumed_submodular=assume_submodular,
        missing=(),
        note=note,
    )


@dataclass(frozen=True)
class CoveringEqualityReport:
    branch: str  # "covering" | "packing"
    gap: Scalar
    equality: bool
    modular: Verdict
    special_elements: tuple[int, ...]
    zero_on_special: bool
    condition_holds: bool


def equality_conditions_covering(
    f: SetFunction, wf: WeightedFamily, tol: float | None = None
) -> CoveringEqualityReport:
    """Zero-gap characterization for coverings and packings.

    Preconditions are hard: f must be grounded, submodular, and fully
    non-decreasing.  Prefix-nondecreasing is NOT enough here even
    though it suffices for the gap sign bound; a function can dip
    below the empty set off the prefix chain and reach zero gap
    without being modular.  The refusal carries the witness pair and
    a note with the computed gap and modularity verdict so the caller
    can see what was lost.

    For the surviving inputs: gap zero holds iff f is modular and
    f({i}) = 0 for every over-covered (covering) respectively
    under-covered (packing) element.  Both sides are computed
    independently and must agree.
    """
    _check_same_ground(f, wf)
    eps = effective_tol(f.is_rational, tol)
    if not f.is_grounded:
        raise PreconditionError("equality conditions need f(emptyset) = 0")
    sub = is_submodular(f, tol)
    if not sub:
        raise PreconditionError(
            "equality conditions need a submodular function",
            witness=sub.witness,
        )
    cls = wf.classify()
    if cls.flavor in ("partition", "covering"):
        branch, gap, special = "covering", gap_upper(f, wf), cls.over_covered
    elif cls.flavor == "packing":
        branch, gap, special = "packing", gap_lower(f, wf), cls.under_covered
    else:
        raise PreconditionError("family is neither a covering nor a packing")
    if not wf.satisfies_standing_assumptions():
        # an unseparated element pair defeats the zero-gap -> modular step
        raise PreconditionError(
            "family violates the standing assumptions; normalize first"
        )
    mono = is_nondecreasing(f, tol)
    if not mono:
        modv = is_modular(f, tol)
        raise PreconditionError(
            "equality conditions need a non-decreasing function",
            witness=mono.witness,
            note=(
                f"refused: {branch} gap is {gap} and f is "
                f"{'modular' if modv.ok else 'not modular'}; with monotonicity "
                "dropped, zero gap no longer certifies anything"
            ),
        )
    modv = is_modular(f, tol)
    zero_ok = all(abs(f.value(1 << (i - 1))) <= eps for i in special)
    condition = bool(modv.ok and zero_ok)
    equality = bool(abs(gap) <= eps)
    report = CoveringEqualityReport(
        branch=branch,
        gap=gap,
        equality=equality,
        modular=modv,
        special_elements=special,
        zero_on_special=zero_ok,
        condition_holds=condition,
    )
    if equality != condition:
        raise ConsistencyError(
            "zero-gap test and structural condition disagree", report=report
        )
    return report


@dataclass(frozen=True)
class ShearerReport:
    k: int
    member_sum: Scalar
    scaled_total: Scalar
    equality: bool
    condition_holds: bool
    over_elements: tuple[int, ...]
    detail: CoveringEqualityReport


def shearer_check(f: SetFunction, masks, tol: float | None = None) -> ShearerReport:
    """Integer covering equality k * f([1:n]) = sum of member values.

    k is the minimum cover multiplicity of the unweighted multiset;
    dividing every count by k gives a fractional covering with weights
    1/k, and the equality holds iff that covering attains zero upper
    gap, i.e. iff f is modular and vanishes on the singletons covered
    more than k times.
    """
    k = min_multiplicity(masks, f.n)
    wf = WeightedFamily(f.n, tuple((m, Fraction(1, k)) for m in masks))
    detail = equality_conditions_covering(f, wf, tol)
    member_sum = (
        sum((f.value(m) for m in masks), Fraction(0))
        if f.is_rational
        else math.fsum(f.value(m) for m in masks)
    )
    scaled = k * f.value(full_mask(f.n))
    return ShearerReport(
        k=k,
        member_sum=member_sum,
        scaled_total=scaled,
        equality=detail.equality,
        condition_holds=detail.condition_holds,
        over_elements=detail.special_elements,
        detail=detail,
    )
