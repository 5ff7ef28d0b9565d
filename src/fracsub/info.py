"""Information measures of finite joint distributions, in bits.

A JointDistribution holds a dense pmf over at most 8 variables with
alphabets of size at most 8.  The joint-entropy set function
e(F) = H(X_F) is grounded, submodular, and non-decreasing, so the gap
machinery applies verbatim:

    gap_upper(e, wf) = sum gamma(F) H(X_F) - H(X_[1:n])

is the weighted-family mutual information, a nonnegative dependence
measure for any fractional partition.  Singletons give total
correlation, co-singletons give (n-1) times dual total correlation,
and minimizing gap_upper / (w - 1) over all fractional partitions of
the proper nonempty subsets gives shared information, computed here
by exact LP over the complement (packing) side.

``relative_entropy_setfn`` returns d(F) = -D(P_F || Q_F) against a
product reference Q.  d is submodular but NOT non-decreasing
(marginalizing can only shrink a divergence, so d shrinks as F grows);
empirically it is non-increasing.  Zero-gap checks against d therefore
lean on the equality characterization rather than a sign bound, and
for coverings the gap can be legitimately negative.

All entropies are computed from float64 pmfs with compensated sums;
verdict tolerances default to 2**-30, and the independence predicate
uses the Pinsker-style translation tol' = sqrt(2 * tol * ln 2) from a
divergence bound to a max-norm bound on pmfs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .bitsets import check_mask, complement, full_mask, iter_bits, subsets
from .errors import ConsistencyError, PreconditionError, ValidationError
from .families import WeightedFamily
from .gaps import StabilityReport, gap_lower, gap_upper, stability_check
from .lp import maximize_partition_weighted_sum
from .rationals import PMF_SUM_TOL, effective_tol
from .setfn import SetFunction

MAX_VARS = 8
MAX_ALPHABET = 8
MAX_LP_VARS_GROUND = 6


def _check_pmf_vector(vec: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(vec)):
        raise ValidationError(f"{what} has a non-finite probability")
    if np.any(vec < 0):
        raise ValidationError(f"{what} has a negative probability")
    total = float(vec.sum())
    if abs(total - 1.0) > PMF_SUM_TOL:
        raise ValidationError(f"{what} sums to {total!r}, not 1")


@dataclass(frozen=True)
class JointDistribution:
    """Dense joint pmf; axis i-1 of the array is variable i."""

    alphabet_sizes: tuple[int, ...]
    pmf: np.ndarray

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.alphabet_sizes)
        if not 1 <= len(sizes) <= MAX_VARS:
            raise ValidationError(f"need 1..{MAX_VARS} variables, got {len(sizes)}")
        if any(not 1 <= s <= MAX_ALPHABET for s in sizes):
            raise ValidationError(f"alphabet sizes must be 1..{MAX_ALPHABET}")
        arr = np.array(self.pmf, dtype=float)
        if arr.shape != sizes:
            raise ValidationError(f"pmf shape {arr.shape} != alphabets {sizes}")
        _check_pmf_vector(arr, "pmf")
        arr.setflags(write=False)
        object.__setattr__(self, "alphabet_sizes", sizes)
        object.__setattr__(self, "pmf", arr)

    @property
    def n(self) -> int:
        return len(self.alphabet_sizes)

    def marginal(self, mask: int) -> np.ndarray:
        """Marginal pmf over the variables in mask (array axes kept in order)."""
        check_mask(mask, self.n)
        axes = tuple(i for i in range(self.n) if not (mask >> i) & 1)
        return self.pmf.sum(axis=axes) if axes else self.pmf


@dataclass(frozen=True)
class ProductDistribution:
    """Independent reference measure given by per-variable marginals."""

    marginals: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not 1 <= len(self.marginals) <= MAX_VARS:
            raise ValidationError(f"need 1..{MAX_VARS} variables")
        norm = []
        for i, m in enumerate(self.marginals):
            arr = np.array(m, dtype=float)
            if arr.ndim != 1 or not 1 <= arr.size <= MAX_ALPHABET:
                raise ValidationError(f"marginal {i + 1} must be a short vector")
            _check_pmf_vector(arr, f"marginal {i + 1}")
            arr.setflags(write=False)
            norm.append(arr)
        object.__setattr__(self, "marginals", tuple(norm))

    @property
    def n(self) -> int:
        return len(self.marginals)

    def pmf_on(self, mask: int) -> np.ndarray:
        """Product pmf over the variables in mask."""
        check_mask(mask, self.n)
        parts = [self.marginals[b] for b in iter_bits(mask)]
        if not parts:
            return np.array(1.0)
        return reduce(np.multiply.outer, parts)


def _entropy_of(p: np.ndarray) -> float:
    q = np.asarray(p).ravel()
    q = q[q > 0]
    # Python floats: the same products as numpy scalars, made faster
    return float(math.fsum(-x * math.log2(x) for x in q.tolist()))


def entropy(dist: JointDistribution, mask: int) -> float:
    """Shannon entropy of X_F in bits; H(X_emptyset) = 0."""
    if mask == 0:
        return 0.0
    return _entropy_of(dist.marginal(mask))


def entropy_table_from_pmf(pmf: np.ndarray) -> list[float]:
    """All 2**n marginal entropies of a raw pmf array, table order."""
    n = pmf.ndim
    out = []
    for mask in subsets(n):
        if mask == 0:
            # summing out every axis leaves the float total, not an exact 1
            out.append(0.0)
            continue
        axes = tuple(i for i in range(n) if not (mask >> i) & 1)
        out.append(_entropy_of(pmf.sum(axis=axes) if axes else pmf))
    return out


def entropy_setfn(dist: JointDistribution) -> SetFunction:
    """The grounded submodular non-decreasing function F -> H(X_F)."""
    return SetFunction(dist.n, tuple(entropy_table_from_pmf(dist.pmf)), label="entropy")


def relative_entropy_setfn(P: JointDistribution, Q: ProductDistribution) -> SetFunction:
    """d(F) = -D(P_F || Q_F) in bits against a product reference.

    Submodular and grounded, but non-increasing rather than
    non-decreasing.  Requires per-variable absolute continuity
    (Q_i(x) = 0 only where P_i(x) = 0), which extends to every
    marginal because Q is a product.
    """
    if P.alphabet_sizes != tuple(len(m) for m in Q.marginals):
        raise ValidationError("P and Q alphabets differ")
    for i in range(P.n):
        pi = P.marginal(1 << i)
        if np.any((np.asarray(Q.marginals[i]) == 0) & (pi > 0)):
            raise ValidationError(
                f"P is not absolutely continuous w.r.t. Q on variable {i + 1}"
            )
    values = []
    for mask in subsets(P.n):
        pf = np.asarray(P.marginal(mask)).ravel()
        qf = np.asarray(Q.pmf_on(mask)).ravel()
        sel = pf > 0
        div = math.fsum(
            p * math.log2(p / q) for p, q in zip(pf[sel], qf[sel])
        )
        values.append(-div)
    return SetFunction(P.n, tuple(values), label="neg-divergence")


def max_product_deviation(dist: JointDistribution) -> float:
    """Max-norm distance between the pmf and the product of its marginals."""
    parts = [dist.marginal(1 << i) for i in range(dist.n)]
    prod = reduce(np.multiply.outer, parts)
    return float(np.max(np.abs(dist.pmf - prod)))


def _pinsker_tol(eps: float) -> float:
    # divergence <= eps (bits) forces L1 <= sqrt(2 eps ln2), hence max-norm too
    return math.sqrt(2.0 * eps * math.log(2.0))


@dataclass(frozen=True)
class MIStabilityReport:
    mutual_informations: tuple[float, ...]
    bound: float
    sigma: Fraction
    satisfied: bool
    stability: StabilityReport


def mutual_information_stability(
    dist: JointDistribution, wf: WeightedFamily, epsilon: float
) -> MIStabilityReport:
    """Small family-MI forces small per-variable I(X_i ; X_rest).

    The stability defects of the entropy set function are exactly the
    leave-one-out mutual informations, so this delegates to the
    generic check and relabels the output.
    """
    rep = stability_check(entropy_setfn(dist), wf, float(epsilon))
    return MIStabilityReport(
        mutual_informations=rep.defects,
        bound=rep.bound,
        sigma=rep.sigma,
        satisfied=rep.satisfied,
        stability=rep,
    )


@dataclass(frozen=True)
class IndependenceReport:
    flavor: str
    gap: float
    gap_zero: bool
    product_deviation: float
    tol_prime: float
    special_elements: tuple[int, ...]
    special_entropies: tuple[float, ...]
    condition_holds: bool


def independence_equality(
    dist: JointDistribution, wf: WeightedFamily, tol: float | None = None
) -> IndependenceReport:
    """Zero family-MI iff independence (with constants where over-covered).

    Partition: gap_upper(e) = 0 iff the variables are mutually
    independent.  Covering: additionally every over-covered variable
    must be constant; packing uses gap_lower and the under-covered
    set.  Either way the structural side reduces to 'pmf equals the
    product of its marginals, and the special variables have zero
    entropy'.  Both sides are computed independently; disagreement
    raises.
    """
    e = entropy_setfn(dist)
    eps = float(effective_tol(False, tol))
    cls = wf.classify()
    if cls.flavor == "partition":
        gap, special = gap_upper(e, wf), ()
    elif cls.flavor == "covering":
        gap, special = gap_upper(e, wf), cls.over_covered
    elif cls.flavor == "packing":
        gap, special = gap_lower(e, wf), cls.under_covered
    else:
        raise PreconditionError("family is neither a covering nor a packing")
    # unseparated pairs let correlated variables hide in one member
    wf.require_standing_assumptions()
    gap_zero = bool(abs(gap) <= eps)
    dev = max_product_deviation(dist)
    tol_prime = _pinsker_tol(eps)
    spec_h = tuple(entropy(dist, 1 << (i - 1)) for i in special)
    condition = bool(dev <= tol_prime and all(h <= eps for h in spec_h))
    report = IndependenceReport(
        flavor=cls.flavor,
        gap=gap,
        gap_zero=gap_zero,
        product_deviation=dev,
        tol_prime=tol_prime,
        special_elements=special,
        special_entropies=spec_h,
        condition_holds=condition,
    )
    if gap_zero != condition:
        raise ConsistencyError(
            "independence predicate and zero-gap test disagree", report=report
        )
    return report


@dataclass(frozen=True)
class DivergenceReport:
    flavor: str
    gap: float
    gap_zero: bool
    product_deviation: float
    reference_deviation: float
    special_elements: tuple[int, ...]
    condition_holds: bool
    tol_prime: float


def divergence_equality(
    P: JointDistribution,
    Q: ProductDistribution,
    wf: WeightedFamily,
    tol: float | None = None,
) -> DivergenceReport:
    """Zero gap of the negated divergence iff P is a product measure.

    Partition: gap_upper(d, wf) = 0 iff P is a product.  Covering:
    additionally the over-covered marginal of P must coincide with Q
    there; the gap then equals -sum (c_i - 1) D(P_i || Q_i) over the
    over-covered elements and is <= 0, so a negative gap is an honest
    outcome here, not an error (d is not non-decreasing).  The reverse
    implication rests on the equality characterization; adversarially
    cancelling inputs would surface as a consistency failure rather
    than a wrong verdict.
    """
    d = relative_entropy_setfn(P, Q)
    eps = float(effective_tol(False, tol))
    cls = wf.classify()
    if cls.flavor not in ("partition", "covering"):
        raise PreconditionError(
            "divergence equality handles partitions and coverings only"
        )
    wf.require_standing_assumptions()
    gap = gap_upper(d, wf)
    special = cls.over_covered
    dev = max_product_deviation(P)
    tol_prime = _pinsker_tol(eps)
    zmask = 0
    for i in special:
        zmask |= 1 << (i - 1)
    if zmask:
        ref_dev = float(
            np.max(np.abs(np.asarray(P.marginal(zmask)) - Q.pmf_on(zmask)))
        )
    else:
        ref_dev = 0.0
    condition = bool(dev <= tol_prime and ref_dev <= tol_prime)
    gap_zero = bool(abs(gap) <= eps)
    report = DivergenceReport(
        flavor=cls.flavor,
        gap=gap,
        gap_zero=gap_zero,
        product_deviation=dev,
        reference_deviation=ref_dev,
        special_elements=special,
        condition_holds=condition,
        tol_prime=tol_prime,
    )
    if gap_zero != condition:
        raise ConsistencyError(
            "product predicate and zero-gap test disagree", report=report
        )
    return report


@dataclass(frozen=True)
class MMIResult:
    value: float
    family: WeightedFamily
    components: tuple[tuple[int, Fraction, float], ...]
    joint_entropy: float


def family_mutual_information(
    dist: JointDistribution, wf: WeightedFamily
) -> MMIResult:
    """sum gamma(F) H(X_F) - H(X_[1:n]) for a fractional partition.

    Only exact coverage 1 is required of the family; the standing
    cleanup assumptions are deliberately not enforced because natural
    constructions (projections of co-singleton families, for one)
    produce partitions containing the full reduced ground set.
    """
    if dist.n != wf.n:
        raise ValidationError(f"distribution on {dist.n} vars, family on {wf.n}")
    if wf.classify().flavor != "partition":
        raise PreconditionError("family mutual information needs a fractional partition")
    h_full = entropy(dist, full_mask(dist.n))
    comps = tuple((m, w, entropy(dist, m)) for m, w in wf.members)
    value = wf.weighted_sum([h for _, _, h in comps], exact=False) - h_full
    return MMIResult(value=value, family=wf, components=comps, joint_entropy=h_full)


def total_correlation(dist: JointDistribution) -> float:
    """sum H(X_i) - H(X_[1:n])."""
    h_full = entropy(dist, full_mask(dist.n))
    return math.fsum(entropy(dist, 1 << i) for i in range(dist.n)) - h_full


def dual_total_correlation(dist: JointDistribution) -> float:
    """H(X_[1:n]) - sum H(X_i | X_rest)."""
    full = full_mask(dist.n)
    h_full = entropy(dist, full)
    cond = math.fsum(
        h_full - entropy(dist, full ^ (1 << i)) for i in range(dist.n)
    )
    return h_full - cond


@dataclass(frozen=True)
class SharedInformationResult:
    value: float
    argmax: WeightedFamily
    conditional_value: float
    dual_side_value: float


def shared_information(
    dist: JointDistribution, tol: float | None = None
) -> SharedInformationResult:
    """min over fractional partitions of family-MI / (w - 1).

    Computed on the packing side: maximize sum gamma(F) H(X_F | X_F^c)
    over exact fractional partitions of the proper nonempty subsets
    (an exact rational LP; binary64 entropies embed exactly), then
    SI = H(X_[1:n]) minus that maximum.  The complement family of the
    argmax realizes the minimum on the MI side; both routes are
    computed and must agree within tol.
    """
    n = dist.n
    if not 2 <= n <= MAX_LP_VARS_GROUND:
        raise ValidationError(f"shared information supports 2..{MAX_LP_VARS_GROUND} variables")
    e = entropy_setfn(dist)
    full = full_mask(n)
    h_full = e.value(full)
    members = [m for m in subsets(n) if 0 < m < full]
    costs = [h_full - e.value(full ^ m) for m in members]  # H(X_F | X_F^c)
    argmax, lp_value = maximize_partition_weighted_sum(n, members, costs)
    si = h_full - lp_value
    dual = argmax.dual()
    denom = float(dual.weight_total() - 1)
    other = family_mutual_information(dist, dual).value / denom
    eps = float(effective_tol(False, tol))
    if abs(other - si) > eps:
        raise ConsistencyError(
            f"duality cross-check failed: {other!r} vs {si!r}"
        )
    return SharedInformationResult(
        value=si, argmax=argmax, conditional_value=lp_value, dual_side_value=other
    )


@dataclass(frozen=True)
class MMIMaxResult:
    value: float
    argmax: WeightedFamily
    total_correlation: float


def mmi_max_over_partitions(
    dist: JointDistribution, tol: float | None = None
) -> MMIMaxResult:
    """max over fractional partitions of family-MI; equals TC.

    The singleton family always attains the maximum; the LP argmax is
    reported (it may be a different optimal vertex of the polytope).
    """
    n = dist.n
    if not 2 <= n <= MAX_LP_VARS_GROUND:
        raise ValidationError(f"MI maximization supports 2..{MAX_LP_VARS_GROUND} variables")
    e = entropy_setfn(dist)
    full = full_mask(n)
    members = [m for m in subsets(n) if 0 < m < full]
    costs = [e.value(m) for m in members]
    argmax, lp_value = maximize_partition_weighted_sum(n, members, costs)
    value = lp_value - e.value(full)
    tc = total_correlation(dist)
    eps = float(effective_tol(False, tol))
    if abs(value - tc) > eps:
        raise ConsistencyError(f"max family-MI {value!r} != total correlation {tc!r}")
    return MMIMaxResult(value=value, argmax=argmax, total_correlation=tc)


def project_family(wf: WeightedFamily) -> WeightedFamily:
    """Intersect every member with [1:n-1], keeping its weight.

    A member equal to {n} projects to the empty set and is dropped
    (with a warning, because its weight leaves the family).  Coverage
    of the surviving elements is unchanged, so partitions stay
    partitions on the reduced ground set.
    """
    if wf.n < 2:
        raise ValidationError("cannot project below one element")
    reduced = full_mask(wf.n - 1)
    members = []
    for m, w in wf.members:
        pm = m & reduced
        if pm == 0 and m != 0:
            warnings.warn(
                f"projection drops member {{{wf.n}}} with weight {w}",
                stacklevel=2,
            )
            continue
        members.append((pm, w))
    return WeightedFamily(wf.n - 1, tuple(members))


def marginal_distribution(dist: JointDistribution, mask: int) -> JointDistribution:
    """JointDistribution of the variables in mask."""
    check_mask(mask, dist.n)
    sizes = tuple(dist.alphabet_sizes[b] for b in iter_bits(mask))
    if not sizes:
        raise ValidationError("marginal distribution needs at least one variable")
    return JointDistribution(sizes, dist.marginal(mask))


def conditional_mutual_information(
    dist: JointDistribution, a: int, b: int, c: int
) -> float:
    """I(X_A ; X_B | X_C) for pairwise disjoint masks, in bits."""
    if a & b or a & c or b & c:
        raise ValidationError("the three blocks must be disjoint")
    return (
        entropy(dist, a | c)
        + entropy(dist, b | c)
        - entropy(dist, a | b | c)
        - entropy(dist, c)
    )


@dataclass(frozen=True)
class RecursionReport:
    residual: float
    mi_full: float
    mi_projected: float
    link_sum: float
    attachment: float  # I(X_n ; X_[1:n-1])


def mmi_recursion_residual(
    dist: JointDistribution, wf: WeightedFamily, tol: float | None = None
) -> RecursionReport:
    """Peel the last variable off the family-MI.

    Identity: MI(X_[1:n], wf) equals MI(X_[1:n-1], projected wf) plus
    sum over members F containing n of
    gamma(F) * I(X_n ; X_([1:n-1]) - F | X_([1:n-1]) and F).
    The report carries the absolute residual between the two sides.
    Also enforces the sandwich

        MI(projected) <= MI(full) <= MI(projected) + I(X_n ; X_[1:n-1]).
    """
    if dist.n != wf.n:
        raise ValidationError(f"distribution on {dist.n} vars, family on {wf.n}")
    if dist.n < 2:
        raise ValidationError("recursion needs at least two variables")
    n = dist.n
    reduced = full_mask(n - 1)
    last_bit = 1 << (n - 1)
    mi_full = family_mutual_information(dist, wf).value
    proj = project_family(wf)
    sub = marginal_distribution(dist, reduced)
    mi_proj = family_mutual_information(sub, proj).value
    cmi = [
        conditional_mutual_information(dist, last_bit, reduced & ~m, m & reduced)
        if m & last_bit else 0.0 for m, _ in wf.members
    ]
    link = wf.weighted_sum(cmi, exact=False)
    attachment = conditional_mutual_information(dist, last_bit, reduced, 0)
    residual = abs(mi_full - (mi_proj + link))
    eps = float(effective_tol(False, tol))
    if not (mi_proj <= mi_full + eps and mi_full <= mi_proj + attachment + eps):
        raise ConsistencyError(
            f"recursion sandwich violated: {mi_proj!r}, {mi_full!r}, {attachment!r}"
        )
    return RecursionReport(
        residual=residual,
        mi_full=mi_full,
        mi_projected=mi_proj,
        link_sum=link,
        attachment=attachment,
    )


def _as_channel(map_i, in_size: int, index: int) -> np.ndarray:
    """Normalize one per-variable map to a row-stochastic matrix."""
    arr = np.asarray(map_i)
    if arr.ndim == 1:
        table = [int(v) for v in arr]
        if len(table) != in_size:
            raise ValidationError(f"map {index + 1} must cover all {in_size} symbols")
        if any(v < 0 for v in table):
            raise ValidationError(f"map {index + 1} has a negative output symbol")
        out_size = max(table) + 1
        chan = np.zeros((in_size, out_size))
        for x, y in enumerate(table):
            chan[x, y] = 1.0
        return chan
    if arr.ndim == 2:
        chan = arr.astype(float)
        if chan.shape[0] != in_size:
            raise ValidationError(f"map {index + 1} must have {in_size} rows")
        if np.any(chan < 0):
            raise ValidationError(f"map {index + 1} has a negative probability")
        if np.any(np.abs(chan.sum(axis=1) - 1.0) > PMF_SUM_TOL):
            raise ValidationError(f"map {index + 1} rows must each sum to 1")
        return chan
    raise ValidationError(f"map {index + 1} must be a table or a matrix")


def apply_channels(dist: JointDistribution, maps) -> JointDistribution:
    """Push the pmf through independent per-variable channels."""
    maps = list(maps)
    if len(maps) != dist.n:
        raise ValidationError(f"need one map per variable ({dist.n})")
    channels = [
        _as_channel(m, dist.alphabet_sizes[i], i) for i, m in enumerate(maps)
    ]
    arr = np.asarray(dist.pmf)
    for i, chan in enumerate(channels):
        arr = np.moveaxis(np.tensordot(arr, chan, axes=([i], [0])), -1, i)
    arr = np.clip(arr, 0.0, None)
    arr = arr / arr.sum()
    sizes = tuple(chan.shape[1] for chan in channels)
    return JointDistribution(sizes, arr)


def _channel_noise(dist: JointDistribution, maps) -> float:
    """sum_i H(Y_i | X_i) in bits for per-variable channels."""
    total = 0.0
    for i, m in enumerate(maps):
        chan = _as_channel(m, dist.alphabet_sizes[i], i)
        px = np.asarray(dist.marginal(1 << i)).ravel()
        total += math.fsum(
            float(px[x]) * _entropy_of(chan[x]) for x in range(len(px)) if px[x] > 0
        )
    return total


@dataclass(frozen=True)
class DataProcessingReport:
    mi_input: float
    mi_output: float
    noise: float
    bound: float
    holds: bool


def mmi_data_processing_check(
    dist: JointDistribution,
    wf: WeightedFamily,
    maps,
    tol: float | None = None,
) -> DataProcessingReport:
    """Family-MI can only drop under per-variable processing.

    With Y_i the output of a channel applied to X_i alone,
    MI(Y, wf) <= MI(X, wf) + sum_i H(Y_i | X_i); the slack term
    vanishes for deterministic maps.  Violation beyond tol raises.
    """
    maps = list(maps)
    dist_y = apply_channels(dist, maps)
    mi_x = family_mutual_information(dist, wf).value
    mi_y = family_mutual_information(dist_y, wf).value
    noise = _channel_noise(dist, maps)
    eps = float(effective_tol(False, tol))
    bound = mi_x + noise
    holds = mi_y <= bound + eps
    report = DataProcessingReport(
        mi_input=mi_x, mi_output=mi_y, noise=noise, bound=bound, holds=holds
    )
    if not holds:
        raise ConsistencyError("data processing inequality violated", report=report)
    return report


def symmetric_form(wf: WeightedFamily) -> tuple[Fraction, ...] | None:
    """Cardinality-profile weights (gamma_1 .. gamma_(n-1)), if any.

    A fractional partition is symmetric iff, after aggregating
    duplicate members, every cardinality class it touches is complete
    (all C(n, k) subsets present) with one shared weight.  The profile
    then satisfies sum gamma_k * C(n-1, k-1) = 1 exactly; that is
    re-verified here.  Returns None when the family is not of this
    form.
    """
    if wf.classify().flavor != "partition":
        raise PreconditionError("symmetric form applies to fractional partitions")
    agg: dict[int, Fraction] = {}
    for m, w in wf.members:
        agg[m] = agg.get(m, Fraction(0)) + w
    n = wf.n
    profile = [Fraction(0)] * (n - 1)
    by_size: dict[int, list[int]] = {}
    for m in agg:
        size = m.bit_count()
        if size == 0 or size == n:
            return None
        by_size.setdefault(size, []).append(m)
    for size, masks in by_size.items():
        if len(masks) != math.comb(n, size):
            return None
        weights = {agg[m] for m in masks}
        if len(weights) != 1:
            return None
        profile[size - 1] = weights.pop()
    check = sum(
        (profile[k - 1] * math.comb(n - 1, k - 1) for k in range(1, n)),
        Fraction(0),
    )
    if check != 1:
        raise ConsistencyError(
            f"symmetric profile coverage is {check}, expected 1"
        )
    return tuple(profile)
