"""Gaussian entropy set functions and determinant inequalities.

A positive definite matrix K of order n induces the differential
entropy set function h(F) = (|F| log(2 pi e) + log det K(F)) / 2 in
nats, where K(F) is the principal submatrix on the rows and columns of
F.  h is submodular and grounded, so every fractional-partition gap
statement applies; the gap of h against a family is, up to the factor
1/2 and the constant terms (which cancel exactly on a partition), a
determinant inequality: Hadamard for singletons, Szasz for the
k-subsets, Fischer for a complementary pair.

Principal minors are factored in stacks: ``log_principal_minors``
gathers the minors of one size and hands them to one
np.linalg.cholesky call, which factors each of them on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from .bitsets import MAX_GROUND, complement, elements, full_mask, mask_of, subsets
from .errors import ConsistencyError, PreconditionError, ValidationError
from .families import WeightedFamily, singleton_family
from .rationals import GAUSS_TOL, effective_tol
from .setfn import SetFunction

__all__ = [
    "PDMatrix",
    "log_principal_minor",
    "log_principal_minors",
    "principal_minor",
    "gaussian_entropy_setfn",
    "DetEqualityReport",
    "det_equality_check",
    "preset_family",
]

# relative symmetry slack; PD-ness is whatever Cholesky accepts
_SYM_TOL = 2.0 ** -40


@dataclass(frozen=True)
class PDMatrix:
    """A symmetric positive definite matrix over binary64."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1 or a.shape[0] > MAX_GROUND:
            raise ValidationError(f"order must be in 1..{MAX_GROUND}, got {a.shape[0]}")
        if not np.all(np.isfinite(a)):
            raise ValidationError("matrix entries must be finite, not NaN or infinity")
        scale = float(np.max(np.abs(a))) or 1.0
        if float(np.max(np.abs(a - a.T))) > _SYM_TOL * scale:
            raise ValidationError("matrix is not symmetric")
        a = a / 2.0 + a.T / 2.0  # (a + a.T) / 2 overflows near the float max
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise ValidationError("matrix is not positive definite") from None

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])


def principal_minor(K: PDMatrix, mask: int) -> np.ndarray:
    """The principal submatrix of K on the elements of mask."""
    idx = [i - 1 for i in elements(mask)]
    return K.entries[np.ix_(idx, idx)]


# entries per stack of same-size minors: bounds a stack at 4 MiB
_STACK_ENTRIES = 1 << 19


def log_principal_minors(K: PDMatrix, masks) -> np.ndarray:
    """ln det K(mask) for every mask, the empty minor contributing 0.

    Minors of one size are gathered into a stack and factored by one
    np.linalg.cholesky call.  The stack still factors every minor on
    its own, which keeps each value independently certified PD instead
    of trusting cancellation in a shared factorization.  If a stack
    fails, the masks are factored one at a time, in order, so the error
    names the first minor that is not PD.
    """
    masks = np.asarray(masks, dtype=np.int64).reshape(-1)
    if np.any((masks < 0) | (masks >> K.n != 0)):
        raise ValidationError(f"masks must lie in the table of [1:{K.n}]")
    out = np.zeros(masks.size)
    bits = ((masks[:, None] >> np.arange(K.n)) & 1).astype(np.uint8)
    sizes = bits.sum(axis=1)
    for k in range(1, K.n + 1):
        group = np.flatnonzero(sizes == k)
        step = max(1, _STACK_ENTRIES // (k * k))
        for start in range(0, group.size, step):
            sel = group[start : start + step]
            idx = np.nonzero(bits[sel])[1].reshape(sel.size, k)
            try:
                low = np.linalg.cholesky(K.entries[idx[:, :, None], idx[:, None, :]])
            except np.linalg.LinAlgError:
                return _log_minors_one_by_one(K, masks.tolist())
            out[sel] = 2.0 * np.log(np.diagonal(low, axis1=1, axis2=2)).sum(axis=1)
    return out


def _log_minors_one_by_one(K: PDMatrix, masks: list[int]) -> np.ndarray:
    out = np.zeros(len(masks))
    for i, mask in enumerate(masks):
        if mask:
            try:
                low = np.linalg.cholesky(principal_minor(K, mask))
            except np.linalg.LinAlgError:
                raise ValidationError(
                    f"principal minor on {elements(mask)} is not positive definite"
                ) from None
            out[i] = 2.0 * np.sum(np.log(np.diag(low)))
    return out


def log_principal_minor(K: PDMatrix, mask: int) -> float:
    """ln det K(mask), with the empty minor contributing 0."""
    return float(log_principal_minors(K, [mask])[0])


_LOG_2PIE = math.log(2.0 * math.pi * math.e)


def gaussian_entropy_setfn(K: PDMatrix) -> SetFunction:
    """Differential entropy h(F) in nats of the Gaussian with covariance K."""
    n = K.n
    logs = log_principal_minors(K, np.arange(1 << n)).tolist()
    values = tuple(
        0.5 * (mask.bit_count() * _LOG_2PIE + log_minor)
        for mask, log_minor in zip(subsets(n), logs)
    )
    return SetFunction(n=n, values=values, label="gaussian-entropy")


@dataclass(frozen=True)
class DetEqualityReport:
    """Outcome of a weighted determinant equality test."""

    log_lhs: float
    log_rhs: float
    log_gap: float
    equality: bool
    merge_groups: tuple[tuple[int, ...], ...]
    offdiag_max: float
    diagonal_ok: bool
    tol: float
    tol_prime: float


def det_equality_check(
    K: PDMatrix, wf: WeightedFamily, tol: float | None = None
) -> DetEqualityReport:
    """Test sum gamma(F) ln det K(F) = ln det K against block structure.

    Equality holds exactly when K is block diagonal with respect to the
    partition of [1:n] into the co-occurrence classes of the family
    (Hadamard: diagonal; Fischer: the two blocks; Szasz: diagonal
    again, since the k-subsets separate every pair).  Both sides are
    decided independently and must agree.  Entries are compared
    blockwise against tol' = sqrt(tol) * max diagonal entry, which is
    where a log-det perturbation of size tol lands for off-diagonal
    leakage.
    """
    tol = float(effective_tol(False, GAUSS_TOL if tol is None else tol))
    if K.n != wf.n:
        raise ValidationError(f"matrix order {K.n} but family on [1:{wf.n}]")
    if wf.classify().flavor != "partition":
        raise PreconditionError(
            "determinant equality needs a fractional partition"
        )
    _, merge_map = wf.normalize()
    block = np.array([merge_map[i] for i in range(1, K.n + 1)])  # groups numbered 1..k
    merge_groups = tuple(
        tuple((np.flatnonzero(block == g) + 1).tolist()) for g in range(1, block.max() + 1)
    )

    logs = log_principal_minors(K, [full_mask(K.n)] + [m for m, _ in wf.members])
    log_rhs = float(logs[0])
    log_lhs = wf.weighted_sum(logs[1:], exact=False)
    log_gap = log_lhs - log_rhs
    equality = bool(abs(log_gap) <= tol)

    diag_max = float(np.max(np.diag(K.entries)))
    tol_prime = math.sqrt(tol) * diag_max
    cross = block[:, None] != block[None, :]
    offdiag_max = float(np.abs(K.entries[cross]).max(initial=0.0))
    diagonal_ok = bool(offdiag_max <= tol_prime)

    report = DetEqualityReport(
        log_lhs=log_lhs,
        log_rhs=log_rhs,
        log_gap=log_gap,
        equality=equality,
        merge_groups=merge_groups,
        offdiag_max=offdiag_max,
        diagonal_ok=diagonal_ok,
        tol=tol,
        tol_prime=tol_prime,
    )
    if equality != diagonal_ok:
        raise ConsistencyError(
            "determinant equality and block-diagonality disagree: "
            f"log gap {log_gap:.3e} vs off-diagonal max {offdiag_max:.3e}",
            report=report,
        )
    return report


def preset_family(
    name: str, n: int, k: int | None = None, block: tuple[int, ...] | None = None
) -> WeightedFamily:
    """Families behind the classical determinant inequalities.

    hadamard: all singletons, weight 1.
    szasz: all k-subsets, weight 1/C(n-1, k-1); k defaults to n-1.
    fischer: a set and its complement, weight 1 each; block gives the
    set as 1-indexed elements and defaults to {1}.
    """
    if name == "hadamard":
        return singleton_family(n)
    if name == "szasz":
        if k is None:
            k = n - 1
        if not 1 <= k <= n - 1:
            raise ValidationError(f"szasz needs 1 <= k <= n-1, got k={k}")
        weight = Fraction(1, comb(n - 1, k - 1))
        members = tuple(
            (sum(1 << i for i in c), weight) for c in combinations(range(n), k)
        )
        return WeightedFamily(n=n, members=members)
    if name == "fischer":
        if n < 2:
            raise ValidationError("fischer needs n >= 2")
        if block is None:
            block = (1,)
        m = mask_of(block, n)
        if m == 0 or m == full_mask(n):
            raise ValidationError("fischer block must be proper and nonempty")
        return WeightedFamily(
            n=n,
            members=((m, Fraction(1)), (complement(m, n), Fraction(1))),
        )
    raise ValidationError(
        f"unknown preset {name!r}; expected hadamard, szasz or fischer"
    )
