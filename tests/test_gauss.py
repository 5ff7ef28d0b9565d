"""Gaussian entropy tables and the determinant-inequality layer."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from _support import log_minor_by_cholesky, random_partition_family, under_seconds
from fracsub.bitsets import full_mask, subsets
from fracsub.errors import PreconditionError, ValidationError
from fracsub.families import WeightedFamily, singleton_family
from fracsub.gaps import gap_lower, gap_upper
from fracsub.gauss import (
    PDMatrix,
    det_equality_check,
    gaussian_entropy_setfn,
    log_principal_minor,
    log_principal_minors,
    preset_family,
    principal_minor,
)
from fracsub.rationals import GAUSS_TOL
from fracsub.setfn import is_modular, is_submodular

F = Fraction


def random_pd(n, rng, jitter=0.5):
    a = np.array([[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)])
    return PDMatrix(a @ a.T + (jitter + n) * np.eye(n))


def block_diag(*blocks):
    size = sum(b.shape[0] for b in blocks)
    out = np.zeros((size, size))
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at : at + k, at : at + k] = b
        at += k
    return out


# ------------------------------------------------------------ matrices


def test_pd_matrix_validation():
    with pytest.raises(ValidationError):
        PDMatrix(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        PDMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))  # asymmetric
    with pytest.raises(ValidationError):
        PDMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(ValidationError):
        PDMatrix(np.zeros((0, 0)))
    k = PDMatrix(np.eye(2))
    with pytest.raises(ValueError):
        k.entries[0, 0] = 5.0  # read-only view


def test_pd_matrix_symmetrizes_roundoff():
    a = np.array([[2.0, 1.0 + 1e-14], [1.0, 2.0]])
    k = PDMatrix(a)
    assert k.entries[0, 1] == k.entries[1, 0]


def test_principal_minor_values():
    k = PDMatrix(np.diag([2.0, 3.0, 4.0]))
    assert principal_minor(k, 0b101).tolist() == [[2.0, 0.0], [0.0, 4.0]]
    assert log_principal_minor(k, 0b101) == pytest.approx(math.log(8.0))
    assert log_principal_minor(k, 0) == 0.0
    eye = PDMatrix(np.eye(3))
    assert log_principal_minor(eye, 0b111) == pytest.approx(0.0)
    corr = PDMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert log_principal_minor(corr, 0b11) == pytest.approx(math.log(0.75))


def test_log_minor_rejects_non_pd_submatrix_inputs():
    # PDMatrix construction itself guards this; feed the helper a
    # handcrafted container to reach the error path
    k = PDMatrix(np.eye(2))
    object.__setattr__(k, "entries", np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValidationError):
        log_principal_minor(k, 0b11)


@pytest.mark.parametrize("n", [1, 2, 5, 9, 14])
def test_stacked_minors_equal_single_minors_bit_for_bit(n):
    rng = np.random.default_rng(700 + n)
    a = rng.standard_normal((n, n)) * rng.uniform(0.1, 10)
    k = PDMatrix(a @ a.T / n + rng.uniform(0.01, 2) * np.eye(n))
    stacked = log_principal_minors(k, list(subsets(n))).tolist()
    # every subset against one Cholesky per minor; a sample also
    # through the public single-mask call
    assert stacked == [log_minor_by_cholesky(k, m) for m in subsets(n)]
    sample = rng.choice(1 << n, size=min(1 << n, 300), replace=False).tolist()
    assert [log_principal_minor(k, m) for m in sample] == [stacked[m] for m in sample]
    # any mask order, duplicates included
    masks = sample + sample[:7]
    assert log_principal_minors(k, masks).tolist() == [stacked[m] for m in masks]


def test_stacked_minors_name_the_first_failing_minor():
    # the non-PD container again: {1,2} and {1,2,3} both fail, the
    # 2x2 stack is factored first, the error names the first in order
    k = PDMatrix(np.eye(3))
    object.__setattr__(
        k, "entries", np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    )
    assert log_principal_minors(k, [0b001, 0b100, 0b101]).tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(ValidationError, match=r"\(1, 2, 3\)"):
        log_principal_minors(k, [0b001, 0b111, 0b011])
    with pytest.raises(ValidationError, match=r"\(1, 2\) is not"):
        log_principal_minors(k, [0b011, 0b111])
    with pytest.raises(ValidationError, match=r"\(1, 2\) is not"):
        log_principal_minor(k, 0b011)


def test_minors_reject_masks_outside_the_table():
    k = PDMatrix(np.eye(3))
    for bad in (0b1000, -1):
        with pytest.raises(ValidationError, match="table"):
            log_principal_minors(k, [0b001, bad])
        with pytest.raises(ValidationError, match="table"):
            log_principal_minor(k, bad)


def test_det_equality_szasz8_n16_in_time():
    # 12870 minors of order 8 in one stack
    rng = np.random.default_rng(16)
    a = rng.standard_normal((16, 16))
    k = PDMatrix(a @ a.T / 16 + np.eye(16))
    wf = preset_family("szasz", 16, k=8)
    with under_seconds(0.2, "szasz:8 determinant equality at n=16"):
        rep = det_equality_check(k, wf)
    assert not rep.equality and not rep.diagonal_ok


# ----------------------------------------------------- entropy function


def test_gaussian_entropy_table_shape():
    k = PDMatrix(np.diag([1.0, 4.0]))
    h = gaussian_entropy_setfn(k)
    assert h.is_grounded
    assert h.value(0b01) == pytest.approx(0.5 * math.log(2 * math.pi * math.e))
    assert h.value(0b10) == pytest.approx(0.5 * math.log(2 * math.pi * math.e * 4.0))
    assert h.value(0b11) == pytest.approx(h.value(0b01) + h.value(0b10))


def test_gaussian_entropy_is_submodular():
    rng = random.Random(14)
    for _ in range(10):
        n = rng.randrange(2, 6)
        h = gaussian_entropy_setfn(random_pd(n, rng))
        assert is_submodular(h, GAUSS_TOL)


def test_entropy_gap_equals_half_log_det_gap_on_partitions():
    # the 2-pi-e size terms cancel exactly when coverage is 1
    rng = random.Random(15)
    for _ in range(10):
        n = rng.randrange(2, 6)
        k = random_pd(n, rng)
        wf = random_partition_family(n, rng)
        h = gaussian_entropy_setfn(k)
        det_gap = math.fsum(
            float(w) * log_principal_minor(k, m) for m, w in wf.members
        ) - log_principal_minor(k, full_mask(n))
        assert gap_upper(h, wf) == pytest.approx(0.5 * det_gap, abs=2.0**-25)


# ------------------------------------------------------------- presets


def test_preset_hadamard():
    assert preset_family("hadamard", 3) == singleton_family(3)


def test_preset_szasz():
    wf = preset_family("szasz", 4, k=2)
    assert len(wf.members) == 6
    assert all(w == F(1, 3) for _, w in wf.members)
    assert wf.classify().flavor == "partition"
    default = preset_family("szasz", 4)
    assert all(m.bit_count() == 3 for m, _ in default.members)
    assert all(w == F(1, 3) for _, w in default.members)


def test_preset_fischer():
    wf = preset_family("fischer", 4, block=(1, 3))
    assert wf.members == ((0b0101, F(1)), (0b1010, F(1)))
    assert preset_family("fischer", 3).members[0] == (0b001, F(1))


def test_preset_validation():
    with pytest.raises(ValidationError):
        preset_family("minkowski", 3)
    with pytest.raises(ValidationError):
        preset_family("szasz", 3, k=3)
    with pytest.raises(ValidationError):
        preset_family("szasz", 3, k=0)
    with pytest.raises(ValidationError):
        preset_family("fischer", 3, block=(1, 2, 3))
    with pytest.raises(ValidationError):
        preset_family("fischer", 1)


# ------------------------------------------------- inequalities hold


def test_hadamard_fischer_szasz_inequalities():
    rng = random.Random(16)
    for _ in range(15):
        n = rng.randrange(2, 7)
        k = random_pd(n, rng)
        log_det = log_principal_minor(k, full_mask(n))
        for name in ("hadamard", "szasz", "fischer"):
            wf = preset_family(name, n)
            lhs = math.fsum(
                float(w) * log_principal_minor(k, m) for m, w in wf.members
            )
            assert lhs >= log_det - 2.0**-25, (name, n)


# ------------------------------------------------------- equality test


def test_det_equality_diagonal_matrix():
    k = PDMatrix(np.diag([2.0, 5.0, 7.0]))
    rep = det_equality_check(k, preset_family("hadamard", 3))
    assert rep.equality and rep.diagonal_ok
    assert rep.log_gap == pytest.approx(0.0, abs=1e-12)
    assert rep.merge_groups == ((1,), (2,), (3,))
    assert rep.offdiag_max == 0.0


def test_det_equality_correlated_pair_strict():
    k = PDMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    rep = det_equality_check(k, preset_family("hadamard", 2))
    assert not rep.equality and not rep.diagonal_ok
    assert rep.log_gap == pytest.approx(-math.log(0.75))
    assert rep.offdiag_max == 0.5


def test_det_equality_fischer_blocks():
    b1 = np.array([[2.0, 0.7], [0.7, 1.5]])
    b2 = np.array([[3.0]])
    k = PDMatrix(block_diag(b1, b2))
    wf = preset_family("fischer", 3, block=(1, 2))
    rep = det_equality_check(k, wf)
    # members {1,2} and {3} merge nothing across the split, and the
    # matrix really is block diagonal for it
    assert rep.equality and rep.diagonal_ok
    assert rep.merge_groups == ((1, 2), (3,))

    # same matrix, but the family splits inside the correlated block
    wf2 = preset_family("fischer", 3, block=(1,))
    rep2 = det_equality_check(k, wf2)
    assert not rep2.equality and not rep2.diagonal_ok
    assert rep2.offdiag_max == pytest.approx(0.7)


def test_det_equality_szasz_on_block_matrix():
    # szasz members separate every pair, so only a diagonal matrix passes
    k = PDMatrix(block_diag(np.array([[1.0, 0.3], [0.3, 1.0]]), np.eye(1)))
    rep = det_equality_check(k, preset_family("szasz", 3, k=2))
    assert not rep.equality and not rep.diagonal_ok
    diag = PDMatrix(np.diag([1.0, 2.0, 3.0]))
    rep2 = det_equality_check(diag, preset_family("szasz", 3, k=2))
    assert rep2.equality and rep2.diagonal_ok
    assert rep2.merge_groups == ((1,), (2,), (3,))


def test_det_equality_three_way_agreement():
    # gap test, block test, and modularity of the entropy table must
    # all point the same way on structured randoms
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randrange(2, 6)
        if rng.random() < 0.5:
            sizes = []
            left = n
            while left:
                s = rng.randrange(1, left + 1)
                sizes.append(s)
                left -= s
            blocks = [random_pd(s, rng).entries for s in sizes]
            k = PDMatrix(block_diag(*blocks))
        else:
            k = random_pd(n, rng)
        wf = preset_family("hadamard", n)
        rep = det_equality_check(k, wf)
        h = gaussian_entropy_setfn(k)
        assert rep.equality == rep.diagonal_ok
        if np.array_equal(k.entries, np.diag(np.diag(k.entries))):
            assert rep.equality and is_modular(h, GAUSS_TOL).ok
        elif rep.offdiag_max > 4 * rep.tol_prime:
            assert not rep.equality and not is_modular(h, GAUSS_TOL).ok


def test_det_equality_merged_fischer_blocks():
    # under normalize the two fischer members merge pairwise classes;
    # a full-block matrix is then diagonal "by blocks" trivially
    k = PDMatrix(block_diag(np.array([[1.0, 0.9], [0.9, 1.0]]), 2.0 * np.eye(2)))
    wf = preset_family("fischer", 4, block=(1, 2))
    rep = det_equality_check(k, wf)
    assert rep.merge_groups == ((1, 2), (3, 4))
    assert rep.equality and rep.diagonal_ok


def test_det_equality_validation():
    k = PDMatrix(np.eye(3))
    with pytest.raises(ValidationError):
        det_equality_check(k, singleton_family(2))
    with pytest.raises(ValidationError):
        det_equality_check(k, singleton_family(3), tol=-1.0)
    covering = WeightedFamily(
        3, ((0b001, F(1)), (0b001, F(1)), (0b010, F(1)), (0b100, F(1)))
    )
    with pytest.raises(PreconditionError):
        det_equality_check(k, covering)


def test_gap_lower_also_nonnegative_for_gaussian():
    rng = random.Random(18)
    for _ in range(10):
        n = rng.randrange(2, 6)
        h = gaussian_entropy_setfn(random_pd(n, rng))
        wf = random_partition_family(n, rng)
        assert gap_lower(h, wf) >= -(2.0**-25)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_pd_matrix_rejects_non_finite_entries(bad):
    with pytest.raises(ValidationError, match="finite"):
        PDMatrix(np.array([[1.0, bad], [bad, 1.0]]))
    with pytest.raises(ValidationError, match="finite"):
        PDMatrix(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_pd_matrix_near_float_max_does_not_overflow():
    K = PDMatrix(np.diag([1e308, 1e308]))
    assert np.all(np.isfinite(K.entries))
    rep = det_equality_check(K, preset_family("hadamard", 2))
    assert rep.equality and rep.diagonal_ok


def test_pd_matrix_symmetrization_keeps_finite_bits():
    rng = random.Random(7)
    for n in (2, 5, 9):
        a = np.array(random_pd(n, rng).entries)
        upper = np.triu_indices(n, 1)
        a[upper] = np.nextafter(a[upper], np.inf)  # one-ulp asymmetry
        assert np.array_equal(PDMatrix(a).entries, (a + a.T) / 2.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_det_equality_check_rejects_non_finite_tol(bad):
    with pytest.raises(ValidationError, match="tolerance must be finite"):
        det_equality_check(PDMatrix(np.eye(2)), preset_family("hadamard", 2), bad)
