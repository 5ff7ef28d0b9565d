"""Entropy set functions and the information-measure layer on top."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from _support import (
    identical_bits,
    product_pmf,
    random_partition_family,
    random_pmf,
    under_seconds,
)
from fracsub.bitsets import full_mask
from fracsub.errors import PreconditionError, ValidationError
from fracsub.families import WeightedFamily, co_singleton_family, singleton_family
from fracsub.gaps import gap_upper
from fracsub.info import (
    JointDistribution,
    ProductDistribution,
    apply_channels,
    conditional_mutual_information,
    divergence_equality,
    dual_total_correlation,
    entropy,
    entropy_setfn,
    family_mutual_information,
    independence_equality,
    marginal_distribution,
    max_product_deviation,
    mmi_data_processing_check,
    mmi_max_over_partitions,
    mmi_recursion_residual,
    mutual_information_stability,
    project_family,
    relative_entropy_setfn,
    shared_information,
    symmetric_form,
    total_correlation,
)
from fracsub.setfn import is_nondecreasing, is_submodular

F = Fraction
TOL = 2.0**-30


def fam(n, *members):
    return WeightedFamily(n, tuple((m, F(w)) for m, w in members))


def fair_bit_pair(p11):
    # two bits with P(1,1) = p11, uniform marginals
    q = 0.5 - p11
    return JointDistribution((2, 2), [[p11, q], [q, p11]])


# ------------------------------------------------------- distributions


def test_distribution_validation():
    with pytest.raises(ValidationError):
        JointDistribution((2,), [0.5, -0.5, 1.0])
    with pytest.raises(ValidationError):
        JointDistribution((2,), [0.7, 0.2])
    with pytest.raises(ValidationError):
        JointDistribution((2, 2), [0.5, 0.5])
    with pytest.raises(ValidationError):
        JointDistribution((2,), [0.5, -0.1, 0.6])
    with pytest.raises(ValidationError):
        ProductDistribution(([0.5, 0.5], [[0.5], [0.5]]))
    with pytest.raises(ValidationError):
        ProductDistribution(([0.9, 0.2],))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_distributions_reject_non_finite_entries(bad):
    # NaN passed the sum check (abs(nan - 1) > tol is False) and gave a
    # negative total correlation
    with pytest.raises(ValidationError, match="non-finite"):
        JointDistribution((2, 2), [[bad, 0.5], [0.25, 0.25]])
    with pytest.raises(ValidationError, match="marginal 2 has a non-finite"):
        ProductDistribution(([0.5, 0.5], [bad, 0.5]))


def test_marginal_of_identical_bits():
    d = identical_bits(3)
    m = d.marginal(0b001)
    assert np.allclose(m, [0.5, 0.5])
    joint = d.marginal(0b011)
    assert joint[0, 0] == 0.5 and joint[1, 1] == 0.5 and joint[0, 1] == 0.0


def test_product_pmf_on():
    q = ProductDistribution(([0.25, 0.75], [0.5, 0.5]))
    on = q.pmf_on(0b11)
    assert on[0, 1] == pytest.approx(0.125)
    assert float(q.pmf_on(0b01)[1]) == 0.75


# ------------------------------------------------------------- entropy


def test_entropy_basics():
    d = identical_bits(2)
    assert entropy(d, 0) == 0.0
    assert entropy(d, 0b01) == 1.0
    assert entropy(d, 0b11) == 1.0  # second bit adds nothing


def test_entropy_setfn_is_grounded_submodular_monotone():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randrange(2, 5)
        d = random_pmf([rng.randrange(2, 4) for _ in range(n)], rng)
        e = entropy_setfn(d)
        assert e.is_grounded
        assert e.values[0] == 0.0
        assert is_submodular(e, 2.0**-40)
        assert is_nondecreasing(e, 2.0**-40)


def test_marginal_distribution_roundtrip():
    d = random_pmf([2, 3, 2], random.Random(5))
    sub = marginal_distribution(d, 0b101)
    assert sub.alphabet_sizes == (2, 2)
    assert entropy(sub, 0b11) == pytest.approx(entropy(d, 0b101))
    with pytest.raises(ValidationError):
        marginal_distribution(d, 0)


# ------------------------------------------------- independence equality


def test_independence_partition_both_directions():
    rng = random.Random(6)
    indep = product_pmf([2, 3, 2], rng)
    rep = independence_equality(indep, singleton_family(3))
    assert rep.flavor == "partition"
    assert rep.gap_zero and rep.condition_holds

    rep = independence_equality(identical_bits(3), singleton_family(3))
    assert not rep.gap_zero and not rep.condition_holds
    assert rep.gap == pytest.approx(2.0)


def test_independence_covering_needs_constant_over_covered():
    # var 1 constant, vars 2 and 3 independent; {1} is covered twice
    pmf = np.zeros((2, 2, 2))
    pmf[0] = np.outer([0.3, 0.7], [0.6, 0.4])
    d = JointDistribution((2, 2, 2), pmf)
    wf = fam(3, (0b001, 1), (0b001, 1), (0b010, 1), (0b100, 1))
    rep = independence_equality(d, wf)
    assert rep.flavor == "covering"
    assert rep.special_elements == (1,)
    assert rep.special_entropies == (0.0,)
    assert rep.gap_zero and rep.condition_holds

    # same family, but the over-covered variable now carries entropy
    d2 = JointDistribution((2, 2, 2), product_pmf([2, 2, 2], random.Random(9)).pmf)
    rep2 = independence_equality(d2, wf)
    assert not rep2.gap_zero and not rep2.condition_holds


def test_independence_packing_branch():
    pmf = np.zeros((2, 2, 2))
    pmf[0] = np.outer([0.3, 0.7], [0.6, 0.4])
    d = JointDistribution((2, 2, 2), pmf)
    wf = fam(3, (0b001, "1/2"), (0b010, 1), (0b100, 1))
    rep = independence_equality(d, wf)
    assert rep.flavor == "packing"
    assert rep.special_elements == (1,)
    assert rep.gap_zero and rep.condition_holds


def test_independence_preconditions():
    d = identical_bits(2)
    with pytest.raises(PreconditionError):
        independence_equality(d, fam(2, (0b01, 2)))  # coverage (2, 0)
    with pytest.raises(PreconditionError):
        independence_equality(d, fam(2, (0b11, 1)))  # pair never separated


def test_independence_agreement_on_random_instances():
    rng = random.Random(1234)
    for _ in range(40):
        n = rng.randrange(2, 5)
        sizes = [rng.randrange(2, 4) for _ in range(n)]
        d = product_pmf(sizes, rng) if rng.random() < 0.5 else random_pmf(sizes, rng)
        rep = independence_equality(d, random_partition_family(n, rng))
        assert rep.gap_zero == rep.condition_holds


# --------------------------------------------------- divergence equality


def test_divergence_product_reference_zero_gap():
    rng = random.Random(17)
    p = product_pmf([2, 3], rng)
    q = ProductDistribution(tuple(np.asarray(p.marginal(1 << i)) for i in range(2)))
    rep = divergence_equality(p, q, singleton_family(2))
    assert rep.gap_zero and rep.condition_holds
    assert rep.gap == pytest.approx(0.0, abs=1e-12)


def test_divergence_correlated_p_fails():
    q = ProductDistribution(([0.5, 0.5], [0.5, 0.5]))
    rep = divergence_equality(fair_bit_pair(0.4), q, singleton_family(2))
    assert not rep.gap_zero and not rep.condition_holds
    assert rep.product_deviation > rep.tol_prime


def test_divergence_covering_gap_value():
    # P uniform-product, Q shifts variable 1: over-covering {1} once
    # makes the gap exactly -D(P_1 || Q_1)
    p = JointDistribution((2, 2), np.full((2, 2), 0.25))
    q = ProductDistribution(([0.25, 0.75], [0.5, 0.5]))
    wf = fam(2, (0b01, 1), (0b01, 1), (0b10, 1))
    rep = divergence_equality(p, q, wf)
    d1 = 0.5 * math.log2(0.5 / 0.25) + 0.5 * math.log2(0.5 / 0.75)
    assert rep.flavor == "covering"
    assert rep.special_elements == (1,)
    assert rep.gap == pytest.approx(-d1)
    assert rep.gap < 0  # honest outcome, not an error
    assert not rep.gap_zero and not rep.condition_holds
    assert rep.reference_deviation == pytest.approx(0.25)

    # matching reference on the over-covered variable restores equality
    q2 = ProductDistribution(([0.5, 0.5], [0.5, 0.5]))
    rep2 = divergence_equality(p, q2, wf)
    assert rep2.gap_zero and rep2.condition_holds


def test_divergence_validation_and_preconditions():
    p = fair_bit_pair(0.25)
    with pytest.raises(ValidationError):
        # Q vanishes where P does not
        divergence_equality(
            p, ProductDistribution(([1.0, 0.0], [0.5, 0.5])), singleton_family(2)
        )
    with pytest.raises(ValidationError):
        divergence_equality(
            p, ProductDistribution(([0.5, 0.5], [0.5, 0.5], [0.5, 0.5])),
            singleton_family(2),
        )
    q = ProductDistribution(([0.5, 0.5], [0.5, 0.5]))
    with pytest.raises(PreconditionError):
        divergence_equality(p, q, fam(2, (0b01, "1/2"), (0b10, 1)))  # packing


def test_relative_entropy_setfn_shape():
    p = fair_bit_pair(0.25)
    q = ProductDistribution(([0.5, 0.5], [0.5, 0.5]))
    d = relative_entropy_setfn(p, q)
    assert d.is_grounded
    assert d.value(0b01) == pytest.approx(0.0)
    assert d.value(0b11) == pytest.approx(0.0)  # P(0.25) is the product measure
    assert is_submodular(d, 2.0**-40)


# ----------------------------------------------------------- family MI


def test_family_mi_singletons_is_total_correlation():
    rng = random.Random(404)
    for _ in range(25):
        n = rng.randrange(2, 5)
        d = random_pmf([rng.randrange(2, 4) for _ in range(n)], rng)
        got = family_mutual_information(d, singleton_family(n)).value
        assert abs(got - total_correlation(d)) <= TOL


def test_family_mi_co_singletons_is_scaled_dtc():
    rng = random.Random(405)
    for _ in range(25):
        n = rng.randrange(2, 5)
        d = random_pmf([rng.randrange(2, 4) for _ in range(n)], rng)
        got = family_mutual_information(d, co_singleton_family(n)).value
        assert abs(got - dual_total_correlation(d) / (n - 1)) <= TOL


def test_family_mi_identical_bits_values():
    d = identical_bits(3)
    assert total_correlation(d) == pytest.approx(2.0, abs=TOL)
    assert dual_total_correlation(d) == pytest.approx(1.0, abs=TOL)
    assert family_mutual_information(d, singleton_family(3)).value == pytest.approx(2.0)
    assert family_mutual_information(d, co_singleton_family(3)).value == pytest.approx(0.5)


def test_family_mi_validation():
    d = identical_bits(2)
    with pytest.raises(ValidationError):
        family_mutual_information(d, singleton_family(3))
    with pytest.raises(PreconditionError):
        family_mutual_information(d, fam(2, (0b01, 1), (0b10, "1/2")))


def test_family_mi_nonnegative_on_partitions():
    rng = random.Random(406)
    for _ in range(20):
        n = rng.randrange(2, 5)
        d = random_pmf([2] * n, rng)
        wf = random_partition_family(n, rng)
        assert family_mutual_information(d, wf).value >= -TOL


def test_mutual_information_stability():
    d = identical_bits(2)
    rep = mutual_information_stability(d, singleton_family(2), 1.0)
    assert rep.sigma == 1
    assert rep.mutual_informations == (1.0, 1.0)
    assert rep.bound == 1.0
    assert rep.satisfied


# ----------------------------------------------------- SI and max MI


def test_shared_information_two_variables_is_mi():
    for p11 in (0.25, 0.3, 0.45):
        d = fair_bit_pair(p11)
        si = shared_information(d)
        mi = conditional_mutual_information(d, 0b01, 0b10, 0)
        assert abs(si.value - mi) <= TOL
        assert abs(si.dual_side_value - si.value) <= TOL


def test_shared_information_identical_bits():
    for n in (2, 3):
        si = shared_information(identical_bits(n))
        assert si.value == pytest.approx(1.0, abs=TOL)
        assert si.argmax.classify().flavor == "partition"
        # conditional side and value split the joint entropy
        assert si.conditional_value + si.value == pytest.approx(1.0, abs=TOL)


def test_shared_information_product_is_zero():
    d = product_pmf([2, 2, 2], random.Random(21))
    assert shared_information(d).value == pytest.approx(0.0, abs=1e-9)


def test_shared_information_six_variables_alphabet_six_in_time():
    # a 62-column partition LP with binary64 costs, in integer rows
    rng = np.random.default_rng(66)
    cells = rng.random(6**6) + 0.02
    d = JointDistribution((6,) * 6, (cells / cells.sum()).reshape((6,) * 6))
    with under_seconds(0.08, "shared information of six variables, alphabets 6"):
        si = shared_information(d)
    assert si.argmax.classify().flavor == "partition"
    assert abs(si.dual_side_value - si.value) <= TOL


def test_mmi_max_is_total_correlation():
    rng = random.Random(22)
    for _ in range(10):
        n = rng.randrange(2, 5)
        d = random_pmf([2] * n, rng)
        res = mmi_max_over_partitions(d)
        assert abs(res.value - res.total_correlation) <= TOL
        assert res.argmax.classify().flavor == "partition"


def test_si_size_limits():
    with pytest.raises(ValidationError):
        shared_information(JointDistribution((2,), [0.5, 0.5]))


# ---------------------------------------------------------- recursion


@pytest.mark.filterwarnings("ignore:projection drops member")
def test_recursion_residual_small():
    rng = random.Random(777)
    for _ in range(30):
        n = rng.randrange(2, 5)
        d = random_pmf([2] * n, rng)
        wf = random_partition_family(n, rng)
        rep = mmi_recursion_residual(d, wf)
        assert rep.residual <= 1e-9
        assert rep.mi_projected <= rep.mi_full + 1e-9
        assert rep.mi_full <= rep.mi_projected + rep.attachment + 1e-9


@pytest.mark.filterwarnings("ignore:projection drops member")
def test_recursion_identical_bits_by_hand():
    d = identical_bits(3)
    rep = mmi_recursion_residual(d, singleton_family(3))
    # dropping bit 3: TC falls from 2 to 1, the link I(X3 ; X2 | X1) +
    # I(X3 ; X1 X2 | -) contributes ... exactly the difference
    assert rep.mi_full == pytest.approx(2.0)
    assert rep.mi_projected == pytest.approx(1.0)
    assert rep.link_sum == pytest.approx(1.0)
    assert rep.attachment == pytest.approx(1.0)


def test_projection_drops_last_singleton_with_warning():
    wf = fam(3, (0b100, 1), (0b011, 1))
    with pytest.warns(UserWarning):
        proj = project_family(wf)
    assert proj.n == 2
    assert proj.members == ((0b11, F(1)),)


def test_conditional_mi():
    d = identical_bits(3)
    assert conditional_mutual_information(d, 0b001, 0b010, 0) == pytest.approx(1.0)
    assert conditional_mutual_information(d, 0b001, 0b010, 0b100) == pytest.approx(0.0)
    with pytest.raises(ValidationError):
        conditional_mutual_information(d, 0b001, 0b011, 0)


# ----------------------------------------------------------- channels


def test_apply_channels_deterministic_relabel():
    d = identical_bits(2)
    out = apply_channels(d, ([1, 0], [0, 1]))
    assert out.alphabet_sizes == (2, 2)
    assert out.pmf[1, 0] == pytest.approx(0.5)
    assert entropy(out, 0b11) == pytest.approx(1.0)


def test_apply_channels_validation():
    d = identical_bits(2)
    with pytest.raises(ValidationError):
        apply_channels(d, ([0, 1],))  # one map missing
    with pytest.raises(ValidationError):
        apply_channels(d, ([0], [0, 1]))  # wrong table length
    with pytest.raises(ValidationError):
        apply_channels(d, ([0, -1], [0, 1]))
    with pytest.raises(ValidationError):
        apply_channels(d, ([[0.5, 0.6], [0.5, 0.5]], [0, 1]))  # row sums
    with pytest.raises(ValidationError):
        apply_channels(d, ([[[0.5]]], [0, 1]))


def test_data_processing_deterministic_and_noisy():
    d = identical_bits(2)
    wf = singleton_family(2)
    rep = mmi_data_processing_check(d, wf, ([0, 1], [0, 1]))
    assert rep.noise == pytest.approx(0.0)
    assert rep.mi_output == pytest.approx(rep.mi_input)
    assert rep.holds

    # collapsing one variable kills the mutual information
    rep = mmi_data_processing_check(d, wf, ([0, 0], [0, 1]))
    assert rep.mi_output == pytest.approx(0.0)
    assert rep.holds

    # symmetric noise keeps the bound with positive slack
    flip = [[0.9, 0.1], [0.1, 0.9]]
    rep = mmi_data_processing_check(d, wf, (flip, flip))
    assert rep.noise > 0
    assert rep.mi_output <= rep.bound + 1e-12
    assert rep.holds


def test_data_processing_on_random_instances():
    rng = random.Random(99)
    for _ in range(15):
        n = rng.randrange(2, 4)
        d = random_pmf([2] * n, rng)
        wf = random_partition_family(n, rng)
        maps = []
        for _ in range(n):
            a = rng.random() * 0.5
            maps.append([[1 - a, a], [a, 1 - a]])
        rep = mmi_data_processing_check(d, wf, maps)
        assert rep.holds


# ------------------------------------------------------ symmetric form


def test_symmetric_form_profiles():
    assert symmetric_form(singleton_family(3)) == (F(1), F(0))
    assert symmetric_form(co_singleton_family(3)) == (F(0), F(1, 2))
    mixed = fam(
        3,
        (0b001, "1/2"), (0b010, "1/2"), (0b100, "1/2"),
        (0b011, "1/4"), (0b101, "1/4"), (0b110, "1/4"),
    )
    assert symmetric_form(mixed) == (F(1, 2), F(1, 4))


def test_symmetric_form_aggregates_duplicates():
    split = fam(
        3,
        (0b001, "1/2"), (0b001, "1/2"),
        (0b010, 1), (0b100, 1),
    )
    assert symmetric_form(split) == (F(1), F(0))


def test_symmetric_form_rejects_and_declines():
    # incomplete cardinality class
    assert symmetric_form(fam(3, (0b011, 1), (0b100, 1))) is None
    # all classes complete but the singleton weights disagree
    weights_differ = fam(
        3,
        (0b001, "1/2"), (0b010, "3/8"), (0b100, "3/8"),
        (0b011, "1/4"), (0b101, "1/4"), (0b110, "3/8"),
    )
    assert weights_differ.classify().flavor == "partition"
    assert symmetric_form(weights_differ) is None
    with pytest.raises(PreconditionError):
        symmetric_form(fam(2, (0b01, 1), (0b10, "1/2")))
