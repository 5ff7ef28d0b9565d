"""Gap functionals, duality, stability, certification, equality conditions."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from _support import (
    classify_by_bits,
    gap_lower_by_members,
    gap_upper_by_members,
    modular_from_singletons,
    random_covering_family,
    random_modular_table,
    random_packing_family,
    random_partition_family,
    under_seconds,
    weighted_sum_by_members,
)
from fracsub.errors import ConsistencyError, PreconditionError, ValidationError
from fracsub.families import WeightedFamily, singleton_family
from fracsub.fixtures import all_bundles, modular_singletons, zero_gap_nonmonotone
from fracsub.gaps import (
    certify_modular_partial,
    duality_residual,
    equality_conditions_covering,
    gap_lower,
    gap_report,
    gap_upper,
    shearer_check,
    stability_check,
)
from fracsub.gauss import preset_family
from fracsub.setfn import PartialSetFunction, SetFunction, generate_submodular

F = Fraction


def fam(n, *members):
    return WeightedFamily(n, tuple((m, F(w)) for m, w in members))


# ---------------------------------------------------------------- gaps


def test_gap_values_on_fixture():
    b = modular_singletons()
    assert gap_upper(b.table, b.family) == 0
    assert gap_lower(b.table, b.family) == 0


def test_gap_upper_by_hand():
    # f = min(|S|, 1) on n=2, singleton partition: 1 + 1 - 1
    f = SetFunction(2, (F(0), F(1), F(1), F(1)))
    assert gap_upper(f, singleton_family(2)) == 1
    assert gap_lower(f, singleton_family(2)) == 1


def test_gap_lower_uses_complement_conditionals():
    # asymmetric modular-plus-bump function, checked against the formula
    f = SetFunction(2, (F(0), F(2), F(3), F(4)))
    wf = fam(2, (0b01, 1), (0b10, "1/2"))
    # sum gamma(S) (f(full) - f(S^c)) = 1*(4-3) + 1/2*(4-2) = 2
    assert gap_lower(f, wf) == F(4) - F(2)
    assert gap_upper(f, wf) == F(2) + F(3, 2) - F(4)


def test_ground_set_mismatch_rejected():
    f = SetFunction(2, (F(0), F(1), F(1), F(2)))
    with pytest.raises(ValidationError):
        gap_upper(f, singleton_family(3))
    with pytest.raises(ValidationError):
        gap_lower(f, singleton_family(3))
    with pytest.raises(ValidationError):
        duality_residual(f, singleton_family(3))


def test_modular_tables_have_zero_gaps_on_partitions():
    rng = random.Random(4101)
    for _ in range(60):
        n = rng.randrange(2, 7)
        f = random_modular_table(n, rng)
        wf = random_partition_family(n, rng)
        assert gap_upper(f, wf) == 0
        assert gap_lower(f, wf) == 0


def test_gap_nonnegative_for_submodular_on_partitions():
    rng = random.Random(88)
    for kind in ("coverage", "matroid-plus-modular"):
        for seed in range(25):
            n = rng.randrange(2, 7)
            f = generate_submodular(n, seed, kind)
            wf = random_partition_family(n, rng)
            assert gap_upper(f, wf) >= 0, (kind, seed, n)
            assert gap_lower(f, wf) >= 0, (kind, seed, n)


def test_gap_nonnegative_for_entropy_tables():
    rng = random.Random(89)
    for seed in range(15):
        n = rng.randrange(2, 6)
        f = generate_submodular(n, seed, "entropy")
        wf = random_partition_family(n, rng)
        assert gap_upper(f, wf) >= -(2.0**-30)
        assert gap_lower(f, wf) >= -(2.0**-30)


def test_covering_upper_and_packing_lower_signs():
    rng = random.Random(90)
    for seed in range(20):
        n = rng.randrange(2, 6)
        f = generate_submodular(n, seed, "coverage")
        cov = random_covering_family(n, rng)
        pack = random_packing_family(n, rng)
        # nondecreasing f: enlarging coverage only raises the member sum
        assert gap_upper(f, cov) >= 0
        assert gap_lower(f, pack) >= 0


def test_gap_report_notes_and_bounds():
    b = modular_singletons()
    rep = gap_report(b.table, b.family)
    assert rep.gap_upper == 0 and rep.gap_lower == 0
    assert rep.weight_total == 4
    assert rep.bounds_hold == (True, True)
    assert "grounded" in rep.notes
    assert "submodular" in rep.notes
    assert "nondecreasing" in rep.notes
    assert "family:partition" in rep.notes

    z = zero_gap_nonmonotone()
    rep = gap_report(z.table, z.family)
    assert rep.gap_upper == 0
    assert "prefix-nondecreasing" in rep.notes
    assert "nondecreasing" not in rep.notes
    assert "family:covering" in rep.notes


# ------------------------------------------------------------- duality


def test_duality_residual_zero_on_rational_instances():
    rng = random.Random(321)
    for _ in range(40):
        n = rng.randrange(2, 7)
        f = generate_submodular(n, rng.randrange(1000), "coverage")
        wf = random_partition_family(n, rng)
        assert duality_residual(f, wf) == 0
    for _ in range(40):
        n = rng.randrange(2, 6)
        f = random_modular_table(n, rng)
        wf = random_covering_family(n, rng)
        assert duality_residual(f, wf) == 0


def test_duality_residual_small_on_float_instances():
    rng = random.Random(322)
    for seed in range(10):
        n = rng.randrange(2, 6)
        f = generate_submodular(n, seed, "entropy")
        wf = random_partition_family(n, rng)
        assert abs(duality_residual(f, wf)) <= 1e-9


def test_duality_identity_spelled_out():
    f = SetFunction(2, (F(0), F(1), F(1), F(1)))
    wf = singleton_family(2)  # w = 2, dual = co-singletons, w_bar = 2
    dual = wf.dual()
    assert gap_upper(f, wf) / wf.weight_total() == gap_lower(f, dual) / dual.weight_total()


def test_duality_needs_weight_above_one():
    # a single-member partition has w = 1 and no dual
    f = SetFunction(2, (F(0), F(1), F(1), F(1)))
    wf = fam(2, (0b01, "1/2"), (0b10, 1), (0b01, "1/2"))
    assert duality_residual(f, wf) == 0
    lone = fam(1, (0b1, 1))
    g = SetFunction(1, (F(0), F(1)))
    with pytest.raises(PreconditionError):
        duality_residual(g, lone)


# ----------------------------------------------------------- stability


def test_stability_modular_function():
    b = modular_singletons()
    rep = stability_check(b.table, b.family, 0)
    assert rep.sigma == 1
    assert rep.defects == (F(0),) * 4
    assert rep.satisfied
    assert rep.epsilon_covers_gap
    assert rep.gap_upper == 0 and rep.gap_lower == 0


def test_stability_tight_instance():
    # f = min(|S|, 1): both gaps equal 1, sigma = 1, every defect = 1
    f = SetFunction(2, (F(0), F(1), F(1), F(1)))
    rep = stability_check(f, singleton_family(2), 1)
    assert rep.sigma == 1
    assert rep.bound == 1
    assert rep.defects == (F(1), F(1))
    assert rep.satisfied
    assert rep.epsilon_covers_gap


def test_stability_vacuous_epsilon_flagged():
    f = SetFunction(2, (F(0), F(1), F(1), F(1)))
    rep = stability_check(f, singleton_family(2), 0)
    assert not rep.satisfied
    assert not rep.epsilon_covers_gap  # hypothesis was never established


def test_stability_epsilon_from_either_gap():
    rng = random.Random(555)
    for seed in range(20):
        n = rng.randrange(2, 6)
        f = generate_submodular(n, seed, "coverage")
        wf = random_partition_family(n, rng)
        for eps in (gap_upper(f, wf), gap_lower(f, wf)):
            rep = stability_check(f, wf, eps)
            assert rep.satisfied, (seed, n, eps)
            assert rep.epsilon_covers_gap


def test_stability_preconditions():
    f = SetFunction(2, (F(1), F(2), F(2), F(2)))  # not grounded
    with pytest.raises(PreconditionError):
        stability_check(f, singleton_family(2), 0)
    g = SetFunction(2, (F(0), F(0), F(0), F(1)))  # supermodular
    with pytest.raises(PreconditionError) as exc:
        stability_check(g, singleton_family(2), 0)
    assert exc.value.witness is not None
    h = SetFunction(2, (F(0), F(1), F(1), F(1)))
    with pytest.raises(PreconditionError):
        stability_check(h, fam(2, (0b01, 1), (0b10, "1/2")), 0)  # packing
    # partition whose only member joins 1 and 2: assumptions violated
    k = SetFunction(3, (F(0),) + (F(1),) * 7)
    with pytest.raises(PreconditionError):
        stability_check(k, fam(3, (0b011, 1), (0b100, 1)), 0)
    with pytest.raises(ValidationError):
        stability_check(h, singleton_family(2), -1)


def test_stability_refuses_full_set_member():
    # sigma = 1/2 > 0 here, so only the standing-assumption check refuses
    f = SetFunction(2, (F(0), F(1), F(1), F(1)))
    wf = fam(2, (0b01, "1/2"), (0b10, "1/2"), (0b11, "1/2"))
    assert wf.classify().flavor == "partition" and wf.sigma() == F(1, 2)
    with pytest.raises(PreconditionError, match="standing assumptions; normalize first"):
        stability_check(f, wf, 1)


def test_stability_float_instance():
    f = generate_submodular(3, 7, "entropy")
    wf = singleton_family(3)
    rep = stability_check(f, wf, gap_upper(f, wf))
    assert rep.satisfied
    assert isinstance(rep.bound, float)


def test_stability_szasz_family_at_n16_is_fast():
    # 12870 members of one weight: sigma from one integer B^T (1 - B)
    f = generate_submodular(16, 1, "coverage")
    wf = preset_family("szasz", 16, k=8)
    with under_seconds(0.5, "stability with szasz:8 at n=16"):
        rep = stability_check(f, wf, 0)
    assert rep.sigma == F(8, 15)


# ---------------------------------- weighted member sums vs the oracle


def _same(got, expected):
    """Equal value and type; floats bit for bit, sign of zero included."""
    assert type(got) is type(expected)
    if isinstance(got, float):
        assert got.hex() == expected.hex()
    else:
        assert got == expected


_weights = st.sampled_from([F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(7, 12), F(5, 2)])
_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
)
_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def _members(draw, n):
    """Up to 8 members with mixed and zero weights, plus duplicates."""
    member = st.tuples(st.integers(min_value=0, max_value=(1 << n) - 1), _weights)
    members = draw(st.lists(member, max_size=8))
    if members:
        members += draw(st.lists(st.sampled_from(members), max_size=3))
    return WeightedFamily(n, tuple(members))


@st.composite
def tables_and_families(draw):
    """(f, wf): int64, object-int or float tables with n <= 5."""
    n = draw(st.integers(min_value=1, max_value=5))
    kind = draw(st.sampled_from(["int64", "object", "float"]))
    scalars = _floats if kind == "float" else _fractions
    vals = draw(st.lists(scalars, min_size=1 << n, max_size=1 << n))
    if kind == "object":
        vals[-1] += 1 << 62  # past the int64 guard
    f = SetFunction(n, vals)
    assert f.table.dtype == {"int64": "int64", "object": "O", "float": "float64"}[kind]
    return f, _members(draw, n)


@st.composite
def families_and_values(draw):
    """(wf, values, exact): Fraction values (as in a partial table) or floats."""
    wf = _members(draw, draw(st.integers(min_value=1, max_value=4)))
    exact = draw(st.booleans())
    k = len(wf.members)
    return wf, draw(st.lists(_fractions if exact else _floats, min_size=k, max_size=k)), exact


@settings(max_examples=150, deadline=None)
@given(tables_and_families())
@example((SetFunction(2, (F(0), F(1), F(1), F(1))), WeightedFamily(2, ())))
@example((SetFunction(1, (0.0, -0.0)), WeightedFamily(1, ((1, F(1, 3)), (1, F(0))))))
def test_gaps_and_classification_match_per_member_oracle(case):
    f, wf = case
    _same(gap_upper(f, wf), gap_upper_by_members(f, wf))
    _same(gap_lower(f, wf), gap_lower_by_members(f, wf))
    assert wf.classify() == classify_by_bits(wf)


@settings(max_examples=100, deadline=None)
@given(families_and_values())
def test_weighted_sum_matches_per_member_oracle(case):
    wf, values, exact = case
    _same(wf.weighted_sum(values, exact), weighted_sum_by_members(wf, values, exact))


def test_exact_gaps_at_the_int64_guard_edge():
    # numerators just below the guard stay int64, and 400 of them sum
    # past 2**63: the per-weight sum must not wrap
    big = (1 << 60) // 6 - 1
    f = SetFunction(2, (F(0), F(big - 1), F(big - 2), F(big)))
    assert f.table.dtype == "int64"
    wf = WeightedFamily(2, ((0b11, F(1, 3)),) * 400 + ((0b01, F(1, 2)), (0b10, F(2))) * 60)
    _same(gap_upper(f, wf), gap_upper_by_members(f, wf))
    _same(gap_lower(f, wf), gap_lower_by_members(f, wf))


@pytest.mark.parametrize(
    "values, weight",
    [((1e308, 1e308), F(1)), ((1e308, 0.0), F(5, 2))],  # a partial sum, a product
)
def test_float_sum_past_binary64_range_is_a_validation_error(values, weight):
    wf = WeightedFamily(2, ((0b01, weight), (0b10, weight)))
    with pytest.raises(ValidationError, match="overflows binary64"):
        wf.weighted_sum(values, exact=False)


def test_gaps_szasz_family_at_n16_are_fast():
    # 12870 members of one weight: one exact product for the whole sum
    f = generate_submodular(16, 1, "coverage")
    wf = preset_family("szasz", 16, k=8)
    with under_seconds(0.03, "gap_upper + gap_lower with szasz:8 at n=16"):
        gu, gl = gap_upper(f, wf), gap_lower(f, wf)
    assert (gu, gl) == (gap_upper_by_members(f, wf), gap_lower_by_members(f, wf))


# -------------------------------------------------------- certify


def test_certify_fixture_is_modular():
    b = modular_singletons()
    cert = certify_modular_partial(b.partial, b.family)
    assert cert.verdict == "modular"
    assert cert.checked_sum == 98
    assert cert.target == 98
    assert cert.missing == ()


def test_certify_mixed_signs_fixture():
    from fracsub.fixtures import modular_mixed_signs

    b = modular_mixed_signs()
    cert = certify_modular_partial(b.partial, b.family)
    assert cert.verdict == "modular"
    assert cert.checked_sum == F(18, 5)


def test_certify_detects_perturbation():
    b = modular_singletons()
    entries = tuple(
        (m, v + 1 if m == 0b1111 else v) for m, v in b.partial.entries
    )
    bad = PartialSetFunction(n=4, entries=entries)
    cert = certify_modular_partial(bad, b.family)
    assert cert.verdict == "not-modular"
    # refutation does not lean on the submodularity assumption
    cert2 = certify_modular_partial(bad, b.family, assume_submodular=False)
    assert cert2.verdict == "not-modular"


def test_certify_missing_values():
    b = modular_singletons()
    entries = tuple((m, v) for m, v in b.partial.entries if m != 0b0010)
    cert = certify_modular_partial(PartialSetFunction(n=4, entries=entries), b.family)
    assert cert.verdict == "insufficient-data"
    assert cert.missing == (0b0010,)
    assert cert.checked_sum is None


def test_certify_equality_without_submodularity_is_inconclusive():
    b = modular_singletons()
    cert = certify_modular_partial(b.partial, b.family, assume_submodular=False)
    assert cert.verdict == "insufficient-data"
    assert "submodularity" in cert.note


def test_certify_preconditions():
    b = modular_singletons()
    with pytest.raises(PreconditionError):
        certify_modular_partial(b.partial, fam(4, (0b0001, 1), (0b1110, 2)))
    with pytest.raises(PreconditionError):
        # {1,2} never separated
        certify_modular_partial(b.partial, fam(4, (0b0011, 1), (0b0100, 1), (0b1000, 1)))
    with pytest.raises(ValidationError):
        certify_modular_partial(b.partial, singleton_family(3))


def test_certify_float_tolerance():
    xs = (0.25, 1.5, 3.0)
    entries = tuple((1 << i, xs[i]) for i in range(3))
    entries += ((0b111, sum(xs) + 2.0**-40),)
    p = PartialSetFunction(n=3, entries=entries)
    assert certify_modular_partial(p, singleton_family(3)).verdict == "modular"
    assert (
        certify_modular_partial(p, singleton_family(3), tol=2.0**-50).verdict
        == "not-modular"
    )


# ---------------------------------------------- covering/packing equality


def test_equality_positive_covering_case():
    # modular, zero on the over-covered element: equality iff condition
    f = modular_from_singletons((F(0), F(5), F(7)))
    wf = fam(3, (0b001, 1), (0b001, 1), (0b010, 1), (0b100, 1))
    rep = equality_conditions_covering(f, wf)
    assert rep.branch == "covering"
    assert rep.special_elements == (1,)
    assert rep.gap == 0
    assert rep.equality and rep.condition_holds
    assert rep.modular.ok


def test_equality_fails_when_special_value_nonzero():
    f = modular_from_singletons((F(1), F(5), F(7)))
    wf = fam(3, (0b001, 1), (0b001, 1), (0b010, 1), (0b100, 1))
    rep = equality_conditions_covering(f, wf)
    assert rep.gap == 1
    assert not rep.equality
    assert rep.modular.ok and not rep.zero_on_special
    assert not rep.condition_holds


def test_equality_fails_for_nonmodular_function():
    f = SetFunction(3, tuple(F(min(bin(m).count("1"), 2)) for m in range(8)))
    wf = fam(3, (0b011, "1/2"), (0b011, "1/2"), (0b110, "1/2"), (0b101, "1/2"))
    rep = equality_conditions_covering(f, wf)
    assert not rep.modular.ok
    assert not rep.equality and not rep.condition_holds


def test_equality_packing_branch():
    f = modular_from_singletons((F(0), F(4)))
    wf = fam(2, (0b01, "1/2"), (0b10, 1))
    rep = equality_conditions_covering(f, wf)
    assert rep.branch == "packing"
    assert rep.special_elements == (1,)
    assert rep.equality and rep.condition_holds
    bad = modular_from_singletons((F(2), F(4)))
    rep = equality_conditions_covering(bad, wf)
    assert rep.gap == 1  # 4 - (1/2*(4-4) + 1*(4-1) ... ) computed exactly
    assert not rep.equality and not rep.condition_holds


def test_equality_refuses_nonmonotone_zero_gap():
    b = zero_gap_nonmonotone()
    with pytest.raises(PreconditionError) as exc:
        equality_conditions_covering(b.table, b.family)
    assert exc.value.witness is not None
    assert "refused" in exc.value.note
    assert "not modular" in exc.value.note


def test_equality_other_preconditions():
    f = modular_from_singletons((F(1), F(2)))
    with pytest.raises(PreconditionError):
        # coverage (2, 0): neither covering nor packing
        equality_conditions_covering(f, fam(2, (0b01, 2)))
    with pytest.raises(PreconditionError):
        # {1,2} joined by the only member: standing assumptions fail
        equality_conditions_covering(f, fam(2, (0b11, 2)))
    g = SetFunction(2, (F(1), F(2), F(2), F(3)))
    with pytest.raises(PreconditionError):
        equality_conditions_covering(g, singleton_family(2))


def test_equality_never_inconsistent_on_random_monotone_instances():
    rng = random.Random(246)
    for _ in range(100):
        n = rng.randrange(2, 6)
        kind = rng.choice(("coverage", "matroid-plus-modular"))
        f = generate_submodular(n, rng.randrange(10**6), kind)
        wf = (
            random_covering_family(n, rng)
            if rng.random() < 0.5
            else random_packing_family(n, rng)
        )
        try:
            rep = equality_conditions_covering(f, wf)
        except PreconditionError:
            continue  # random packings may fail the standing assumptions
        assert rep.equality == rep.condition_holds


# ------------------------------------------------------------- shearer


def test_shearer_triangle_cover():
    # three 2-subsets of [1:3] cover every element twice
    f = modular_from_singletons((F(2), F(3), F(5)))
    rep = shearer_check(f, (0b011, 0b110, 0b101))
    assert rep.k == 2
    assert rep.member_sum == 2 * (2 + 3 + 5)
    assert rep.scaled_total == 2 * 10
    assert rep.equality and rep.condition_holds
    assert rep.over_elements == ()


def test_shearer_rank_function_strict():
    f = SetFunction(3, tuple(F(min(bin(m).count("1"), 2)) for m in range(8)))
    rep = shearer_check(f, (0b011, 0b110, 0b101))
    assert rep.k == 2
    assert rep.member_sum == 6
    assert rep.scaled_total == 4
    assert not rep.equality and not rep.condition_holds


def test_shearer_k1_with_over_covered_elements():
    f = modular_from_singletons((F(0), F(0), F(9)))
    rep = shearer_check(f, (0b001, 0b011, 0b010, 0b100))
    assert rep.k == 1
    assert rep.over_elements == (1, 2)
    assert rep.equality and rep.condition_holds
    assert rep.member_sum == 9 and rep.scaled_total == 9
    lifted = modular_from_singletons((F(1), F(0), F(9)))
    rep = shearer_check(lifted, (0b001, 0b011, 0b010, 0b100))
    assert not rep.equality and not rep.condition_holds


def test_shearer_uncoverable_element_rejected():
    f = modular_from_singletons((F(1), F(1), F(1)))
    with pytest.raises(ValidationError):
        shearer_check(f, (0b001, 0b010))


def test_consistency_error_importable():
    # paired verdicts raise rather than disagree; nothing here may trip it
    assert issubclass(ConsistencyError, Exception)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_stability_rejects_non_finite_epsilon(bad):
    b = modular_singletons()
    with pytest.raises(ValidationError, match="epsilon must be finite"):
        stability_check(b.table, b.family, bad)
