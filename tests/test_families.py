import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fracsub import (
    WeightedFamily,
    co_singleton_family,
    find_fractional_partition,
    gap_upper,
    min_multiplicity,
    singleton_family,
)
from fracsub.bitsets import mask_of
from fracsub.errors import PreconditionError, ValidationError
from fracsub.fixtures import modular_mixed_signs, zero_gap_nonmonotone

from _support import (
    classify_by_bits,
    coverage_by_hand,
    min_multiplicity_by_loops,
    normalize_by_loops,
    partition_lp,
    signature_groups_by_tuples,
    random_covering_family,
    random_packing_family,
    random_partition_family,
    sigma_by_loops,
    simplex_by_fractions,
)


def fam(n, *pairs):
    return WeightedFamily(
        n=n, members=tuple((mask_of(s, n), Fraction(w)) for s, w in pairs)
    )


def test_weight_validation():
    with pytest.raises(ValidationError):
        fam(2, ((1,), -1))
    with pytest.raises(ValidationError):
        WeightedFamily(n=2, members=((1, 0.5),))
    with pytest.raises(ValidationError):
        WeightedFamily(n=2, members=((1, True),))
    f = WeightedFamily(n=2, members=((1, 2),))
    assert isinstance(f.members[0][1], Fraction)


def test_classification_flavors():
    assert fam(2, ((1,), 1), ((2,), 1)).classify().flavor == "partition"
    cov = fam(2, ((1,), 1), ((2,), 1), ((1, 2), "1/3")).classify()
    assert cov.flavor == "covering" and cov.over_covered == (1, 2)
    pack = fam(2, ((1,), "1/2"), ((2,), 1)).classify()
    assert pack.flavor == "packing" and pack.under_covered == (1,)
    nei = fam(2, ((1,), 2), ((2,), "1/2")).classify()
    assert nei.flavor == "none"
    assert nei.over_covered == (1,) and nei.under_covered == (2,)


def test_fixture_family_is_partition_with_unit_coverage():
    wf = modular_mixed_signs().family
    cls = wf.classify()
    assert cls.flavor == "partition"
    assert all(c == 1 for c in cls.coverage)
    assert wf.weight_total() == Fraction(11, 6)


def test_duplicate_members_accumulate_coverage():
    wf = zero_gap_nonmonotone().family
    cls = wf.classify()
    assert cls.flavor == "covering"
    assert cls.coverage == (Fraction(3, 2), Fraction(3, 2), Fraction(1))
    assert cls.over_covered == (1, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_random_builders_have_claimed_flavor(n, seed):
    rng = random.Random(seed)
    part = random_partition_family(n, rng)
    assert part.classify().flavor == "partition"
    assert coverage_by_hand(part) == list(part.classify().coverage)
    assert part.satisfies_standing_assumptions()
    cov = random_covering_family(n, rng)
    assert cov.classify().flavor == "covering"
    pack = random_packing_family(n, rng)
    assert pack.classify().flavor == "packing"


def test_singleton_and_co_singleton_families():
    s = singleton_family(3)
    assert s.classify().flavor == "partition"
    assert all(w == 1 for _, w in s.members)
    c = co_singleton_family(4)
    assert c.classify().flavor == "partition"
    assert all(w == Fraction(1, 3) for _, w in c.members)
    assert len(c.members) == 4
    with pytest.raises(ValidationError):
        co_singleton_family(1)


def test_dual_of_co_singletons_is_singletons():
    d = co_singleton_family(4).dual()
    assert sorted(d.members) == sorted(singleton_family(4).members)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_dual_is_an_involution_and_flips_flavor(n, seed):
    rng = random.Random(seed)
    wf = random_partition_family(n, rng)
    assert sorted(wf.dual().dual().members) == sorted(wf.members)
    assert wf.dual().classify().flavor == "partition"
    cov = random_covering_family(n, rng)
    if cov.weight_total() > 1:
        assert cov.dual().classify().flavor == "packing"
    pack = random_packing_family(n, rng)
    if pack.weight_total() > 1:
        assert pack.dual().classify().flavor == "covering"
        assert sorted(pack.dual().dual().members) == sorted(pack.members)


def test_dual_needs_weight_above_one():
    with pytest.raises(PreconditionError):
        fam(2, ((1, 2), 1)).dual()
    with pytest.raises(PreconditionError):
        fam(2, ((1,), 1), ((2,), 0)).dual()


def test_sigma_known_values():
    assert singleton_family(3).sigma() == 1
    assert co_singleton_family(4).sigma() == Fraction(1, 3)
    # element 2 never appears without 1: sigma = 0 is an error
    wf = fam(2, ((1, 2), "1/2"), ((1,), "1/2"))
    with pytest.raises(PreconditionError) as exc:
        wf.sigma()
    assert exc.value.witness == (2, 1)


def test_sigma_needs_two_elements():
    with pytest.raises(PreconditionError):
        fam(1, ((1,), 1)).sigma()


def test_standing_assumptions():
    assert singleton_family(2).satisfies_standing_assumptions()
    assert not fam(2, ((1, 2), 1)).satisfies_standing_assumptions()  # full member
    assert not fam(2, ((1,), 1), ((2,), 0)).satisfies_standing_assumptions()
    assert not WeightedFamily(n=2, members=()).satisfies_standing_assumptions()
    # 1 and 2 always co-occur
    assert not fam(3, ((1, 2), 1), ((3,), 1)).satisfies_standing_assumptions()


def test_normalize_drops_zero_weights():
    wf = fam(2, ((1,), 1), ((2,), 1), ((1, 2), 0))
    norm, mm = wf.normalize()
    assert sorted(norm.members) == sorted(singleton_family(2).members)
    assert mm == {1: 1, 2: 2}


def test_normalize_rescales_full_member_and_preserves_gap_ratio():
    from fracsub import generate_submodular

    delta = Fraction(1, 4)
    wf = WeightedFamily(
        n=3,
        members=(
            (0b001, 1 - delta),
            (0b010, 1 - delta),
            (0b100, 1 - delta),
            (0b111, delta),
        ),
    )
    assert wf.classify().flavor == "partition"
    norm, _ = wf.normalize()
    assert sorted(norm.members) == sorted(singleton_family(3).members)
    f = generate_submodular(3, seed=9, kind="coverage")
    assert gap_upper(f, norm) == gap_upper(f, wf) / (1 - delta)


def test_normalize_full_weight_at_least_one_is_an_error():
    with pytest.raises(PreconditionError):
        fam(2, ((1, 2), 1)).normalize()
    with pytest.raises(PreconditionError):
        fam(2, ((1, 2), "5/4"), ((1,), 1)).normalize()


def test_normalize_empty_after_cleanup_is_an_error():
    with pytest.raises(PreconditionError):
        fam(2, ((1,), 0)).normalize()


def test_normalize_merges_co_occurring_elements():
    wf = fam(4, ((1, 2), 1), ((3, 4), 1))
    norm, mm = wf.normalize()
    assert norm.n == 2
    assert mm == {1: 1, 2: 1, 3: 2, 4: 2}
    assert sorted(norm.members) == sorted(singleton_family(2).members)
    assert norm.satisfies_standing_assumptions()


def test_normalize_merge_handles_interleaved_classes():
    # {1,3} vs {2,4} co-occur pairwise across members
    wf = fam(4, ((1, 3), "1/2"), ((2, 4), "1/2"), ((1, 2, 3, 4), "1/2"))
    norm, mm = wf.normalize()
    assert norm.n == 2
    assert mm == {1: 1, 2: 2, 3: 1, 4: 2}
    assert norm.weight_total() == 2
    assert norm.classify().flavor == "partition"


def test_find_fractional_partition_triangle():
    n = 3
    masks = (0b011, 0b110, 0b101)
    wf = find_fractional_partition(masks, n)
    assert wf is not None
    assert wf.classify().flavor == "partition"
    assert all(w == Fraction(1, 2) for _, w in wf.members)


def test_find_fractional_partition_excludes_full_and_empty():
    wf = find_fractional_partition((0, 0b11, 0b01, 0b10), 2)
    assert wf is not None
    got = {m: w for m, w in wf.members}
    assert 0 not in got and 0b11 not in got
    assert got == {0b01: Fraction(1), 0b10: Fraction(1)}


def test_find_fractional_partition_none_when_uncoverable():
    assert find_fractional_partition((0b01,), 2) is None
    # the full set is not a candidate, so element 1 has no cover here
    assert find_fractional_partition((0b011, 0b010), 2) is None


def test_min_multiplicity():
    assert min_multiplicity((0b011, 0b110, 0b101), 3) == 2
    assert min_multiplicity((0b01, 0b01, 0b11), 2) == 1
    with pytest.raises(ValidationError):
        min_multiplicity((0b01,), 2)


# ------------------------------------------- kernels vs the per-bit loops


_weights = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(7, 12)]
    + [2]  # an int weight, coerced to Fraction(2)
)


@st.composite
def raw_families(draw, min_n=1, max_n=20):
    """Members with duplicates, mixed weights and masks up to max_n bits."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    member = st.tuples(st.integers(min_value=0, max_value=(1 << n) - 1), _weights)
    members = draw(st.lists(member, max_size=10))
    if members:
        members += draw(st.lists(st.sampled_from(members), max_size=4))
    return WeightedFamily(n=n, members=tuple(members))


@settings(max_examples=200, deadline=None)
@given(raw_families())
def test_classification_matches_per_bit_oracle(wf):
    cls = wf.classify()
    assert cls == classify_by_bits(wf)
    assert all(type(c) is Fraction for c in cls.coverage)


def test_classification_of_szasz_sized_family():
    # 3432 members of one weight: one count per element, one product each
    members = tuple(
        (mask_of(c, 14), Fraction(1, 1716)) for c in itertools.combinations(range(1, 15), 7)
    )
    wf = WeightedFamily(n=14, members=members + ((0b11, Fraction(1, 3)),))
    assert wf.classify() == classify_by_bits(wf)


@settings(max_examples=200, deadline=None)
@given(raw_families())
def test_normalize_matches_loop_oracle(wf):
    try:
        expected = normalize_by_loops(wf)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError, match=re.escape(str(exc))):
            wf.normalize()
        return
    assert wf.normalize() == expected
    positive = all(w != 0 for _, w in wf.members) and wf.members
    no_full = all(m != (1 << wf.n) - 1 for m, _ in wf.members)
    separated = wf.n == 1 or len(
        signature_groups_by_tuples(wf.n, [m for m, _ in wf.members])
    ) == wf.n
    assert wf.satisfies_standing_assumptions() == bool(positive and no_full and separated)


@settings(max_examples=150, deadline=None)
@given(raw_families(min_n=2, max_n=8))
@example(WeightedFamily(n=3, members=()))
@example(fam(3, ((1, 2), 1), ((3,), 1)))  # 1 and 2 never separated
@example(fam(3, ((1,), 0), ((2,), 1), ((3,), 1)))  # zero weight
@example(fam(3, ((1,), "1/2"), ((1,), "1/2"), ((2,), 1), ((3,), 1)))  # duplicate
@example(fam(4, ((1, 2), "1/3"), ((3,), "2/3"), ((4,), 5), ((1, 2, 3, 4), 1)))
def test_sigma_matches_loop_oracle(wf):
    best, pair = sigma_by_loops(wf)
    if best == 0:
        with pytest.raises(PreconditionError) as exc:
            wf.sigma()
        assert exc.value.witness == pair
        assert str(exc.value) == f"sigma = 0: no member separates {pair[0]} from {pair[1]}"
    else:
        got = wf.sigma()
        assert got == best and type(got) is Fraction


@pytest.mark.parametrize("n", range(2, 9))
def test_sigma_of_random_partitions_matches_loop_oracle(n):
    rng = random.Random(900 + n)
    for _ in range(5):
        wf = random_partition_family(n, rng)
        assert wf.sigma() == sigma_by_loops(wf)[0] > 0


def mask_lists(max_n):
    """(n, masks) with n <= max_n, duplicates, empty and full-set masks."""
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=10)
        )
    )


@settings(max_examples=100, deadline=None)
@given(mask_lists(8))
@example((3, []))
@example((3, [0b011, 0b011, 0b110]))
def test_min_multiplicity_matches_loop_oracle(case):
    n, masks = case
    try:
        expected = min_multiplicity_by_loops(masks, n)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=re.escape(str(exc))):
            min_multiplicity(masks, n)
        return
    assert min_multiplicity(masks, n) == expected


@settings(max_examples=100, deadline=None)
@given(mask_lists(5))
@example((2, [0, 0b11, 0b01, 0b10]))
@example((3, [0b011, 0b110, 0b101, 0b011]))
def test_find_fractional_partition_matches_fraction_simplex(case):
    n, masks = case
    full = (1 << n) - 1
    candidates = [m for m in masks if 0 < m < full]
    got = find_fractional_partition(masks, n)
    if not candidates:
        assert got is None
        return
    out = simplex_by_fractions(partition_lp(n, candidates, [Fraction(1)] * len(candidates)))
    if out.status != "optimal":
        assert got is None
        return
    kept = tuple((m, g) for m, g in zip(candidates, out.solution) if g > 0)
    assert got == WeightedFamily(n, kept)
