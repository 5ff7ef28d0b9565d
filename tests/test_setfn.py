import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracsub import (
    PartialSetFunction,
    SetFunction,
    generate_submodular,
    is_modular,
    is_nondecreasing,
    is_prefix_nondecreasing,
    is_submodular,
)
from fracsub.bitsets import iter_bits
from fracsub.errors import PreconditionError, ValidationError
from fracsub.fixtures import zero_gap_nonmonotone

from _support import (
    modular_by_loops,
    nondecreasing_by_loops,
    random_modular_table,
    submodular_by_definition,
    submodular_by_loops,
    under_seconds,
)

F = Fraction


def test_table_length_enforced():
    with pytest.raises(ValidationError):
        SetFunction(n=2, values=(0, 1, 2))


def test_mixed_scalar_kinds_rejected():
    with pytest.raises(ValidationError):
        SetFunction(n=1, values=(Fraction(0), 0.5))
    with pytest.raises(ValidationError):
        PartialSetFunction(n=2, entries=((1, Fraction(1)), (2, 0.5)))


def test_ints_become_exact_rationals():
    f = SetFunction(n=1, values=(0, 7))
    assert f.is_rational
    assert f.value(1) == Fraction(7)


def test_bool_values_rejected():
    with pytest.raises(ValidationError):
        SetFunction(n=1, values=(0, True))


def test_n_bounds():
    with pytest.raises(ValidationError):
        SetFunction(n=0, values=(0,))
    with pytest.raises(ValidationError):
        SetFunction(n=25, values=(0,) * (1 << 25))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_rejected(bad):
    with pytest.raises(ValidationError):
        SetFunction(2, (0.0, bad, 1.0, 1.0))
    with pytest.raises(ValidationError):
        PartialSetFunction(n=2, entries=((1, 0.0), (3, bad)))


def test_values_round_trip_through_the_table():
    vals = (F(0), F(1, 3), F(-5, 4), F(7, 6))
    f = SetFunction(2, vals)
    assert f.values == vals and f.denominator == 12
    assert all(type(v) is Fraction for v in f.values)
    g = SetFunction(2, (0.0, 0.1, -2.5, 1e300))
    assert g.values == (0.0, 0.1, -2.5, 1e300) and g.denominator is None
    assert all(type(g.value(m)) is float for m in range(4))


def test_huge_rationals_keep_exact_python_ints():
    big = F(10**30 + 1, 10**12 - 11)
    f = SetFunction(1, (F(0), big))
    assert f.table.dtype == object
    assert f.value(1) == big
    assert SetFunction(1, (F(0), F(1, 3))).table.dtype == np.int64
    # each value fits int64 but f({1}) + f({2}) does not
    g = SetFunction(2, (0, 2**62, 2**62, 2**62 + 2**61))
    assert g.table.dtype == object
    assert is_submodular(g) and is_nondecreasing(g)
    v = is_modular(g)
    assert not v and v.witness == 0b11


def test_partial_duplicate_subset_rejected():
    with pytest.raises(ValidationError):
        PartialSetFunction(n=2, entries=((1, 1), (1, 2)))


def test_conditional_matches_definition():
    f = SetFunction(n=3, values=tuple(Fraction(v) for v in (0, 1, 2, 2, 4, 4, 5, 5)))
    # f(S | T) = f(S + T) - f(T) on a couple of hand cases
    assert f.conditional(0b001, 0b110) == f.value(0b111) - f.value(0b110)
    assert f.conditional(0b011, 0b100) == f.value(0b111) - f.value(0b100)
    assert f.conditional(0, 0b111) == 0


def test_conditional_requires_grounded():
    f = SetFunction(n=1, values=(1, 2))
    with pytest.raises(PreconditionError):
        f.conditional(1, 0)


def test_modular_tables_pass_all_predicates():
    rng = random.Random(5)
    for _ in range(20):
        f = random_modular_table(4, rng)
        assert is_submodular(f)
        assert is_modular(f)


def test_is_modular_witness_is_first_failure():
    vals = [Fraction(0)] * 8
    vals[0b011] = Fraction(1)  # breaks additivity only on {1,2}
    f = SetFunction(n=3, values=tuple(vals))
    v = is_modular(f)
    assert not v and v.witness == 0b011


def test_is_submodular_witness_violates_definition():
    f = zero_gap_nonmonotone().table
    assert is_submodular(f)
    # flip one value to break submodularity and check the witness pair
    vals = list(f.values)
    vals[0b011] = Fraction(10**6)
    g = SetFunction(n=3, values=tuple(vals))
    v = is_submodular(g)
    assert not v
    s, t = v.witness
    assert g.value(s) + g.value(t) < g.value(s | t) + g.value(s & t)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=16, max_size=16),
)
def test_exchange_check_equals_definitional_check(n, raw):
    vals = tuple(Fraction(v) for v in raw[: 1 << n])
    f = SetFunction(n=n, values=vals)
    assert bool(is_submodular(f)) == submodular_by_definition(f)


def test_nondecreasing_and_prefix_disagree_on_fixture():
    f = zero_gap_nonmonotone().table
    assert is_prefix_nondecreasing(f)
    v = is_nondecreasing(f)
    assert not v
    s, t = v.witness
    assert s < t and f.value(t) < f.value(s)


def test_prefix_chain_ignores_empty_set():
    # drops below f(emptyset) immediately, but the prefixes only grow
    f = SetFunction(n=2, values=(Fraction(0), Fraction(-5), Fraction(7), Fraction(-5)))
    assert is_prefix_nondecreasing(f)
    assert not is_nondecreasing(f)


@pytest.mark.parametrize("kind", ["coverage", "entropy", "matroid-plus-modular"])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_generated_instances_are_grounded_submodular_monotone(kind, n):
    f = generate_submodular(n, seed=11, kind=kind)
    assert f.is_grounded
    assert is_submodular(f)
    assert is_nondecreasing(f)
    assert is_prefix_nondecreasing(f)
    if kind == "entropy":
        assert not f.is_rational
    else:
        assert f.is_rational
    if n <= 4:
        tol = 0.0 if f.is_rational else 2.0**-30
        assert submodular_by_definition(f, tol)


def test_generator_is_deterministic_and_seed_sensitive():
    a = generate_submodular(4, seed=3, kind="coverage")
    b = generate_submodular(4, seed=3, kind="coverage")
    c = generate_submodular(4, seed=4, kind="coverage")
    assert a.values == b.values
    assert a.values != c.values


def test_generator_rejects_bad_kind_and_entropy_limit():
    with pytest.raises(ValidationError):
        generate_submodular(3, seed=0, kind="nope")
    with pytest.raises(ValidationError):
        generate_submodular(13, seed=0, kind="entropy")


@st.composite
def scan_cases(draw):
    """A modular-plus-concave table with a few bumped cells, and a tol.

    The base is submodular (and often monotone or modular), so the
    bumps place a handful of violations at scattered subsets and the
    first one in table order is a real choice.
    """
    n = draw(st.integers(min_value=1, max_value=8))
    kind = draw(st.sampled_from(["int", "float", "huge"]))
    singles = draw(st.lists(st.integers(-3, 9), min_size=n, max_size=n))
    curve = draw(st.integers(0, 3))
    base = [
        sum(singles[i] for i in iter_bits(m)) + curve * c * (2 * n - c)
        for m in range(1 << n)
        for c in [m.bit_count()]
    ]
    bumps = draw(
        st.lists(st.tuples(st.integers(0, (1 << n) - 1), st.integers(-3, 3)), max_size=4)
    )
    if kind == "int":
        vals = [F(b) for b in base]
        for m, d in bumps:
            vals[m] += d
    elif kind == "float":
        # a scale of 0.1 makes the sums round, and bumps the size of a
        # tolerance put comparisons on its edge, so the expression order shows
        scale = draw(st.sampled_from([1.0, 0.1]))
        step = draw(st.sampled_from([1.0, 2e-3, 1e-3, 5e-4, 2.0**-30]))
        vals = [b * scale for b in base]
        for m, d in bumps:
            vals[m] += d * step
    else:
        # numerators far past int64, over unrelated ~10**12 denominators
        den = draw(st.integers(10**11, 10**12))
        vals = [F(b * 10**30, den) for b in base]
        for m, d in bumps:
            vals[m] += F(d * 10**29, draw(st.integers(10**11, 10**12)))
    tol = draw(st.sampled_from([None, 0.0, 1e-3]))
    f = SetFunction(n, tuple(vals))
    if kind == "huge" and any(vals):
        assert f.table.dtype == object
    return f, tol


def _python_ints(w):
    return w is None or type(w) is int or all(type(x) is int for x in w)


@settings(max_examples=400, deadline=None)
@given(scan_cases())
def test_scans_match_loop_oracles(case):
    f, tol = case
    for fast, oracle in (
        (is_submodular, submodular_by_loops),
        (is_nondecreasing, nondecreasing_by_loops),
        (is_modular, modular_by_loops),
    ):
        got = fast(f, tol)
        assert got == oracle(f, tol), fast.__name__
        assert _python_ints(got.witness)


def test_float_verdict_follows_scalar_expression_order():
    # exactly 1.5 + 0.2 = 1.2 + 0.501 - 1e-3; in binary64 the right side
    # rounds above the left, while 1.2 + (0.501 - 1e-3) would not
    f = SetFunction(2, (0.501, 1.5, 0.2, 1.2))
    assert 1.5 + 0.2 < 1.2 + 0.501 - 1e-3
    assert not 1.5 + 0.2 < 1.2 + (0.501 - 1e-3)
    v = is_submodular(f, 1e-3)
    assert not v and v.witness == (0b01, 0b10)
    assert v == submodular_by_loops(f, 1e-3)


def test_scans_finish_fast_at_n16():
    f = generate_submodular(16, seed=0, kind="coverage")
    with under_seconds(2.0, "three scans at n=16"):
        sub = is_submodular(f)
        mono = is_nondecreasing(f)
        mod = is_modular(f)
    assert (sub.ok, mono.ok, mod.ok) == (True, True, False)
