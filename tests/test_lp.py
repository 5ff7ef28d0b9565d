"""Exact simplex: hand-checked programs, then the vertex-enumeration oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _support import (
    brute_force_lp_max,
    partition_lp,
    proper_nonempty_subsets,
    random_pmf,
    simplex_by_fractions,
)
from fracsub.bitsets import full_mask
from fracsub.errors import PreconditionError, ValidationError
from fracsub.info import entropy_setfn
from fracsub.lp import (
    RELATIONS,
    Constraint,
    LPOutcome,
    RationalLP,
    maximize_partition_weighted_sum,
    partition_polytope,
    residuals,
    solve,
    verify,
)

F = Fraction


def lp(objective, rows):
    return RationalLP(
        tuple(F(c) for c in objective),
        tuple(Constraint(tuple(F(a) for a in co), rel, F(b)) for co, rel, b in rows),
    )


def test_constraint_validation():
    with pytest.raises(ValidationError):
        Constraint((F(1),), "<", F(0))
    with pytest.raises(ValidationError):
        Constraint((True,), "=", F(0))
    with pytest.raises(ValidationError):
        RationalLP((F(1), F(2)), (Constraint((F(1),), "=", F(1)),))


def test_float_coefficients_embed_exactly():
    prog = lp([0.1], [((1,), "<=", 1)])
    assert prog.objective[0] == Fraction(0.1)
    assert prog.objective[0] != Fraction(1, 10)


def test_pure_inequality_program():
    # max x + y,  x + 2y <= 4,  3x + y <= 6  ->  vertex (8/5, 6/5), value 14/5
    out = solve(lp([1, 1], [((1, 2), "<=", 4), ((3, 1), "<=", 6)]))
    assert out.status == "optimal"
    assert out.solution == (F(8, 5), F(6, 5))
    assert out.value == F(14, 5)


def test_equality_program():
    # max 2x + 3y on the segment x + y = 1  ->  all weight on y
    out = solve(lp([2, 3], [((1, 1), "=", 1)]))
    assert out.status == "optimal"
    assert out.solution == (F(0), F(1))
    assert out.value == F(3)


def test_geq_rows_and_negative_rhs():
    # max -x subject to x >= 3, stated also as -x <= -3 to hit the
    # rhs-flip path; both forms must land on x = 3.
    for rows in ([((1,), ">=", 3)], [((-1,), "<=", -3)]):
        out = solve(lp([-1], rows))
        assert out.status == "optimal"
        assert out.solution == (F(3),)
        assert out.value == F(-3)


def test_mixed_relations():
    # max x + y,  x + y <= 3,  x >= 1,  y = 1  ->  (2, 1)
    out = solve(
        lp([1, 1], [((1, 1), "<=", 3), ((1, 0), ">=", 1), ((0, 1), "=", 1)])
    )
    assert out.status == "optimal"
    assert out.solution == (F(2), F(1))
    assert out.value == F(3)


def test_infeasible_detected():
    out = solve(lp([1], [((1,), "<=", 1), ((1,), ">=", 2)]))
    assert out.status == "infeasible"
    assert out.solution is None and out.value is None


def test_unbounded_detected():
    out = solve(lp([1, 0], [((0, 1), "<=", 1)]))
    assert out.status == "unbounded"


def test_redundant_equality_rows_survive_phase_one():
    # duplicated row leaves an artificial basic at zero; driving it out
    # must not corrupt the optimum
    rows = [((1, 1), "=", 1), ((1, 1), "=", 1), ((2, 2), "=", 2)]
    out = solve(lp([1, 2], rows))
    assert out.status == "optimal"
    assert out.value == F(2)
    assert verify(lp([1, 2], rows), out)


def test_degenerate_program_terminates():
    # classic cycling-prone instance (degenerate vertex at the origin);
    # Bland's rule must terminate at value 1/20
    prog = lp(
        [F(3, 4), -150, F(1, 50), -6],
        [
            ((F(1, 4), -60, F(-1, 25), 9), "<=", 0),
            ((F(1, 2), -90, F(-1, 50), 3), "<=", 0),
            ((0, 0, 1, 0), "<=", 1),
        ],
    )
    out = solve(prog)
    assert out.status == "optimal"
    assert out.value == F(1, 20)
    assert verify(prog, out)


def test_zero_variable_weight_allowed():
    out = solve(lp([0, 1], [((1, 0), "<=", 5), ((0, 1), "<=", 2)]))
    assert out.value == F(2)


def test_verify_rejects_tampering():
    prog = lp([1, 1], [((1, 2), "<=", 4), ((3, 1), "<=", 6)])
    out = solve(prog)
    assert verify(prog, out)
    assert not verify(prog, LPOutcome("optimal", out.solution, out.value + 1))
    assert not verify(prog, LPOutcome("optimal", (F(5), F(0)), F(5)))
    assert not verify(prog, LPOutcome("optimal", (F(-1), F(0)), F(-1)))
    assert not verify(prog, LPOutcome("infeasible"))


def test_residuals_exact():
    prog = lp([1, 1], [((1, 2), "<=", 4), ((3, 1), "<=", 6)])
    out = solve(prog)
    assert residuals(prog, out.solution) == [F(0), F(0)]
    assert residuals(prog, (F(1), F(1))) == [F(-1), F(-2)]


def test_solver_is_deterministic():
    masks = proper_nonempty_subsets(4)
    costs = [F(k * k, 7) for k in range(len(masks))]
    prog = partition_lp(4, masks, costs)
    first = solve(prog)
    for _ in range(3):
        again = solve(prog)
        assert again.solution == first.solution
        assert again.value == first.value


@pytest.mark.parametrize("n", [2, 3])
def test_exhaustive_small_partition_polytopes(n):
    # every nonempty family of proper nonempty subsets, fixed costs
    rng = random.Random(2024)
    pool = proper_nonempty_subsets(n)
    costs_all = {m: F(rng.randrange(-40, 40), rng.randrange(1, 9)) for m in pool}
    for pick in range(1, 1 << len(pool)):
        masks = [pool[i] for i in range(len(pool)) if (pick >> i) & 1]
        costs = [costs_all[m] for m in masks]
        prog = partition_lp(n, masks, costs)
        status, value = brute_force_lp_max(prog)
        out = solve(prog)
        assert out.status == status
        if status == "optimal":
            assert out.value == value
            assert verify(prog, out)


def test_random_partition_polytopes_match_oracle():
    rng = random.Random(77)
    for _ in range(120):
        n = rng.randrange(3, 6)
        pool = proper_nonempty_subsets(n)
        masks = rng.sample(pool, rng.randrange(2, min(7, len(pool)) + 1))
        costs = [F(rng.randrange(-30, 30), rng.randrange(1, 12)) for _ in masks]
        prog = partition_lp(n, masks, costs)
        status, value = brute_force_lp_max(prog)
        out = solve(prog)
        assert out.status == status, (n, masks, costs)
        if status == "optimal":
            assert out.value == value, (n, masks, costs)
            assert verify(prog, out)


def test_partition_polytope_rows():
    rows = partition_polytope(3, [0b011, 0b100, 0b110])
    assert len(rows) == 3
    assert all(r.relation == "=" and r.rhs == 1 for r in rows)
    assert rows[0].coeffs == (F(1), F(0), F(0))
    assert rows[2].coeffs == (F(0), F(1), F(1))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, full_mask(n)), max_size=8))
))
def test_partition_polytope_matches_hand_built_rows(case):
    n, masks = case
    assert partition_polytope(n, masks) == partition_lp(n, masks, [0] * len(masks)).rows


def test_maximize_partition_weighted_sum():
    masks = [0b001, 0b010, 0b100, 0b011, 0b110]
    wf, value = maximize_partition_weighted_sum(3, masks, [1, 1, 1, 5, 5])
    assert value == 6.0
    got = dict(wf.members)
    # {1,2} and {2,3} cannot both carry weight 1; the optimum splits
    assert sum(got.values()) >= 1
    cover = [Fraction(0)] * 3
    for m, g in got.items():
        for i in range(3):
            if (m >> i) & 1:
                cover[i] += g
    assert cover == [F(1), F(1), F(1)]


def test_maximize_partition_rejects_bad_members():
    with pytest.raises(ValidationError):
        maximize_partition_weighted_sum(3, [0b000, 0b001], [1, 1])
    with pytest.raises(ValidationError):
        maximize_partition_weighted_sum(3, [0b111], [1])
    with pytest.raises(ValidationError):
        maximize_partition_weighted_sum(3, [0b001], [1, 2])


def test_maximize_partition_infeasible():
    # element 3 is never covered
    with pytest.raises(PreconditionError):
        maximize_partition_weighted_sum(3, [0b001, 0b010], [1, 1])


# ------------------------------------- integer rows vs the Fraction tableau


def same_outcome(a: LPOutcome, b: LPOutcome) -> bool:
    """Same status, vertex and value, every number a Fraction."""
    numbers = (b.solution or ()) + ((b.value,) if b.value is not None else ())
    return (a.status, a.solution, a.value) == (b.status, b.solution, b.value) and all(
        type(x) is Fraction for x in numbers
    )


_coef = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
    st.floats(-4, 4, allow_nan=False, allow_infinity=False),
)


@st.composite
def random_lps(draw):
    nvars = draw(st.integers(1, 5))
    coeffs = st.lists(_coef, min_size=nvars, max_size=nvars)
    rows = [
        Constraint(tuple(c), rel, b)
        for c, rel, b in draw(
            st.lists(st.tuples(coeffs, st.sampled_from(RELATIONS), _coef), max_size=5)
        )
    ]
    # redundant equality rows, negative multiples included: artificials
    # that phase 1 leaves basic, driven out on negative pivots or dropped
    if rows:
        for k, f in draw(
            st.lists(
                st.tuples(st.integers(0, 4), st.sampled_from([F(-2), F(-1), F(1, 3), F(2)])),
                max_size=2,
            )
        ):
            base = rows[k % len(rows)]
            rows.append(Constraint(tuple(a * f for a in base.coeffs), "=", base.rhs * f))
    order = draw(st.permutations(range(len(rows))))
    return RationalLP(tuple(draw(coeffs)), tuple(rows[i] for i in order))


@settings(max_examples=200, deadline=None)
@given(random_lps())
def test_simplex_matches_fraction_tableau_oracle(prog):
    # same pivots as the Fraction tableau, so the same vertex, not just the value
    assert same_outcome(simplex_by_fractions(prog), solve(prog))


def test_simplex_oracle_cases_cover_every_status():
    seen = set()
    rng = random.Random(31)
    for _ in range(300):
        nvars = rng.randrange(1, 4)
        rows = tuple(
            Constraint(
                tuple(F(rng.randint(-3, 3)) for _ in range(nvars)),
                rng.choice(RELATIONS),
                F(rng.randint(-2, 2)),
            )
            for _ in range(rng.randrange(0, 4))
        )
        prog = RationalLP(tuple(F(rng.randint(-2, 2)) for _ in range(nvars)), rows)
        out = solve(prog)
        assert same_outcome(simplex_by_fractions(prog), out)
        seen.add(out.status)
    assert seen == {"optimal", "unbounded", "infeasible"}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_partition_lps_with_entropy_costs_match_oracle(n):
    # the shared-information LP: binary64 conditional entropies as costs
    rng = random.Random(600 + n)
    for _ in range(2 if n == 6 else 4):
        e = entropy_setfn(random_pmf([rng.randrange(2, 4) for _ in range(n)], rng))
        full = full_mask(n)
        masks = proper_nonempty_subsets(n)
        for costs in (
            [e.value(full) - e.value(full ^ m) for m in masks],
            [e.value(m) for m in masks],
        ):
            prog = partition_lp(n, masks, costs)
            assert same_outcome(simplex_by_fractions(prog), solve(prog))


def test_degenerate_partition_lps_match_oracle():
    # all-ones (find-partition) and small-integer costs leave many optimal
    # vertices, so only the Fraction tableau's pivot path lands on its vertex
    rng = random.Random(4242)
    for _ in range(600):
        n = rng.randrange(2, 6)
        pool = proper_nonempty_subsets(n)
        masks = [rng.choice(pool) for _ in range(rng.randrange(2, 14))]
        if rng.random() < 0.25:
            costs = [1] * len(masks)
        else:
            costs = [rng.randint(0, 2) for _ in masks]
        prog = partition_lp(n, masks, costs)
        assert same_outcome(simplex_by_fractions(prog), solve(prog)), (n, masks, costs)
