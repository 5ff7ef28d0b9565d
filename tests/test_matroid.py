"""Rank functions against first-principles oracles, then the equality check."""

import itertools
import random
from fractions import Fraction

import pytest

from _support import (
    free_outside_loops_by_subsets,
    random_partition_family,
    under_seconds,
)
from fracsub.bitsets import full_mask, iter_bits, subsets
from fracsub.errors import PreconditionError, ValidationError
from fracsub.families import WeightedFamily, singleton_family
from fracsub.gaps import gap_upper
from fracsub.matroid import (
    FreeMatroid,
    GraphicMatroid,
    LinearMatroid,
    UniformMatroid,
    loops,
    rank_equality_check,
    rank_setfn,
)
from fracsub.setfn import is_nondecreasing, is_submodular

F = Fraction


def fam(n, *members):
    return WeightedFamily(n, tuple((m, F(w)) for m, w in members))


# ------------------------------------------------ oracles for this file


def _det(mat):
    if len(mat) == 1:
        return mat[0][0]
    total = F(0)
    for j, cell in enumerate(mat[0]):
        if cell:
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            total += (-1) ** j * cell * _det(minor)
    return total


def _columns_independent(cols):
    k = len(cols)
    if k == 0:
        return True
    nrows = len(cols[0])
    if k > nrows:
        return False
    for pick in itertools.combinations(range(nrows), k):
        if _det([[cols[c][r] for c in range(k)] for r in pick]) != 0:
            return True
    return False


def brute_linear_rank(rows, mask):
    """Largest independent subset of the selected columns, by determinants."""
    cols = [tuple(row[c] for row in rows) for c in iter_bits(mask)]
    best = 0
    for r in range(len(cols), 0, -1):
        if any(
            _columns_independent(list(chosen))
            for chosen in itertools.combinations(cols, r)
        ):
            best = r
            break
    return best


def graph_components(vertices, edge_list):
    parent = list(range(vertices + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edge_list:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(1, vertices + 1)})


# ------------------------------------------------------------ linear


def test_linear_rank_matches_determinant_oracle():
    rng = random.Random(10)
    pool = [F(-2), F(-1), F(0), F(0), F(1), F(2), F(1, 2)]
    for _ in range(25):
        nrows = rng.randrange(1, 4)
        ncols = rng.randrange(1, 5)
        rows = tuple(
            tuple(rng.choice(pool) for _ in range(ncols)) for _ in range(nrows)
        )
        m = LinearMatroid(rows)
        for mask in subsets(ncols):
            assert m.rank(mask) == brute_linear_rank(rows, mask), (rows, mask)


def test_linear_rank_known_values():
    m = LinearMatroid(((F(1), F(0), F(1)), (F(0), F(1), F(1))))
    assert m.rank(0) == 0
    assert m.rank(0b111) == 2
    assert m.rank(0b101) == 2
    m2 = LinearMatroid(((F(1), F(2)),))
    assert m2.rank(0b11) == 1  # parallel columns


def test_linear_matroid_validation():
    with pytest.raises(ValidationError):
        LinearMatroid(())
    with pytest.raises(ValidationError):
        LinearMatroid(((F(1), F(2)), (F(1),)))
    with pytest.raises(ValidationError):
        LinearMatroid(((),))


# ----------------------------------------------------------- graphic


def test_graphic_triangle_and_loops():
    tri = GraphicMatroid(3, ((1, 2), (2, 3), (1, 3)))
    assert tri.rank(0b111) == 2
    assert tri.rank(0b011) == 2
    assert tri.rank(0b001) == 1
    looped = GraphicMatroid(2, ((1, 1), (1, 2)))
    assert looped.rank(0b01) == 0  # self-loop spans nothing
    assert looped.rank(0b11) == 1
    assert loops(looped) == (1,)


def test_graphic_rank_is_vertices_minus_components():
    rng = random.Random(11)
    for _ in range(30):
        nV = rng.randrange(2, 6)
        nE = rng.randrange(1, 7)
        edges = tuple(
            (rng.randrange(1, nV + 1), rng.randrange(1, nV + 1)) for _ in range(nE)
        )
        g = GraphicMatroid(nV, edges)
        for mask in subsets(nE):
            chosen = [edges[b] for b in iter_bits(mask)]
            assert g.rank(mask) == nV - graph_components(nV, chosen)


def test_graphic_validation():
    with pytest.raises(ValidationError):
        GraphicMatroid(0, ((1, 1),))
    with pytest.raises(ValidationError):
        GraphicMatroid(2, ())
    with pytest.raises(ValidationError):
        GraphicMatroid(2, ((1, 3),))


# ----------------------------------------------------- uniform / free


def test_uniform_and_free_ranks():
    u = UniformMatroid(4, 2)
    assert [u.rank(m) for m in (0, 0b1, 0b11, 0b111, 0b1111)] == [0, 1, 2, 2, 2]
    f = FreeMatroid(3)
    assert f.rank(0b101) == 2
    with pytest.raises(ValidationError):
        UniformMatroid(3, 4)
    with pytest.raises(ValidationError):
        UniformMatroid(0, 0)
    with pytest.raises(ValidationError):
        FreeMatroid(0)


def test_uniform_zero_k_is_all_loops():
    assert loops(UniformMatroid(3, 0)) == (1, 2, 3)
    assert loops(FreeMatroid(4)) == ()


# ---------------------------------------------------- rank set functions


@pytest.mark.parametrize(
    "m",
    [
        UniformMatroid(5, 2),
        FreeMatroid(4),
        GraphicMatroid(4, ((1, 2), (2, 3), (3, 4), (4, 1), (1, 3))),
        LinearMatroid(
            (
                (F(1), F(0), F(1), F(0)),
                (F(0), F(1), F(1), F(0)),
            )
        ),
    ],
    ids=["uniform", "free", "graphic", "linear"],
)
def test_rank_setfn_axioms(m):
    f = rank_setfn(m)
    assert f.is_rational and f.is_grounded
    assert is_submodular(f)
    assert is_nondecreasing(f)
    full = full_mask(f.n)
    for s in subsets(f.n):
        for b in range(f.n):
            if not (s >> b) & 1:
                inc = f.value(s | (1 << b)) - f.value(s)
                assert inc in (0, 1), (s, b)
    assert f.value(full) == m.rank(full)


def test_rank_setfn_size_cap():
    with pytest.raises(ValidationError):
        rank_setfn(FreeMatroid(21))


# -------------------------------------------------- rank equality check


def test_rank_equality_free_matroid():
    rep = rank_equality_check(FreeMatroid(4), singleton_family(4))
    assert rep.equality and rep.free_outside_loops
    assert rep.weighted_rank_sum == 4 and rep.total_rank == 4
    assert rep.loop_elements == ()


def test_rank_equality_u23_gap_one():
    m = UniformMatroid(3, 2)
    rep = rank_equality_check(m, singleton_family(3))
    assert not rep.equality and not rep.free_outside_loops
    assert rep.weighted_rank_sum == 3 and rep.total_rank == 2
    assert gap_upper(rank_setfn(m), singleton_family(3)) == 1


def test_rank_equality_free_outside_loops():
    # identity columns plus a zero column: loop {3}, free elsewhere
    m = LinearMatroid(((F(1), F(0), F(0)), (F(0), F(1), F(0))))
    assert loops(m) == (3,)
    f = rank_setfn(m)
    loop_mask = 0b100
    for s in subsets(3):
        assert f.value(s) == (s & ~loop_mask).bit_count()
    rep = rank_equality_check(m, singleton_family(3))
    assert rep.equality and rep.free_outside_loops
    assert rep.loop_elements == (3,)


def test_rank_equality_random_agreement():
    rng = random.Random(2121)
    pool = [F(0), F(1), F(1), F(-1), F(2)]
    for _ in range(40):
        n = rng.randrange(2, 6)
        if rng.random() < 0.5:
            m = UniformMatroid(n, rng.randrange(0, n + 1))
        else:
            nrows = rng.randrange(1, 4)
            m = LinearMatroid(
                tuple(
                    tuple(rng.choice(pool) for _ in range(n))
                    for _ in range(nrows)
                )
            )
        wf = random_partition_family(n, rng)
        rep = rank_equality_check(m, wf)  # ConsistencyError would fail here
        assert rep.equality == rep.free_outside_loops


def test_rank_equality_preconditions():
    m = FreeMatroid(3)
    with pytest.raises(ValidationError):
        rank_equality_check(m, singleton_family(4))
    with pytest.raises(PreconditionError):
        rank_equality_check(m, fam(3, (0b001, 1), (0b110, 2)))
    # parallel columns never separated by the family: refused, because
    # the weighted sum would reach equality without structural freeness
    par = LinearMatroid(((F(1), F(1), F(0)), (F(0), F(0), F(1))))
    with pytest.raises(PreconditionError):
        rank_equality_check(par, fam(3, (0b011, 1), (0b100, 1)))


def _random_matroids(rng):
    """Linear (zero and parallel columns), graphic (self-loops and
    parallel edges) and uniform matroids on 2..8 elements."""
    for _ in range(60):
        n = rng.randrange(2, 9)
        kind = rng.randrange(3)
        if kind == 0:
            nrows = rng.randrange(1, 5)
            cols = []
            for _ in range(n):
                r = rng.random()
                if r < 0.15:
                    cols.append((F(0),) * nrows)
                elif r < 0.3 and cols:
                    base = rng.choice(cols)
                    scale = F(rng.choice([-2, -1, 1, 3]), rng.randrange(1, 4))
                    cols.append(tuple(scale * a for a in base))
                else:
                    cols.append(
                        tuple(F(rng.randint(-2, 2), rng.randrange(1, 3)) for _ in range(nrows))
                    )
            yield LinearMatroid(tuple(zip(*cols)))
        elif kind == 1:
            v = rng.randrange(1, 7)
            edges = []
            for _ in range(n):
                if rng.random() < 0.2:
                    u = rng.randrange(1, v + 1)
                    edges.append((u, u))
                elif rng.random() < 0.2 and edges:
                    edges.append(rng.choice(edges))
                else:
                    edges.append((rng.randrange(1, v + 1), rng.randrange(1, v + 1)))
            yield GraphicMatroid(v, tuple(edges))
        else:
            yield UniformMatroid(n, rng.randrange(0, n + 1))


def test_rank_equality_freeness_matches_subset_oracle():
    rng = random.Random(3113)
    verdicts = set()
    for m in _random_matroids(rng):
        rep = rank_equality_check(m, singleton_family(m.n))
        assert rep.free_outside_loops == free_outside_loops_by_subsets(m), m
        assert rep.equality == rep.free_outside_loops
        wf = random_partition_family(m.n, rng)
        assert rank_equality_check(m, wf).free_outside_loops == rep.free_outside_loops
        verdicts.add(rep.free_outside_loops)
    assert verdicts == {True, False}


def test_rank_equality_free_linear_n12_in_time():
    # one rank of E minus loops, not 2^12 Fraction eliminations
    n = 12
    rows = tuple(
        tuple(F(1) if i == j else F(j - i, 3) if j > i else F(0) for j in range(n))
        for i in range(n)
    )
    m = LinearMatroid(rows)
    with under_seconds(1.0, "rank equality of a free linear matroid at n=12"):
        rep = rank_equality_check(m, singleton_family(n))
    assert rep.equality and rep.free_outside_loops and rep.total_rank == n
