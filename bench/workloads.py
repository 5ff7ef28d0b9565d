"""Seeded inputs and op lists for the three benchmark workloads.

Only the standard library is used and nothing is imported from
``fracsub``, so a change to the package (its generators, its table code)
cannot change what the benchmark feeds it: one seed gives byte-identical
input files on any commit, and the sha256 of every file is recorded.

A workload is a stream of rounds.  Round ``r`` of workload ``w`` under
seed ``s`` draws from ``random.Random(f"{w}:{s}:{r}")``, so rounds are
independent and can be generated lazily between timed rounds.  A round
is a fixed list of sessions; a session is one input (a table, a pmf, a
matroid, a matrix, ...) queried by the commands one user would run on
it.  Shapes (ground-set sizes, alphabets, matrix orders) are fixed per
session slot and only the values depend on the seed, so every seed does
the same amount of work up to the data-dependent parts (simplex pivot
counts, Fraction sizes).

Each op carries the facts that hold by construction (``expect``): exit
code, family flavor, and exact values the generator computed itself,
such as both gaps.  :mod:`check` compares the CLI's reports with them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("dense-tables", "derived-tables", "small-batch")


def fmt(q: Fraction) -> str:
    """The CLI's rational wire format: "p/q", bare integer when q == 1."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _elements(mask: int) -> list[int]:
    return [b + 1 for b in _bits(mask)]


class _Writer:
    """Writes one round's input files and remembers their sha256."""

    def __init__(self, outdir: Path, prefix: str):
        self.outdir = outdir
        self.prefix = prefix
        self.count = 0
        self.digests: dict[str, str] = {}

    def write(self, doc, suffix: str = ".json") -> str:
        if suffix == ".json":
            raw = json.dumps(doc, separators=(",", ":")).encode()
        else:
            raw = doc.encode()
        path = self.outdir / f"{self.prefix}-{self.count:02d}{suffix}"
        self.count += 1
        path.write_bytes(raw)
        rel = path.as_posix()
        self.digests[rel] = hashlib.sha256(raw).hexdigest()
        return rel


# ---------------------------------------------------------------- set functions


def coverage_values(rng: random.Random, n: int) -> list[Fraction]:
    """Weighted coverage f(S) = w(union of the items S covers), exact.

    Grounded, non-decreasing and submodular.  Item weights have small
    denominators so the rational path does real Fraction arithmetic.
    """
    universe = 2 * n + 2
    weights = [
        Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 4, 6))) for _ in range(universe)
    ]
    covers = [rng.getrandbits(universe) | (1 << rng.randrange(universe)) for _ in range(n)]
    union = [0] * (1 << n)
    values = [Fraction(0)] * (1 << n)
    cache = {0: Fraction(0)}
    for s in range(1, 1 << n):
        low = s & -s
        u = union[s ^ low] | covers[low.bit_length() - 1]
        union[s] = u
        v = cache.get(u)
        if v is None:
            v = cache[u] = sum((weights[b] for b in _bits(u)), Fraction(0))
        values[s] = v
    return values


def scaled_float_values(rng: random.Random, values: list[Fraction]) -> list[float]:
    """Coverage values times one random float: a binary64 table."""
    c = rng.uniform(0.5, 2.0)
    return [float(v) * c for v in values]


def setfn_doc(values) -> dict:
    n = len(values).bit_length() - 1
    if isinstance(values[0], Fraction):
        return {"n": n, "scalar": "rational", "values": [fmt(v) for v in values]}
    return {"n": n, "scalar": "float", "values": list(values)}


def exact(values) -> list[Fraction]:
    """Table entries as exact rationals (binary64 embeds exactly)."""
    return [v if isinstance(v, Fraction) else Fraction(v) for v in values]


def partition_blocks(rng: random.Random, n: int, k: int) -> list[list[int]]:
    """k random set partitions of [0, n) into 2..4 blocks, as mask lists.

    The singleton partition is appended when the k partitions leave some
    pair of elements unseparated, so the family meets the standing
    assumptions (no full-set member, every ordered pair separated).
    """
    parts_list = []
    for _ in range(k):
        parts = rng.randint(2, min(4, n))
        label = [rng.randrange(parts) for _ in range(n)]
        order = list(range(n))
        rng.shuffle(order)
        for p, e in enumerate(order[:parts]):
            label[e] = p
        parts_list.append(
            [sum(1 << e for e in range(n) if label[e] == p) for p in range(parts)]
        )
    separated = all(
        any(any((m >> i) & 1 and not (m >> j) & 1 for m in ms) for ms in parts_list)
        for i in range(n)
        for j in range(n)
        if i != j
    )
    if not separated:
        parts_list.append([1 << e for e in range(n)])
    return parts_list


def family_from_blocks(parts_list) -> list[tuple[int, Fraction]]:
    w = Fraction(1, len(parts_list))
    return [(m, w) for ms in parts_list for m in ms]


def family_doc(n: int, members) -> dict:
    return {
        "n": n,
        "members": [{"set": _elements(m), "weight": fmt(w)} for m, w in members],
    }


def sets_doc(n: int, masks) -> dict:
    return {"n": n, "members": [{"set": _elements(m)} for m in masks]}


def gaps_exact(values: list[Fraction], members) -> tuple[Fraction, Fraction]:
    """Both gaps of the table against the family, in exact arithmetic."""
    full = len(values) - 1
    top = values[full]
    gu = sum((w * values[m] for m, w in members), Fraction(0)) - top
    gl = top - sum((w * (top - values[full ^ m]) for m, w in members), Fraction(0))
    return gu, gl


def sigma_exact(n: int, members) -> Fraction:
    return min(
        sum((w for m, w in members if (m >> i) & 1 and not (m >> j) & 1), Fraction(0))
        for i in range(n)
        for j in range(n)
        if i != j
    )


def table_session(w: _Writer, rng: random.Random, n: int, scalar: str, commands) -> list[dict]:
    """One coverage table and one partition family, queried by `commands`."""
    values = coverage_values(rng, n)
    if scalar == "float":
        values = scaled_float_values(rng, values)
    ex = exact(values)
    blocks = partition_blocks(rng, n, rng.randint(2, 3))
    members = family_from_blocks(blocks)
    gu, gl = gaps_exact(ex, members)
    full = (1 << n) - 1
    f_path = w.write(setfn_doc(values))
    fam_path = w.write(family_doc(n, members))
    ops = []
    for cmd in commands:
        if cmd == "gaps":
            ops.append(_op(["gaps", f_path, fam_path], "gaps", scalar=scalar,
                           gap_upper=fmt(gu), gap_lower=fmt(gl)))
        elif cmd == "equality":
            ops.append(_op(["equality", f_path, fam_path], "equality", scalar=scalar,
                           gap=fmt(gu)))
        elif cmd == "stability":
            # epsilon = the upper gap, so the bound holds by the stability theorem
            eps = fmt(gu) if scalar == "rational" else repr(float(gu))
            defects = [ex[1 << i] + ex[full ^ (1 << i)] - ex[full] for i in range(n)]
            ops.append(_op(["stability", f_path, fam_path, "--epsilon", eps], "stability",
                           scalar=scalar, sigma=fmt(sigma_exact(n, members)),
                           defects=[fmt(d) for d in defects],
                           gap_upper=fmt(gu), gap_lower=fmt(gl)))
        elif cmd == "certify":
            entries = [{"set": _elements(m), "value": fmt(values[m])}
                       for m in sorted({m for m, _ in members})]
            entries.append({"set": _elements(full), "value": fmt(values[full])})
            p_path = w.write({"n": n, "entries": entries})
            ops.append(_op(["certify", p_path, fam_path], "certify",
                           code=0 if gu == 0 else 1,
                           verdict="modular" if gu == 0 else "not-modular",
                           checked_sum=fmt(gu + ex[full]), target=fmt(ex[full])))
        elif cmd == "shearer":
            masks = [m for ms in blocks for m in ms]
            k = len(blocks)
            s_path = w.write(sets_doc(n, masks))
            member_sum = sum((ex[m] for m in masks), Fraction(0))
            ops.append(_op(["shearer", f_path, s_path], "shearer", scalar=scalar, k=k,
                           member_sum=fmt(member_sum), scaled_total=fmt(k * ex[full])))
        elif cmd == "refuse-stability":
            # a covering (every element covered twice) is not a partition: exit 3
            cover = [(m, Fraction(1)) for ms in blocks[:2] for m in ms]
            c_path = w.write(family_doc(n, cover))
            ops.append(_op(["stability", f_path, c_path, "--epsilon", "1"], "refused", code=3))
        else:
            raise ValueError(cmd)
    return ops


def _op(argv, kind: str, code: int = 0, **expect) -> dict:
    return {"argv": argv, "kind": kind, "exit": code, "expect": expect}


# ---------------------------------------------------------------- derived inputs


def pmf_doc(rng: random.Random, alphabets) -> dict:
    raw = [rng.random() + 0.05 for _ in range(math.prod(alphabets))]
    total = math.fsum(raw)
    return {"alphabets": list(alphabets), "pmf": [x / total for x in raw]}


def pmf_session(w: _Writer, rng: random.Random, alphabets, commands) -> list[dict]:
    alphabets = list(alphabets)
    rng.shuffle(alphabets)
    n = len(alphabets)
    d_path = w.write(pmf_doc(rng, alphabets))
    ops = []
    for cmd in commands:
        if cmd == "family":
            members = family_from_blocks(partition_blocks(rng, n, 2))
            fam_path = w.write(family_doc(n, members))
            ops.append(_op(["mmi", d_path, fam_path], "mmi", mode="family", dist=d_path,
                           family=[[m, fmt(g)] for m, g in members]))
        else:
            ops.append(_op(["mmi", d_path, f"--{cmd}"], "mmi", mode=cmd, dist=d_path))
    return ops


def linear_free_matrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    """L @ U with unit diagonals: determinant 1, so every column set is independent."""
    low = [[Fraction(1) if i == j else (Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if j < i else Fraction(0))
            for j in range(n)] for i in range(n)]
    up = [[Fraction(1) if i == j else (Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if j > i else Fraction(0))
           for j in range(n)] for i in range(n)]
    return [[sum((low[i][k] * up[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)]


def forest_edges(rng: random.Random, n: int) -> tuple[int, list[list[int]]]:
    """n edges of a random spanning tree on n + 1 vertices (acyclic: free)."""
    order = list(range(1, n + 2))
    rng.shuffle(order)
    edges = [[order[i], order[rng.randrange(i)]] for i in range(1, n + 1)]
    rng.shuffle(edges)
    return n + 1, edges


def matroid_session(w: _Writer, rng: random.Random, spec: dict) -> list[dict]:
    """One matroid and one partition family, checked by `matroid`.

    The linear matrices (L U, determinant 1) and the forests are free,
    so their rank is |S|; a uniform matroid's rank is min(|S|, k).
    """
    n, kind = spec["n"], spec["kind"]
    k = spec.get("k", n)
    if kind == "linear":
        doc = {"kind": "linear", "matrix": [[fmt(x) for x in row] for row in linear_free_matrix(rng, n)]}
    elif kind == "graphic":
        vertices, edges = forest_edges(rng, n)
        doc = {"kind": "graphic", "vertices": vertices, "edges": edges}
    elif kind == "uniform":
        doc = {"kind": "uniform", "n": n, "k": k}
    else:
        doc = {"kind": "free", "n": n}
    members = family_from_blocks(partition_blocks(rng, n, 2))
    m_path = w.write(doc)
    fam_path = w.write(family_doc(n, members))
    lhs = sum((g * min(bin(m).count("1"), k) for m, g in members), Fraction(0))
    return [_op(["matroid", m_path, fam_path], "matroid",
                weighted_rank_sum=fmt(lhs), total_rank=k,
                equality=lhs == k, free_outside_loops=k == n)]


def pd_matrix(rng: random.Random, n: int, blocks=None) -> list[list[float]]:
    """Dense SPD matrix B B^T / n + I/2; with `blocks`, zero outside them.

    Off-diagonal entries are O(1/sqrt(n)) against a diagonal near 1.5, so
    a dense matrix is far from diagonal and a blocked one exactly
    block-diagonal: every verdict is decided well outside the float
    tolerance band.
    """
    b = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]
    block_of = [0] * n if blocks is None else [
        next(g for g, blk in enumerate(blocks) if i in blk) for i in range(n)
    ]
    k = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            if block_of[i] != block_of[j]:
                continue
            v = math.fsum(b[i][t] * b[j][t] for t in range(n)) / n
            if i == j:
                v += 0.5
            k[i][j] = k[j][i] = v
    return k


def det_session(w: _Writer, rng: random.Random, spec: dict) -> list[dict]:
    n = spec["n"]
    preset = spec.get("preset")
    blocks = spec.get("blocks")
    k = pd_matrix(rng, n, blocks)
    if spec.get("csv"):
        path = w.write("\n".join(",".join(repr(x) for x in row) for row in k) + "\n", ".csv")
    else:
        path = w.write({"n": n, "entries": k})
    argv = ["detineq", path]
    if preset is not None:
        if preset == "szasz-half":
            preset = f"szasz:{n // 2}"
        argv += ["--preset", preset]
    else:
        members = family_from_blocks(partition_blocks(rng, n, 2))
        argv.append(w.write(family_doc(n, members)))
    if blocks is None:
        groups = [[i + 1] for i in range(n)]
    else:
        groups = [sorted(i + 1 for i in blk) for blk in blocks]
    # dense matrices are strict against any separating family; blocked
    # ones meet the Fischer preset on the block boundary with equality
    equality = blocks is not None
    return [_op(argv, "detineq", matrix=k, equality=equality, merge_groups=groups)]


def normalize_session(w: _Writer, rng: random.Random, n: int) -> list[dict]:
    """A family with a full-set member and one unseparated pair."""
    blocks = partition_blocks(rng, n - 1, 2)
    # element n joins element 1 in every member: the pair (1, n) merges
    lifted = [[m | ((1 << (n - 1)) if m & 1 else 0) for m in ms] for ms in blocks]
    members = family_from_blocks(lifted)
    delta = Fraction(1, 3)
    members = [(m, g * (1 - delta)) for m, g in members] + [((1 << n) - 1, delta)]
    fam_path = w.write(family_doc(n, members))
    return [_op(["normalize", fam_path], "normalize", merged_n=n - 1)]


def partition_search_session(w: _Writer, rng: random.Random, n: int) -> list[dict]:
    blocks = partition_blocks(rng, n, 2)
    masks = [m for ms in blocks for m in ms]
    rng.shuffle(masks)
    s_path = w.write(sets_doc(n, masks))
    return [_op(["find-partition", s_path], "find-partition", n=n)]


# ---------------------------------------------------------------- rounds

# one rational coverage table at n = 11 against two float tables at n = 13,
# so that each scalar kind takes about half of the round's time on the
# seed code.  Larger tables (n = 12 and 14, ~0.4 s per op) would leave
# fewer than 100 ops in a run, too few for a 90th percentile.
_DENSE_SESSIONS = (("rational", 11), ("float", 13), ("float", 13))
_DENSE_COMMANDS = ("gaps", "equality", "stability")


def _dense_round(w, rng):
    ops = []
    for scalar, n in _DENSE_SESSIONS:
        ops += table_session(w, rng, n, scalar, _DENSE_COMMANDS)
    return ops


def _derived_round(w, rng):
    ops = []
    ops += pmf_session(w, rng, (6, 6, 6, 6, 6, 6), ("si", "max", "tc", "dtc", "family"))
    ops += pmf_session(w, rng, (2, 3, 4, 5, 6), ("si", "max", "dtc", "family"))
    ops += matroid_session(w, rng, {"kind": "linear", "n": 8})
    ops += matroid_session(w, rng, {"kind": "graphic", "n": 13})
    ops += det_session(w, rng, {"n": 14, "preset": "szasz-half"})
    ops += det_session(w, rng, {"n": 13, "preset": "szasz-half"})
    return ops


def _small_round(w, rng):
    ops = []
    ops += table_session(w, rng, 5, "rational",
                         ("gaps", "equality", "stability", "certify", "shearer", "refuse-stability"))
    ops += table_session(w, rng, 7, "float", ("gaps", "equality", "stability"))
    ops += table_session(w, rng, 8, "rational", ("gaps", "certify"))
    ops += table_session(w, rng, 3, "rational", ("gaps", "shearer"))
    ops += pmf_session(w, rng, (2, 2, 3), ("tc", "dtc", "si", "max", "family"))
    ops += pmf_session(w, rng, (2, 3, 2, 2), ("tc", "si", "family"))
    ops += matroid_session(w, rng, {"kind": "uniform", "n": 6, "k": 3})
    ops += matroid_session(w, rng, {"kind": "free", "n": 4})
    ops += matroid_session(w, rng, {"kind": "graphic", "n": 5})
    ops += matroid_session(w, rng, {"kind": "linear", "n": 4})
    ops += det_session(w, rng, {"n": 4, "preset": "hadamard"})
    ops += det_session(w, rng, {"n": 4, "preset": "fischer:1,2", "blocks": [{0, 1}, {2, 3}], "csv": True})
    ops += det_session(w, rng, {"n": 5})
    ops += normalize_session(w, rng, 6)
    ops += partition_search_session(w, rng, 6)
    ops += partition_search_session(w, rng, 8)
    ops.append(_op(["selftest"], "selftest"))
    return ops


_ROUNDS = {"dense-tables": _dense_round, "derived-tables": _derived_round, "small-batch": _small_round}


def build_round(workload: str, seed: int, index: int, outdir: Path) -> list[dict]:
    """Write round `index` of `workload` under `outdir` and return its ops.

    Each op's ``inputs`` maps the paths it names to their sha256.
    """
    rng = random.Random(f"{workload}:{seed}:{index}")
    w = _Writer(outdir, f"r{index:04d}")
    ops = _ROUNDS[workload](w, rng)
    for op in ops:
        op["inputs"] = {p: w.digests[p] for p in op["argv"] if p in w.digests}
    return ops
