"""JSON (and CSV) wire formats for every value the CLI exchanges.

Loaders take already-parsed JSON objects and raise ValidationError with
a field pointer (``members[3].weight: ...``) on malformed input, so the
CLI can map any bad file to one exit code without caring which loader
tripped.  Dumpers produce plain JSON-ready objects; rationals travel as
``"p/q"`` strings in both directions because floats cannot round-trip
them.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from typing import Any

import numpy as np

from .bitsets import MAX_GROUND, elements, mask_of
from .errors import ValidationError
from .families import WeightedFamily
from .gauss import PDMatrix
from .info import JointDistribution, ProductDistribution
from .matroid import (
    FreeMatroid,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    UniformMatroid,
)
from .rationals import format_rational, parse_rational
from .setfn import PartialSetFunction, SetFunction

__all__ = [
    "UnweightedFamily",
    "load_setfn",
    "dump_setfn",
    "load_partial",
    "load_family_document",
    "load_family",
    "dump_family",
    "load_distribution",
    "load_product",
    "load_matroid",
    "load_pd_matrix",
    "load_pd_matrix_csv",
    "to_jsonable",
    "canonical_dumps",
]


def _field(obj: Any, key: str, where: str) -> Any:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object")
    if key not in obj:
        raise ValidationError(f"{where}.{key}: missing")
    return obj[key]


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where}: expected an integer")
    return value


def _as_list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{where}: expected an array")
    return value


def _parse_set(value: Any, n: int, where: str) -> int:
    items = _as_list(value, where)
    for j, e in enumerate(items):
        _as_int(e, f"{where}[{j}]")
    try:
        return mask_of(items, n)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _parse_rational_value(value: Any, where: str) -> Fraction:
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None
    if isinstance(value, bool):
        raise ValidationError(f"{where}: booleans are not scalars")
    if isinstance(value, int):
        return Fraction(value)
    raise ValidationError(f"{where}: rational values must be \"p/q\" strings or integers")


def _parse_float_value(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: expected a number")
    return float(value)


def load_setfn(obj: Any) -> SetFunction:
    """Read {"n", "values", "scalar", "label"} into a dense table."""
    n = _as_int(_field(obj, "n", "setfn"), "setfn.n")
    kind = _field(obj, "scalar", "setfn")
    if kind not in ("rational", "float"):
        raise ValidationError('setfn.scalar: expected "rational" or "float"')
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise ValidationError("setfn.label: expected a string")
    raw = _as_list(_field(obj, "values", "setfn"), "setfn.values")
    if not 1 <= n <= MAX_GROUND or len(raw) != 1 << n:
        raise ValidationError(
            f"setfn.values: expected 2^n = {1 << n if 1 <= n <= MAX_GROUND else '?'} "
            f"entries for n={n}, got {len(raw)}"
        )
    if kind == "rational":
        values = tuple(
            _parse_rational_value(v, f"setfn.values[{i}]") for i, v in enumerate(raw)
        )
    else:
        values = tuple(
            _parse_float_value(v, f"setfn.values[{i}]") for i, v in enumerate(raw)
        )
    return SetFunction(n=n, values=values, label=label)


def dump_setfn(f: SetFunction) -> dict:
    if f.is_rational:
        values: list = [format_rational(v) for v in f.values]
        kind = "rational"
    else:
        values = [float(v) for v in f.values]
        kind = "float"
    return {"n": f.n, "values": values, "scalar": kind, "label": f.label}


def load_partial(obj: Any) -> PartialSetFunction:
    """Read {"n", "entries": [{"set", "value"}]}; scalar kind is inferred.

    Any string value makes the whole function rational; failing that,
    all-integer values stay exact and any fractional float makes it
    binary64.  Mixing strings with non-integer floats is rejected.
    """
    n = _as_int(_field(obj, "n", "partial"), "partial.n")
    raw = _as_list(_field(obj, "entries", "partial"), "partial.entries")
    pairs = []
    for i, item in enumerate(raw):
        where = f"partial.entries[{i}]"
        mask = _parse_set(_field(item, "set", where), n, f"{where}.set")
        pairs.append((mask, _field(item, "value", where)))
    texty = any(isinstance(v, str) for _, v in pairs)
    inty = all(isinstance(v, int) and not isinstance(v, bool) for _, v in pairs)
    if texty or inty:
        entries = tuple(
            (m, _parse_rational_value(v, f"partial.entries[{i}].value"))
            for i, (m, v) in enumerate(pairs)
        )
    else:
        entries = tuple(
            (m, _parse_float_value(v, f"partial.entries[{i}].value"))
            for i, (m, v) in enumerate(pairs)
        )
    return PartialSetFunction(n=n, entries=entries)


class UnweightedFamily(tuple):
    """Member masks without weights, as (n, masks); discovery-mode input."""

    __slots__ = ()

    def __new__(cls, n: int, masks: tuple[int, ...]):
        return super().__new__(cls, (n, masks))

    @property
    def n(self) -> int:
        return self[0]

    @property
    def masks(self) -> tuple[int, ...]:
        return self[1]


def load_family_document(obj: Any) -> WeightedFamily | UnweightedFamily:
    """Read {"n", "members"}; all-weightless members mean discovery mode."""
    n = _as_int(_field(obj, "n", "family"), "family.n")
    raw = _as_list(_field(obj, "members", "family"), "family.members")
    masks = []
    weights = []
    for i, item in enumerate(raw):
        where = f"family.members[{i}]"
        masks.append(_parse_set(_field(item, "set", where), n, f"{where}.set"))
        if isinstance(item, dict) and "weight" in item:
            w = item["weight"]
            if isinstance(w, float):
                raise ValidationError(
                    f"{where}.weight: weights must be exact; write \"p/q\""
                )
            weights.append(_parse_rational_value(w, f"{where}.weight"))
        else:
            weights.append(None)
    present = [w is not None for w in weights]
    if all(present):
        return WeightedFamily(n=n, members=tuple(zip(masks, weights)))
    if not any(present):
        return UnweightedFamily(n, tuple(masks))
    raise ValidationError(
        "family.members: either every member carries a weight or none does"
    )


def load_family(obj: Any) -> WeightedFamily:
    doc = load_family_document(obj)
    if isinstance(doc, UnweightedFamily):
        raise ValidationError("family.members: weights are required here")
    return doc


def dump_family(wf: WeightedFamily) -> dict:
    return to_jsonable(wf)


def load_distribution(obj: Any) -> JointDistribution:
    """Read {"alphabets", "pmf"} with the pmf flat in row-major order."""
    sizes = _as_list(_field(obj, "alphabets", "distribution"), "distribution.alphabets")
    sizes = tuple(
        _as_int(s, f"distribution.alphabets[{i}]") for i, s in enumerate(sizes)
    )
    raw = _as_list(_field(obj, "pmf", "distribution"), "distribution.pmf")
    if all(type(v) is float or type(v) is int for v in raw):
        flat = raw  # what json.loads gives; checked in one pass
    else:
        flat = [_parse_float_value(v, f"distribution.pmf[{i}]") for i, v in enumerate(raw)]
    total = 1
    for s in sizes:
        total *= s
    if not sizes or total != len(flat):
        raise ValidationError(
            f"distribution.pmf: expected {total} entries for alphabets {list(sizes)}, "
            f"got {len(flat)}"
        )
    pmf = np.array(flat, dtype=float).reshape(sizes)
    return JointDistribution(alphabet_sizes=sizes, pmf=pmf)


def load_product(obj: Any) -> ProductDistribution:
    raw = _as_list(_field(obj, "marginals", "product"), "product.marginals")
    margs = []
    for i, row in enumerate(raw):
        vec = _as_list(row, f"product.marginals[{i}]")
        margs.append(
            [_parse_float_value(v, f"product.marginals[{i}][{j}]") for j, v in enumerate(vec)]
        )
    return ProductDistribution(marginals=tuple(np.array(m, dtype=float) for m in margs))


def load_matroid(obj: Any) -> Matroid:
    """Read a matroid spec dispatched on its "kind" field."""
    kind = _field(obj, "kind", "matroid")
    if kind == "linear":
        raw = _as_list(_field(obj, "matrix", "matroid"), "matroid.matrix")
        rows = []
        for i, row in enumerate(raw):
            vec = _as_list(row, f"matroid.matrix[{i}]")
            rows.append(
                tuple(
                    _parse_rational_value(v, f"matroid.matrix[{i}][{j}]")
                    for j, v in enumerate(vec)
                )
            )
        return LinearMatroid(rows=tuple(rows))
    if kind == "graphic":
        vertices = _as_int(_field(obj, "vertices", "matroid"), "matroid.vertices")
        raw = _as_list(_field(obj, "edges", "matroid"), "matroid.edges")
        edges = []
        for i, pair in enumerate(raw):
            uv = _as_list(pair, f"matroid.edges[{i}]")
            if len(uv) != 2:
                raise ValidationError(f"matroid.edges[{i}]: expected [u, v]")
            edges.append(
                (
                    _as_int(uv[0], f"matroid.edges[{i}][0]"),
                    _as_int(uv[1], f"matroid.edges[{i}][1]"),
                )
            )
        return GraphicMatroid(vertices=vertices, edges=tuple(edges))
    if kind == "uniform":
        return UniformMatroid(
            n=_as_int(_field(obj, "n", "matroid"), "matroid.n"),
            k=_as_int(_field(obj, "k", "matroid"), "matroid.k"),
        )
    if kind == "free":
        return FreeMatroid(n=_as_int(_field(obj, "n", "matroid"), "matroid.n"))
    raise ValidationError(
        'matroid.kind: expected "linear", "graphic", "uniform" or "free"'
    )


def load_pd_matrix(obj: Any) -> PDMatrix:
    """Read {"n", "entries": [[floats]]}."""
    n = _as_int(_field(obj, "n", "matrix"), "matrix.n")
    raw = _as_list(_field(obj, "entries", "matrix"), "matrix.entries")
    if len(raw) != n:
        raise ValidationError(f"matrix.entries: expected {n} rows, got {len(raw)}")
    rows = []
    for i, row in enumerate(raw):
        vec = _as_list(row, f"matrix.entries[{i}]")
        if len(vec) != n:
            raise ValidationError(
                f"matrix.entries[{i}]: expected {n} columns, got {len(vec)}"
            )
        rows.append(
            [_parse_float_value(v, f"matrix.entries[{i}][{j}]") for j, v in enumerate(vec)]
        )
    return PDMatrix(entries=np.array(rows, dtype=float))


def load_pd_matrix_csv(text: str) -> PDMatrix:
    """Read a square matrix from comma-separated rows, one per line."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cells = []
        for col, cell in enumerate(line.split(","), start=1):
            try:
                cells.append(float(cell.strip()))
            except ValueError:
                raise ValidationError(
                    f"csv line {lineno}, column {col}: not a number: {cell.strip()!r}"
                ) from None
        rows.append(cells)
    if not rows:
        raise ValidationError("csv: no rows")
    width = len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValidationError(
                f"csv line {lineno}: expected {width} columns, got {len(row)}"
            )
    if len(rows) != width:
        raise ValidationError(f"csv: {len(rows)} rows but {width} columns")
    return PDMatrix(entries=np.array(rows, dtype=float))


def to_jsonable(value: Any) -> Any:
    """Recursively turn report values into JSON-ready plain objects.

    Fractions become "p/q" strings, numpy scalars plain numbers, a
    WeightedFamily its wire format and any other dataclass an object of
    its fields.  Fields with ``bitsets.MASKS`` metadata hold masks and
    come out as 1-indexed element lists; reports never carry raw masks.
    """
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (float, np.floating)):
        return float(value)  # np.float64 subclasses float; flatten both
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, WeightedFamily):
        members = [
            {"set": list(elements(m)), "weight": format_rational(w)} for m, w in value.members
        ]
        return {"n": value.n, "members": members}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {}
        for f in dataclasses.fields(value):
            v = getattr(value, f.name)
            out[f.name] = _element_lists(v) if f.metadata.get("masks") else to_jsonable(v)
        return out
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _element_lists(masks: Any) -> Any:
    """A mask, or nested tuples of masks, as 1-indexed element lists."""
    if masks is None:
        return None
    if isinstance(masks, (int, np.integer)):
        return list(elements(int(masks)))
    return [_element_lists(m) for m in masks]


def canonical_dumps(obj: Any) -> str:
    """Byte-stable rendering: sorted keys, two-space indent, newline."""
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"
