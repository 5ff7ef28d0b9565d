"""Wire formats: loaders, dumpers, inference rules, error pointers."""

from fractions import Fraction

import numpy as np
import pytest

from fracsub.errors import ValidationError
from fracsub.families import WeightedFamily
from fracsub.jsonio import (
    UnweightedFamily,
    canonical_dumps,
    dump_family,
    dump_setfn,
    load_distribution,
    load_family,
    load_family_document,
    load_matroid,
    load_partial,
    load_pd_matrix,
    load_pd_matrix_csv,
    load_product,
    load_setfn,
    to_jsonable,
)
from fracsub.matroid import FreeMatroid, GraphicMatroid, LinearMatroid, UniformMatroid
from fracsub.setfn import SetFunction

F = Fraction


# -------------------------------------------------------------- setfn


def test_setfn_rational_roundtrip():
    f = SetFunction(2, (F(0), F(1, 3), F(-2), F(5)), label="demo")
    doc = dump_setfn(f)
    assert doc == {
        "n": 2,
        "values": ["0", "1/3", "-2", "5"],
        "scalar": "rational",
        "label": "demo",
    }
    assert load_setfn(doc) == f


def test_setfn_float_roundtrip():
    f = SetFunction(1, (0.0, 0.75))
    doc = dump_setfn(f)
    assert doc["scalar"] == "float"
    assert load_setfn(doc) == f


def test_setfn_rational_accepts_ints_and_decimal_strings():
    f = load_setfn({"n": 1, "values": [0, "0.3"], "scalar": "rational"})
    assert f.values == (F(0), F(3, 10))
    assert f.is_rational


def test_setfn_rejections():
    with pytest.raises(ValidationError, match="scalar"):
        load_setfn({"n": 1, "values": ["0", "1"], "scalar": "exact"})
    with pytest.raises(ValidationError, match="values"):
        load_setfn({"n": 2, "values": ["0"], "scalar": "rational"})
    with pytest.raises(ValidationError, match=r"values\[1\]"):
        load_setfn({"n": 1, "values": ["0", "x"], "scalar": "rational"})
    with pytest.raises(ValidationError, match=r"values\[1\]"):
        load_setfn({"n": 1, "values": [0.0, True], "scalar": "float"})
    with pytest.raises(ValidationError, match="label"):
        load_setfn({"n": 1, "values": [0, 0], "scalar": "rational", "label": 3})
    with pytest.raises(ValidationError, match="missing"):
        load_setfn({"n": 1, "scalar": "rational"})
    with pytest.raises(ValidationError):
        load_setfn({"n": 1, "values": [0, 0.5], "scalar": "rational"})


# ------------------------------------------------------------- partial


def test_partial_kind_inference():
    ints = load_partial({"n": 2, "entries": [{"set": [1], "value": 3}]})
    assert ints.is_rational and ints.entries == ((0b01, F(3)),)

    texty = load_partial(
        {"n": 2, "entries": [{"set": [1], "value": "1/2"}, {"set": [2], "value": 4}]}
    )
    assert texty.is_rational and texty.entries[0][1] == F(1, 2)

    floaty = load_partial(
        {"n": 2, "entries": [{"set": [1], "value": 0.5}, {"set": [2], "value": 1}]}
    )
    assert not floaty.is_rational
    assert floaty.entries == ((0b01, 0.5), (0b10, 1.0))


def test_partial_mixing_strings_and_floats_rejected():
    with pytest.raises(ValidationError):
        load_partial(
            {"n": 2, "entries": [{"set": [1], "value": "1/2"}, {"set": [2], "value": 0.5}]}
        )


def test_partial_set_errors_are_pointed():
    with pytest.raises(ValidationError, match=r"entries\[0\].set"):
        load_partial({"n": 2, "entries": [{"set": [3], "value": 1}]})
    with pytest.raises(ValidationError, match=r"entries\[1\].set\[0\]"):
        load_partial(
            {"n": 2, "entries": [{"set": [1], "value": 1}, {"set": ["2"], "value": 1}]}
        )
    with pytest.raises(ValidationError, match="listed twice"):
        load_partial({"n": 2, "entries": [{"set": [1, 1], "value": 1}]})


# -------------------------------------------------------------- family


def test_family_roundtrip():
    wf = WeightedFamily(3, ((0b011, F(1, 2)), (0b100, F(2))))
    doc = dump_family(wf)
    assert doc == {
        "n": 3,
        "members": [
            {"set": [1, 2], "weight": "1/2"},
            {"set": [3], "weight": "2"},
        ],
    }
    assert load_family(doc) == wf


def test_family_discovery_mode():
    doc = {"n": 3, "members": [{"set": [1, 2]}, {"set": [3]}]}
    got = load_family_document(doc)
    assert isinstance(got, UnweightedFamily)
    assert got.n == 3 and got.masks == (0b011, 0b100)
    with pytest.raises(ValidationError, match="weights are required"):
        load_family(doc)


def test_family_mixed_weights_rejected():
    with pytest.raises(ValidationError, match="every member"):
        load_family_document(
            {"n": 2, "members": [{"set": [1], "weight": "1"}, {"set": [2]}]}
        )


def test_family_float_weight_rejected():
    with pytest.raises(ValidationError, match='write "p/q"'):
        load_family({"n": 2, "members": [{"set": [1], "weight": 0.5}, {"set": [2], "weight": 1}]})


def test_family_integer_weights_allowed():
    wf = load_family({"n": 2, "members": [{"set": [1], "weight": 1}, {"set": [2], "weight": 2}]})
    assert wf.members == ((0b01, F(1)), (0b10, F(2)))


# ------------------------------------------------- distribution / product


def test_distribution_row_major_reshape():
    d = load_distribution({"alphabets": [2, 3], "pmf": [0.1, 0.2, 0.3, 0.15, 0.15, 0.1]})
    assert d.alphabet_sizes == (2, 3)
    assert d.pmf[0, 2] == pytest.approx(0.3)
    assert d.pmf[1, 0] == pytest.approx(0.15)


def test_distribution_rejections():
    with pytest.raises(ValidationError, match="pmf"):
        load_distribution({"alphabets": [2, 2], "pmf": [0.5, 0.5]})
    with pytest.raises(ValidationError, match="alphabets"):
        load_distribution({"alphabets": [], "pmf": []})
    with pytest.raises(ValidationError, match=r"pmf\[1\]"):
        load_distribution({"alphabets": [2], "pmf": [0.5, "x"]})
    with pytest.raises(ValidationError):
        load_distribution({"alphabets": [2], "pmf": [0.6, 0.6]})


@pytest.mark.parametrize("bad", [True, False, "0.5", None, [0.5]])
def test_distribution_bad_entry_names_its_index(bad):
    pmf = [0.25, 0.25, 0.25, 0.25]
    pmf[2] = bad
    with pytest.raises(ValidationError, match=r"^distribution\.pmf\[2\]: expected a number$"):
        load_distribution({"alphabets": [2, 2], "pmf": pmf})


def test_distribution_accepts_ints_and_floats_alike():
    d = load_distribution({"alphabets": [2, 2], "pmf": [1, 0, 0.0, 0]})
    assert d.pmf.dtype == np.float64
    assert d.pmf.tolist() == [[1.0, 0.0], [0.0, 0.0]]


def test_product_loader():
    q = load_product({"marginals": [[0.25, 0.75], [0.5, 0.5]]})
    assert q.n == 2
    assert float(q.marginals[0][1]) == 0.75
    with pytest.raises(ValidationError, match=r"marginals\[1\]\[0\]"):
        load_product({"marginals": [[1.0], ["a"]]})


# ------------------------------------------------------------- matroid


def test_matroid_kinds():
    lin = load_matroid({"kind": "linear", "matrix": [["1", "0", "1/2"], ["0", "1", "1"]]})
    assert isinstance(lin, LinearMatroid)
    assert lin.rows[0] == (F(1), F(0), F(1, 2))

    gra = load_matroid({"kind": "graphic", "vertices": 3, "edges": [[1, 2], [2, 3]]})
    assert isinstance(gra, GraphicMatroid)
    assert gra.edges == ((1, 2), (2, 3))

    uni = load_matroid({"kind": "uniform", "n": 4, "k": 2})
    assert isinstance(uni, UniformMatroid) and uni.k == 2

    fre = load_matroid({"kind": "free", "n": 3})
    assert isinstance(fre, FreeMatroid) and fre.n == 3


def test_matroid_rejections():
    with pytest.raises(ValidationError, match="kind"):
        load_matroid({"kind": "transversal"})
    with pytest.raises(ValidationError, match=r"matrix\[0\]\[1\]"):
        load_matroid({"kind": "linear", "matrix": [["1", 0.5]]})
    with pytest.raises(ValidationError, match=r"edges\[0\]"):
        load_matroid({"kind": "graphic", "vertices": 2, "edges": [[1]]})
    with pytest.raises(ValidationError, match="vertices"):
        load_matroid({"kind": "graphic", "edges": [[1, 2]]})


# -------------------------------------------------------------- matrix


def test_pd_matrix_json_loader():
    k = load_pd_matrix({"n": 2, "entries": [[1.0, 0.5], [0.5, 1.0]]})
    assert k.n == 2 and k.entries[0, 1] == 0.5
    with pytest.raises(ValidationError, match="rows"):
        load_pd_matrix({"n": 2, "entries": [[1.0, 0.0]]})
    with pytest.raises(ValidationError, match=r"entries\[1\]"):
        load_pd_matrix({"n": 2, "entries": [[1.0, 0.0], [0.0]]})


def test_pd_matrix_csv_loader():
    k = load_pd_matrix_csv("1.0, 0.5\n0.5, 1.0\n")
    assert k.n == 2
    assert k.entries[1, 0] == 0.5
    k1 = load_pd_matrix_csv("2.0\n\n")  # blank lines skipped
    assert k1.n == 1


def test_pd_matrix_csv_errors():
    with pytest.raises(ValidationError, match="line 2, column 2"):
        load_pd_matrix_csv("1.0, 0.0\n0.0, oops\n")
    with pytest.raises(ValidationError, match="line 2"):
        load_pd_matrix_csv("1.0, 0.0\n0.0\n")
    with pytest.raises(ValidationError, match="no rows"):
        load_pd_matrix_csv("   \n")
    with pytest.raises(ValidationError, match="2 rows but 3 columns"):
        load_pd_matrix_csv("1,0,0\n0,1,0\n")


# ----------------------------------------------------- canonical output


def test_to_jsonable_nesting():
    doc = to_jsonable(
        {
            "w": F(1, 3),
            "xs": (F(2), [np.float64(0.5), np.int32(7)]),
            "flag": True,
            "none": None,
        }
    )
    assert doc == {"w": "1/3", "xs": ["2", [0.5, 7]], "flag": True, "none": None}
    assert type(doc["xs"][1][0]) is float
    assert type(doc["xs"][1][1]) is int


def test_to_jsonable_rejects_unknown():
    with pytest.raises(TypeError):
        to_jsonable(object())


def test_canonical_dumps_is_byte_stable():
    a = canonical_dumps({"b": F(1, 2), "a": [1, 2]})
    b = canonical_dumps({"a": [1, 2], "b": F(1, 2)})
    assert a == b
    assert a.endswith("\n")
    assert a == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": "1/2"\n}\n'
