"""End-to-end CLI runs: exit codes, JSON reports, byte stability."""

import json
from fractions import Fraction

import pytest

from fracsub.bitsets import elements
from fracsub.cli import main
from fracsub.families import singleton_family
from fracsub.fixtures import modular_singletons, zero_gap_nonmonotone
from fracsub.jsonio import dump_family, dump_setfn

F = Fraction


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def dump_partial_doc(partial):
    return {
        "n": partial.n,
        "entries": [
            {"set": list(elements(m)), "value": str(v)} for m, v in partial.entries
        ],
    }


@pytest.fixture
def singleton_files(tmp_path):
    b = modular_singletons()
    return {
        "setfn": write(tmp_path, "f.json", dump_setfn(b.table)),
        "partial": write(tmp_path, "p.json", dump_partial_doc(b.partial)),
        "family": write(tmp_path, "g.json", dump_family(b.family)),
        "tmp": tmp_path,
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ selftest


def test_selftest_passes(capsys):
    code, out, err = run(capsys, "selftest")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "selftest"
    assert report["result"]["all_ok"] is True
    assert len(report["result"]["checks"]) == 12
    assert "all passed" in err


# ---------------------------------------------------------------- gaps


def test_gaps_report_and_byte_stability(capsys, singleton_files):
    code, out, err = run(capsys, "gaps", singleton_files["setfn"], singleton_files["family"])
    assert code == 0
    report = json.loads(out)
    res = report["result"]
    assert res["gap_upper"] == "0" and res["gap_lower"] == "0"
    assert res["duality_residual"] == "0"
    assert res["classification"]["flavor"] == "partition"
    assert res["bounds_hold"] == [True, True]
    assert report["inputs"]["setfn"]["sha256"]
    assert "partition" in err

    code2, out2, _ = run(
        capsys, "gaps", singleton_files["setfn"], singleton_files["family"]
    )
    assert code2 == 0 and out2 == out  # byte-for-byte reproducible


def test_gaps_bad_inputs(capsys, tmp_path):
    code, out, err = run(capsys, "gaps", str(tmp_path / "absent.json"), str(tmp_path / "absent.json"))
    assert code == 2
    assert out == ""
    assert "cannot read" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    fam = write(tmp_path, "g.json", dump_family(singleton_family(2)))
    code, _, err = run(capsys, "gaps", str(bad), fam)
    assert code == 2
    assert "not valid JSON" in err


def test_gaps_rejects_nan_table(capsys, tmp_path):
    # json.dumps writes the non-standard NaN token, which json.loads accepts
    bad = write(tmp_path, "nan.json", {"n": 2, "values": [0.0, float("nan"), 1.0, 1.0], "scalar": "float"})
    fam = write(tmp_path, "g.json", dump_family(singleton_family(2)))
    code, out, err = run(capsys, "gaps", bad, fam)
    assert code == 2
    assert out == ""
    assert "finite" in err


# ------------------------------------------------------------- certify


def test_certify_exit_codes(capsys, singleton_files, tmp_path):
    code, out, _ = run(
        capsys, "certify", singleton_files["partial"], singleton_files["family"]
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["verdict"] == "modular"
    assert res["checked_sum"] == "98"

    b = modular_singletons()
    doc = dump_partial_doc(b.partial)
    doc["entries"][-1]["value"] = "99"
    bad = write(tmp_path, "bad.json", doc)
    code, out, _ = run(capsys, "certify", bad, singleton_files["family"])
    assert code == 1
    assert json.loads(out)["result"]["verdict"] == "not-modular"

    short = {"n": 4, "entries": doc["entries"][:3]}
    incomplete = write(tmp_path, "short.json", short)
    code, out, _ = run(capsys, "certify", incomplete, singleton_files["family"])
    assert code == 2
    assert json.loads(out)["result"]["verdict"] == "insufficient-data"

    code, out, _ = run(
        capsys,
        "certify",
        singleton_files["partial"],
        singleton_files["family"],
        "--no-assume-submodular",
    )
    assert code == 2
    res = json.loads(out)["result"]
    assert res["verdict"] == "insufficient-data"
    assert res["assumed_submodular"] is False


# ----------------------------------------------------------- stability


def test_stability_exit_codes(capsys, tmp_path):
    f = write(
        tmp_path,
        "or.json",
        {"n": 2, "values": ["0", "1", "1", "1"], "scalar": "rational"},
    )
    g = write(tmp_path, "g.json", dump_family(singleton_family(2)))
    code, out, err = run(capsys, "stability", f, g, "--epsilon", "1")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["satisfied"] is True
    assert res["sigma"] == "1" and res["bound"] == "1"
    assert res["defects"] == ["1", "1"]

    code, out, err = run(capsys, "stability", f, g, "--epsilon", "0")
    assert code == 1
    assert json.loads(out)["result"]["epsilon_covers_gap"] is False
    assert "premise is unmet" in err


# ------------------------------------------------------------ equality


def test_equality_refusal_is_exit_3(capsys, tmp_path):
    b = zero_gap_nonmonotone()
    f = write(tmp_path, "f.json", dump_setfn(b.table))
    g = write(tmp_path, "g.json", dump_family(b.family))
    code, out, err = run(capsys, "equality", f, g)
    assert code == 3
    assert out == ""
    assert "precondition:" in err
    assert "note: refused" in err


def test_equality_positive_case(capsys, tmp_path):
    f = write(
        tmp_path,
        "f.json",
        {"n": 2, "values": ["0", "0", "3", "3"], "scalar": "rational"},
    )
    g = write(
        tmp_path,
        "g.json",
        {
            "n": 2,
            "members": [
                {"set": [1], "weight": "1"},
                {"set": [1], "weight": "1"},
                {"set": [2], "weight": "1"},
            ],
        },
    )
    code, out, _ = run(capsys, "equality", f, g)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["branch"] == "covering"
    assert res["equality"] is True and res["condition_holds"] is True
    assert res["special_elements"] == [1]


# ------------------------------------------------------------- shearer


def test_shearer_rejects_weighted_sets(capsys, singleton_files, tmp_path):
    code, _, err = run(
        capsys, "shearer", singleton_files["setfn"], singleton_files["family"]
    )
    assert code == 2
    assert "omit weights" in err


def test_shearer_happy_path(capsys, singleton_files, tmp_path):
    sets = write(
        tmp_path,
        "sets.json",
        {
            "n": 4,
            "members": [
                {"set": [1, 2]},
                {"set": [2, 3]},
                {"set": [3, 4]},
                {"set": [4, 1]},
            ],
        },
    )
    code, out, _ = run(capsys, "shearer", singleton_files["setfn"], sets)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["k"] == 2
    assert res["equality"] is True
    assert res["member_sum"] == "196"
    assert res["scaled_total"] == "196"


# ----------------------------------------------------------------- mmi


@pytest.fixture
def bits_file(tmp_path):
    return write(
        tmp_path,
        "bits.json",
        {"alphabets": [2, 2, 2], "pmf": [0.5, 0, 0, 0, 0, 0, 0, 0.5]},
    )


def test_mmi_modes(capsys, bits_file, tmp_path):
    code, out, _ = run(capsys, "mmi", bits_file, "--tc")
    assert code == 0
    assert json.loads(out)["result"]["value"] == 2.0

    code, out, _ = run(capsys, "mmi", bits_file, "--dtc")
    assert json.loads(out)["result"]["value"] == 1.0

    from fracsub.families import co_singleton_family

    fam = write(tmp_path, "cos.json", dump_family(co_singleton_family(3)))
    code, out, _ = run(capsys, "mmi", bits_file, fam)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["mode"] == "family"
    assert res["value"] == 0.5
    assert res["components"][0]["weight"] == "1/2"

    code, out, _ = run(capsys, "mmi", bits_file, "--si")
    res = json.loads(out)["result"]
    assert res["value"] == pytest.approx(1.0, abs=2.0**-30)

    code, out, _ = run(capsys, "mmi", bits_file, "--max")
    res = json.loads(out)["result"]
    assert res["value"] == pytest.approx(2.0, abs=2.0**-30)
    assert res["total_correlation"] == pytest.approx(2.0)


def test_mmi_rejects_nan_pmf(capsys, tmp_path):
    # json.loads reads the bare NaN token; the pmf check must refuse it
    path = tmp_path / "nan.json"
    path.write_text('{"alphabets": [2, 2], "pmf": [NaN, 0.5, 0.25, 0.25]}')
    for mode in ("--tc", "--si"):
        code, out, err = run(capsys, "mmi", str(path), mode)
        assert code == 2
        assert out == ""
        assert "non-finite" in err


def test_mmi_mode_conflicts(capsys, bits_file, tmp_path):
    code, _, err = run(capsys, "mmi", bits_file)
    assert code == 2
    assert "choose a mode" in err

    fam = write(tmp_path, "g.json", dump_family(singleton_family(3)))
    code, _, err = run(capsys, "mmi", bits_file, fam, "--tc")
    assert code == 2
    assert "not both" in err

    code, _, err = run(capsys, "mmi", bits_file, "--tc", "--si")
    assert code == 2


# ------------------------------------------------------------- matroid


def test_matroid_command(capsys, tmp_path):
    m = write(tmp_path, "m.json", {"kind": "uniform", "n": 3, "k": 2})
    g = write(tmp_path, "g.json", dump_family(singleton_family(3)))
    code, out, err = run(capsys, "matroid", m, g)
    assert code == 0  # descriptive command: inequality is not a failure
    res = json.loads(out)["result"]
    assert res["weighted_rank_sum"] == "3"
    assert res["total_rank"] == 2
    assert res["equality"] is False
    assert "strict" in err


# ------------------------------------------------------------- detineq


def test_detineq_json_and_preset(capsys, tmp_path):
    m = write(tmp_path, "k.json", {"n": 2, "entries": [[4.0, 0.0], [0.0, 9.0]]})
    code, out, _ = run(capsys, "detineq", m, "--preset", "hadamard")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["equality"] is True and res["diagonal_ok"] is True

    code, _, err = run(capsys, "detineq", m)
    assert code == 2
    assert "either a family file or --preset" in err

    code, _, err = run(capsys, "detineq", m, "--preset", "minkowski")
    assert code == 2


def test_detineq_csv(capsys, tmp_path):
    p = tmp_path / "k.csv"
    p.write_text("1.0, 0.5\n0.5, 1.0\n")
    code, out, _ = run(capsys, "detineq", str(p), "--preset", "hadamard")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["equality"] is False
    assert res["offdiag_max"] == 0.5

    p2 = tmp_path / "bad.csv"
    p2.write_text("1.0, x\n")
    code, _, err = run(capsys, "detineq", str(p2), "--preset", "hadamard")
    assert code == 2
    assert "column 2" in err


def test_detineq_fischer_preset(capsys, tmp_path):
    m = write(
        tmp_path,
        "k.json",
        {"n": 3, "entries": [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 2.0]]},
    )
    code, out, _ = run(capsys, "detineq", m, "--preset", "fischer:1,2")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["equality"] is True
    assert res["merge_groups"] == [[1, 2], [3]]


# ----------------------------------------------- normalize / find-partition


def test_normalize_command(capsys, tmp_path):
    g = write(
        tmp_path,
        "g.json",
        {
            "n": 3,
            "members": [
                {"set": [1, 2], "weight": "1/2"},
                {"set": [1, 2], "weight": "1/2"},
                {"set": [3], "weight": "1"},
                {"set": [2], "weight": "0"},
            ],
        },
    )
    code, out, err = run(capsys, "normalize", g)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["family"]["n"] == 2
    assert res["merge_map"] == {"1": 1, "2": 1, "3": 2}
    assert "merged from [1:3]" in err


def test_find_partition_command(capsys, tmp_path):
    tri = write(
        tmp_path,
        "tri.json",
        {"n": 3, "members": [{"set": [1, 2]}, {"set": [2, 3]}, {"set": [1, 3]}]},
    )
    code, out, _ = run(capsys, "find-partition", tri)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["found"] is True
    assert all(m["weight"] == "1/2" for m in res["family"]["members"])

    nope = write(tmp_path, "nope.json", {"n": 3, "members": [{"set": [1]}, {"set": [2]}]})
    code, out, _ = run(capsys, "find-partition", nope)
    assert code == 0
    assert json.loads(out)["result"]["found"] is False

    weighted = write(tmp_path, "w.json", dump_family(singleton_family(3)))
    code, _, err = run(capsys, "find-partition", weighted)
    assert code == 2
    assert "omit weights" in err


# ------------------------------------------------------------ tolerance


def test_tol_env_and_flag_precedence(capsys, tmp_path, monkeypatch):
    xs = [0.5, 0.25, 0.125]
    partial = write(
        tmp_path,
        "p.json",
        {
            "n": 3,
            "entries": [
                {"set": [1], "value": xs[0]},
                {"set": [2], "value": xs[1]},
                {"set": [3], "value": xs[2]},
                {"set": [1, 2, 3], "value": sum(xs) + 1e-6},
            ],
        },
    )
    g = write(tmp_path, "g.json", dump_family(singleton_family(3)))

    code, *_ = run(capsys, "certify", partial, g)
    assert code == 1  # default 2**-30 sees the 1e-6 slip

    monkeypatch.setenv("FRACSUB_TOL", "1e-3")
    code, *_ = run(capsys, "certify", partial, g)
    assert code == 0

    code, *_ = run(capsys, "certify", partial, g, "--tol", "1e-12")
    assert code == 1  # the flag outranks the environment

    monkeypatch.setenv("FRACSUB_TOL", "not-a-number")
    code, _, err = run(capsys, "certify", partial, g)
    assert code == 2
    assert "FRACSUB_TOL" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("fracsub ")


# ------------------------------------------------ non-finite numeric flags


@pytest.mark.parametrize(
    "entries, tol",
    [
        # on the identity --tol nan used to report "strict; block-diagonal: False"
        ([[1.0, 0.0], [0.0, 1.0]], "nan"),
        ([[1.0, 0.0], [0.0, 1.0]], "inf"),
        ([[1.0, 0.0], [0.0, 1.0]], "-inf"),
        ([[2.0, 1.0], [1.0, 2.0]], "inf"),  # used to be called an equality case
    ],
)
def test_detineq_rejects_non_finite_tol(capsys, tmp_path, entries, tol):
    m = write(tmp_path, "k.json", {"n": 2, "entries": entries})
    code, out, err = run(capsys, "detineq", m, "--preset", "hadamard", f"--tol={tol}")
    assert (code, out) == (2, "")
    assert "--tol must be finite" in err


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf", "NaN"])
def test_stability_rejects_non_finite_epsilon(capsys, singleton_files, epsilon):
    # --epsilon nan used to exit 1 and --epsilon inf to exit 0
    code, out, err = run(
        capsys, "stability", singleton_files["setfn"], singleton_files["family"],
        f"--epsilon={epsilon}",
    )
    assert (code, out) == (2, "")
    assert "--epsilon must be finite" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_env_tol_rejects_non_finite(capsys, singleton_files, monkeypatch, value):
    # FRACSUB_TOL=nan used to end in "internal disagreement" (exit 1)
    monkeypatch.setenv("FRACSUB_TOL", value)
    files = singleton_files
    code, out, err = run(capsys, "equality", files["setfn"], files["family"])
    assert (code, out) == (2, "")
    assert "FRACSUB_TOL must be finite" in err


def test_detineq_rejects_nan_matrix(capsys, tmp_path):
    # json.loads reads the bare NaN token; this used to exit 1
    path = tmp_path / "nan.json"
    path.write_text('{"n": 2, "entries": [[1, NaN], [NaN, 1]]}')
    code, out, err = run(capsys, "detineq", str(path), "--preset", "hadamard")
    assert (code, out) == (2, "")
    assert "finite" in err


def test_detineq_huge_diagonal_is_equality(capsys, tmp_path):
    # (a + a.T) / 2 overflowed to inf here and the run exited 1
    m = write(tmp_path, "k.json", {"n": 2, "entries": [[1e308, 0.0], [0.0, 1e308]]})
    code, out, err = run(capsys, "detineq", m, "--preset", "hadamard")
    assert code == 0
    assert json.loads(out)["result"]["equality"] is True
    assert ": equality;" in err


# ------------------------------------------ negative numbers as flag values


@pytest.mark.parametrize("value", ["-1e-9", "-.5e1", "-1", "-1/2"])
@pytest.mark.parametrize("joined", [False, True])
def test_negative_epsilon_reaches_its_check(capsys, singleton_files, value, joined):
    # a separate "-1e-9" or "-.5e1" used to stop in argparse with
    # "expected one argument"
    flag = [f"--epsilon={value}"] if joined else ["--epsilon", value]
    files = singleton_files
    code, out, err = run(capsys, "stability", files["setfn"], files["family"], *flag)
    assert (code, out) == (2, "")
    assert "epsilon must be nonnegative" in err


_NONNEGATIVE = "tolerance must be nonnegative"


@pytest.mark.parametrize(
    "tol, message, command",
    [
        pytest.param(
            "-inf", "--tol must be finite", "detineq", id="-inf---tol must be finite"
        ),
        pytest.param("-1e-3", _NONNEGATIVE, "detineq", id=f"-1e-3-{_NONNEGATIVE}"),
        # a rational table used to force any tol to 0 before the sign check
        ("-1e-3", _NONNEGATIVE, "stability"),
        ("-1", _NONNEGATIVE, "gaps"),
        ("-0.5", _NONNEGATIVE, "equality"),
    ],
)
@pytest.mark.parametrize("joined", [False, True])
def test_negative_tol_reaches_its_check(
    capsys, tmp_path, singleton_files, tol, message, command, joined
):
    if command == "detineq":
        m = write(tmp_path, "k.json", {"n": 2, "entries": [[2.0, 1.0], [1.0, 2.0]]})
        argv = ["detineq", m, "--preset", "hadamard"]
    else:
        argv = [command, singleton_files["setfn"], singleton_files["family"]]
        argv += ["--epsilon", "1"] if command == "stability" else []
    flag = [f"--tol={tol}"] if joined else ["--tol", tol]
    code, out, err = run(capsys, *argv, *flag)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("command", ["gaps", "certify"])
def test_float_sum_past_binary64_range_exits_2(capsys, tmp_path, command):
    # f({1}) + f({2}) = 2e308 used to escape as an uncaught OverflowError
    big = (1e308, 1e308, 1.5e308)
    family = write(tmp_path, "g.json", dump_family(singleton_family(2)))
    if command == "certify":
        entries = [{"set": s, "value": v} for s, v in zip(([1], [2], [1, 2]), big)]
        table = write(tmp_path, "p.json", {"n": 2, "entries": entries})
    else:
        doc = {"n": 2, "values": [0.0, *big], "scalar": "float"}
        table = write(tmp_path, "f.json", doc)
    code, out, err = run(capsys, command, table, family)
    assert (code, out) == (2, "")
    assert "weighted member sum overflows binary64" in err


def test_flag_followed_by_an_option_is_still_a_usage_error(capsys, singleton_files):
    files = singleton_files
    with pytest.raises(SystemExit) as exc:
        main(["stability", files["setfn"], files["family"], "--epsilon", "-h"])
    assert exc.value.code == 2
    assert "--epsilon: expected one argument" in capsys.readouterr().err


# ---------------------------------------------------- internal disagreement


def test_consistency_error_exits_4(capsys, tmp_path):
    # K = I + 1e-4 (J - I), n = 10: the log gap (4.5e-7) is above tol while
    # the off-diagonal maximum is below tol', so the two sides disagree.
    # This is a bug path, not a false verdict: it used to exit 1.
    n = 10
    entries = [[1.0 if i == j else 1e-4 for j in range(n)] for i in range(n)]
    m = write(tmp_path, "k.json", {"n": n, "entries": entries})
    code, out, err = run(capsys, "detineq", m, "--preset", "hadamard")
    assert (code, out) == (4, "")
    assert err.startswith("internal disagreement: ")
