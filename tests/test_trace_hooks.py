"""The benchmark tracer's hooks still reach the code they measure.

``bench/tracing.py`` wraps named functions and methods of every layer
and rebinds them wherever a ``fracsub`` module holds them.  A renamed
function, or a caller that captured a function object before the
rebinding, silently drops spans from a traced run; these checks turn
that into a test failure.
"""

import sys
from pathlib import Path

import fracsub.cli as cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "bench"))

import tracing  # noqa: E402

RUNS = (
    ["gaps", "inputs/setfn_modular4.json", "inputs/family_singletons4.json"],
    ["mmi", "inputs/pmf_3var.json", "--tc"],
)


def _resolves(layer: str, path: str) -> bool:
    obj = sys.modules[f"fracsub.{layer}"]
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return callable(obj)


def test_every_target_resolves():
    targets = [(layer, path) for layer, hooks in tracing.TARGETS.items() for path, _ in hooks]
    assert len(targets) > 50
    assert [t for t in targets if not _resolves(*t)] == []


def _outputs(capsys):
    outs = []
    for argv in RUNS:
        assert cli.main(list(argv)) == 0
        outs.append(capsys.readouterr().out)
    return outs


def test_traced_runs_record_spans_and_keep_stdout(capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    plain = _outputs(capsys)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _outputs(capsys)
    finally:
        tracer.uninstall()
    assert traced == plain
    names = {span[2] for span in tracer.spans}
    expected = {
        "main", "_Inputs.read", "load_setfn", "load_family", "gap_report",
        "load_distribution", "total_correlation", "canonical_dumps",
    }
    assert expected <= names
    per_op, _ = tracing.layer_metrics(tracer.spans, len(RUNS))
    assert per_op["jsonio.load_ms"] > 0
    assert per_op["gaps.calls"] > 0
    assert per_op["setfn.scans"] > 0
    assert per_op["cli.input_bytes"] > 0
    # uninstall restores every binding
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(cli.jsonio.load_setfn, "__wrapped__")
