"""Golden CLI runs: stdout, stderr and exit code byte for byte.

The inputs, the argument lists and the expected output live under
``tests/golden/`` (see ``record.py`` there).  They pin every
subcommand's report, its human summary line and error messages, and
the help text, so that neither a faster kernel nor a restructured
front end can change a single byte of output.
"""

import json
from pathlib import Path

import pytest

from fracsub.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
EXIT_CODES = json.loads((GOLDEN / "expected" / "exit_codes.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_report(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)  # reports carry the input paths as given
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at this width
    monkeypatch.delenv("FRACSUB_TOL", raising=False)
    try:
        code = main(list(case["argv"]))
    except SystemExit as exc:  # argparse: --help, --version, usage errors
        code = exc.code
    captured = capsys.readouterr()
    assert code == EXIT_CODES[case["name"]]
    assert captured.out == (GOLDEN / "expected" / f"{case['name']}.out").read_text()
    assert captured.err == (GOLDEN / "expected" / f"{case['name']}.err").read_text()
