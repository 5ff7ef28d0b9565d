"""Golden CLI reports: stdout and exit code byte for byte.

The inputs, the argument lists and the expected reports live under
``tests/golden/`` (see ``record.py`` there).  They pin the reports of
the commands built on the exact kernels (``mmi``, ``matroid``,
``detineq``, ``find-partition``) so that a faster kernel cannot change
a single byte of output.
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
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert code == EXIT_CODES[case["name"]]
    assert out == (GOLDEN / "expected" / f"{case['name']}.out").read_text()
