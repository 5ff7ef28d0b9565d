"""Record the golden CLI reports: ``PYTHONPATH=src python tests/golden/record.py``.

Runs every case of ``cases.json`` through ``fracsub.cli.main`` from
this directory (the reports carry the input paths, so they must be the
same relative paths the test uses) and writes each case's stdout to
``expected/<name>.out`` and all exit codes to ``expected/exit_codes.json``.
Re-record only when a report is meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_case(argv: list[str]) -> tuple[int, str]:
    from fracsub.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def main() -> None:
    os.chdir(HERE)
    cases = json.loads((HERE / "cases.json").read_text())
    expected = HERE / "expected"
    expected.mkdir(exist_ok=True)
    codes = {}
    for case in cases:
        code, out = run_case(case["argv"])
        codes[case["name"]] = code
        (expected / f"{case['name']}.out").write_text(out)
    (expected / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")


if __name__ == "__main__":
    main()
