"""Record the reference results that ``check.py`` compares runs against.

    python3 bench/make_reference.py

Runs the first rounds of every workload under the reference seed through
the current code, untimed, and writes exit codes, parsed results and
input digests to ``bench/reference/<workload>.jsonl.gz``, one line per
round.  An op that fails its
construction checks aborts the recording.  Re-record only on purpose:
the committed file holds the seed code's answers, and a later change
must reproduce them.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import workloads  # noqa: E402
from run import run_op  # noqa: E402

# about twice the rounds a run reaches on the baseline machine for the
# two heavy workloads; small-batch gets 1280 ops
ROUNDS = {"dense-tables": 60, "derived-tables": 60, "small-batch": 40}


def record(workload: str, work: Path) -> list:
    from fracsub import cli

    rounds = []
    for r in range(ROUNDS[workload]):
        ops = workloads.build_round(workload, check.REFERENCE_SEED, r, work)
        recorded = []
        for i, op in enumerate(ops):
            _, code, out, error = run_op(cli, op["argv"])
            problems = [error] if error else check.check_op(op, code, out)
            if problems:
                raise SystemExit(f"{workload} round {r} op {i} {op['argv']}: {problems}")
            recorded.append({
                "exit": code,
                "result": json.loads(out)["result"] if out else None,
                "inputs": list(op["inputs"].values()),
            })
        rounds.append(recorded)
    return rounds


def main() -> None:
    os.chdir(BENCH.parent)
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        work = Path(".bench_work") / "reference" / workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        rounds = record(workload, work)
        lines = "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in rounds)
        with open(check.REFERENCE_DIR / f"{workload}.jsonl.gz", "wb") as fh:
            with gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
                gz.write(lines.encode())
        print(f"{workload}: {len(rounds)} rounds")


if __name__ == "__main__":
    main()
