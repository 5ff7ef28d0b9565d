"""fracsub benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``.  Each workload is a closed loop with one client
in one process: ops go back to back through ``fracsub.cli.main(argv)``
in-process with stdout and stderr captured, so every op takes the CLI's
real path (read file, hash, parse, load, compute, serialize).  Inputs
are generated round by round between timed rounds (see
``workloads.py``), and rounds run until their summed wall time reaches
``--seconds``; the clock only runs while a round's ops run.  Results are
checked after each round (``check.py``).

Every op time is reported at a fixed reference host speed.  The 2-vCPU
shared host the baseline was measured on slows down by up to 1.6x for
minutes at a time, across every op alike, so raw times of the same code
differ by more than any useful bound from one run to the next.  A fixed
stdlib kernel (``_cal_kernel``, independent of ``fracsub``) is therefore
timed before the first round and again after every half second of timed
rounds, and each op's time is scaled by ``CAL_REF_S`` over the mean of
the two calibrations around its round: the time the op would take on a
host where the kernel takes ``CAL_REF_S``.  Raw times are kept in
``times.json`` and the summary line prints the mean host factor.

``setup_s`` is the median over several fresh interpreters of the time
from spawn to the point where ``fracsub.cli`` (numpy included) is
imported and the first round's op list is loaded.  Interpreter start-up
follows the host's slow phases only about half as much as the kernel
does, so each probe is timed against a fresh interpreter that imports
only numpy, spawned right after it, and scaled to ``NUMPY_IMPORT_REF_S``.

With ``--trace 1`` odd rounds run with every layer wrapped
(``tracing.py``) and even rounds without; the per-layer metrics are means
per traced op, and ``trace.overhead_pct`` compares the mean round time
of the two kinds.  Spans go to ``.bench_work/<workload>/spans.jsonl.gz``,
per-op and per-round times of every run to ``times.json`` beside them.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer ones).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 9
# the numpy-only interpreter that set-up probes are timed against, and its
# spawn-to-imported time on the reference host in a fast phase
NUMPY_PROBE = "import time, numpy; print(repr(time.monotonic()))"
NUMPY_IMPORT_REF_S = 0.1
# hard stop well inside the 180 s a run may take, whatever --seconds says
WALL_LIMIT_S = 150.0
# host-speed calibration: the kernel's median over CAL_REPS calls is taken
# after every CAL_EVERY_S of timed rounds; CAL_REF_S is its time on the
# reference host in a fast phase (2 vCPU Xeon, Python 3.11)
CAL_REF_S = 0.0006
CAL_REPS = 11
CAL_EVERY_S = 0.5


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _cal_kernel() -> dict:
    """Fixed interpreter work: hashing, allocation and dict stores."""
    d = {}
    for i in range(3000):
        d[(i * 7919) % 4093] = [i, float(i)]
    return d


def calibrate() -> float:
    """Median seconds of the calibration kernel, right now."""
    samples = []
    for _ in range(CAL_REPS):
        t0 = time.perf_counter()
        _cal_kernel()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _spawn_to_ready(argv: list[str]) -> float:
    """Seconds from spawning `argv` to the monotonic instant it prints."""
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        _fail(f"setup probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[0]) - start


def measure_setup(ops_file: Path) -> float:
    """Median seconds from spawning a fresh interpreter to ready-to-issue,
    at the reference host speed."""
    samples = []
    for _ in range(SETUP_PROBES):
        probe = _spawn_to_ready([sys.executable, str(BENCH / "setup_probe.py"), str(ops_file)])
        numpy_only = _spawn_to_ready([sys.executable, "-c", NUMPY_PROBE])
        samples.append(probe / numpy_only * NUMPY_IMPORT_REF_S)
    return statistics.median(samples)


def run_op(cli, argv):
    """One op through the CLI entry point; (seconds, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # an op that raises is a failed op, not a harness crash
        code, error = None, traceback.format_exc()
    dt = time.perf_counter() - t0
    return dt, code, out.getvalue(), error


def percentile(values, q: float) -> float:
    """Linear-interpolated q-quantile (0 < q < 1) of the sorted values."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fracsub" / "cli.py").is_file():
        _fail(f"no fracsub sources under {ROOT / 'src'}; run inside a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import check
    import workloads
    from tracing import PER_LAYER, Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    os.chdir(ROOT)
    work = Path(".bench_work") / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wall0 = time.monotonic()

    first_round = workloads.build_round(args.workload, args.seed, 0, work)
    if not args.trace:
        ops_file = work / "ops-0000.json"
        ops_file.write_text(json.dumps(first_round))
        setup_s = measure_setup(ops_file)

    from fracsub import cli

    if not Path(cli.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        _fail(f"imported fracsub from {cli.__file__}, not from this checkout")
    reference = check.reference_rounds(args.workload, args.seed)
    ref_rounds = 0
    tracer = Tracer() if args.trace else None

    rounds = []  # (traced, seconds, per-op seconds) per round, raw, in order
    factors: list[float] = []  # per round: reference over measured host speed
    cals = [calibrate()]

    def calibrate_pending() -> None:
        cals.append(calibrate())
        factor = CAL_REF_S / ((cals[-2] + cals[-1]) / 2)
        factors.extend([factor] * (len(rounds) - len(factors)))

    traced_ops = 0
    report_bytes = 0
    attempted = failed = 0
    timed = 0.0
    r = 0
    # a traced run needs at least one plain and one traced round
    while ((timed < args.seconds or (tracer and r < 2))
           and time.monotonic() - wall0 < WALL_LIMIT_S):
        ops = first_round if r == 0 else workloads.build_round(args.workload, args.seed, r, work)
        traced = bool(tracer) and r % 2 == 1
        if traced:
            tracer.install()
        results = []
        t_round = time.perf_counter()
        for i, op in enumerate(ops):
            if traced:
                tracer.op = attempted + i
            results.append(run_op(cli, op["argv"]))
        elapsed = time.perf_counter() - t_round
        if traced:
            tracer.uninstall()
            traced_ops += len(ops)
            report_bytes += sum(len(out.encode()) for _, _, out, _ in results)
        rounds.append((traced, elapsed, [dt for dt, _, _, _ in results]))
        timed += elapsed
        if sum(dt for _, dt, _ in rounds[len(factors):]) >= CAL_EVERY_S:
            calibrate_pending()
        refs = next(reference, None) if reference is not None else None
        ref_rounds += refs is not None
        for i, (op, (dt, code, out, error)) in enumerate(zip(ops, results)):
            problems = [error] if error else check.check_op(op, code, out, refs[i] if refs else None)
            attempted += 1
            if problems:
                failed += 1
                if failed <= 5:
                    print(f"FAILED round {r} op {i} {' '.join(op['argv'])}:", file=sys.stderr)
                    for line in problems[:5]:
                        print(f"  {line}", file=sys.stderr)
        r += 1

    if len(factors) < len(rounds):
        calibrate_pending()
    (work / "times.json").write_text(json.dumps(
        {"rounds": rounds, "factors": factors, "calibrations_s": cals}))
    # everything below is at the reference host speed
    times = [dt * f for (_, _, op_s), f in zip(rounds, factors) for dt in op_s]
    round_log = [(traced, dt * f) for (traced, dt, _), f in zip(rounds, factors)]
    ref_timed = sum(dt for _, dt in round_log)
    ok_ops = attempted - failed
    p90 = percentile(times, 0.9)
    beyond = sum(1 for t in times if t > p90)
    print(f"{args.workload} seed {args.seed}: {attempted} ops in {r} rounds, "
          f"{timed:.2f} s timed (host factor {ref_timed / timed:.3f}), {failed} failed (error_rate {failed / attempted:.4f}), "
          f"p90 over {len(times)} samples with {beyond} beyond it")
    if reference is not None:
        reference.close()
        print(f"reference checks on the first {ref_rounds} rounds")

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ok_ops / ref_timed, "ops/s"),
            "op_p50_ms": (1000.0 * statistics.median(times), "ms"),
            "op_p90_ms": (1000.0 * p90, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        tracer.write(work / "spans.jsonl.gz")
        per_op, shares = layer_metrics(tracer.spans, traced_ops)
        per_op["cli.report_bytes"] = report_bytes / traced_ops
        traced_rounds = [(dt, f) for (traced, dt, _), f in zip(rounds, factors) if traced]
        factor = sum(dt * f for dt, f in traced_rounds) / sum(dt for dt, _ in traced_rounds)
        units = {name: unit for name, unit, _ in PER_LAYER}
        for name in per_op:
            if units.get(name) == "ms":
                per_op[name] *= factor
        plain = statistics.mean(dt for traced, dt in round_log if not traced)
        with_spans = statistics.mean(dt for traced, dt in round_log if traced)
        per_op["trace.overhead_pct"] = 100.0 * (with_spans / plain - 1.0)
        metrics = {name: (per_op[name], units[name]) for name, _, _ in PER_LAYER}
        print("self-time share of traced op time: " + ", ".join(
            f"{layer} {100 * share:.1f}%" for layer, share in
            sorted(shares.items(), key=lambda kv: -kv[1])))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
