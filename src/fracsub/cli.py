"""Command-line front end: one table of subcommands, one dispatch.

Each row of ``COMMANDS`` gives a subcommand's name and help, its input
files with their loaders, whether ``--tol`` applies, its extra flags,
the library call, the report parameters, the human summary line and
the exit-code rule.  ``main`` builds the parser from the table and
runs every row alike: read and hash the inputs, resolve the tolerance,
call the library, write one canonical JSON report to stdout (``jsonio``
serializes the library's report dataclasses) and the summary line to
stderr.  Reports are byte-stable, with input files
identified by content hash.  Rows reach library functions as module
attributes looked up per call, so rebinding one (as a tracer does)
reaches every call.

Exit codes: 0 success; 1 failed verdict (certify says not-modular,
stability unsatisfied, selftest failure); 2 malformed input; 3 unmet
mathematical precondition; 4 internal cross-check disagreement (a
``ConsistencyError``: a bug, never a verdict).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from . import __version__, families, fixtures, gaps, gauss, info, jsonio, matroid, setfn
from .bitsets import MASKS
from .errors import ConsistencyError, FracsubError, PreconditionError, ValidationError
from .rationals import parse_rational, require_finite

_EXIT_VERDICT = 1
_EXIT_VALIDATION = 2
_EXIT_PRECONDITION = 3
_EXIT_BUG = 4

# argparse reads a separate flag value such as "-1e-9" or "-inf" as an
# option; main joins it to its flag so that it reaches the value check
_NUMBER_FLAGS = ("--tol", "--epsilon")
_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


class _Inputs:
    """Tracks loaded files and their content hashes for the report."""

    def __init__(self) -> None:
        self.digests: dict[str, dict[str, str]] = {}

    def read(self, path: str, role: str) -> bytes:
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ValidationError(f"{role}: cannot read {path}: {exc.strerror}")
        self.digests[role] = {"path": path, "sha256": hashlib.sha256(raw).hexdigest()}
        return raw

    def read_json(self, path: str, role: str):
        try:
            return json.loads(self.read(path, role))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{role}: {path} is not valid JSON: {exc}")


def _resolve_tol(args) -> float | None:
    if args.tol is not None:
        return require_finite(args.tol, "--tol")
    env = os.environ.get("FRACSUB_TOL")
    if env is None:
        return None
    try:
        tol = float(env)
    except ValueError:
        raise ValidationError(f"FRACSUB_TOL is not a number: {env!r}") from None
    return require_finite(tol, "FRACSUB_TOL")


def _parse_epsilon(text: str):
    # "p/q" and bare integers stay exact; anything else is binary64
    if "/" in text or text.strip().lstrip("+-").isdigit():
        return parse_rational(text)
    try:
        epsilon = float(text)
    except ValueError:
        raise ValidationError(f"bad epsilon {text!r}") from None
    return require_finite(epsilon, "--epsilon")


def _join_negative_values(argv) -> list[str]:
    """``--tol -1e-9`` becomes ``--tol=-1e-9``."""
    out: list[str] = []
    for arg in sys.argv[1:] if argv is None else argv:
        if out and out[-1] in _NUMBER_FLAGS and _NEGATIVE_NUMBER.match(arg):
            out[-1] += f"={arg}"
        else:
            out.append(arg)
    return out


def _json(loader: str) -> Callable:
    """Parse the file as JSON and hand it to ``jsonio.<loader>``."""
    return lambda inputs, path, role: getattr(jsonio, loader)(
        inputs.read_json(path, role)
    )


def _unweighted(why: str) -> Callable:
    """Load a family document whose members carry no weights."""

    def load(inputs, path, role):
        doc = jsonio.load_family_document(inputs.read_json(path, role))
        if isinstance(doc, families.WeightedFamily):
            raise ValidationError(f"{role}: omit weights; {why}")
        return doc

    return load


def _load_matrix(inputs, path, role):
    if path.endswith(".csv"):
        text = inputs.read(path, role).decode("utf-8", errors="replace")
        return jsonio.load_pd_matrix_csv(text)
    return jsonio.load_pd_matrix(inputs.read_json(path, role))


# ------------------------------------------------------------- the table


@dataclass(frozen=True)
class _Input:
    dest: str  # argument name; holds the loaded value once loaded
    load: Callable  # (inputs, path, role) -> loaded value
    role: str = ""  # key in the report's "inputs"; defaults to dest
    optional: bool = False
    help: str | None = None


@dataclass(frozen=True)
class _Command:
    name: str
    help: str
    inputs: tuple[_Input, ...]
    run: Callable[[argparse.Namespace, Any], Any]  # (args, tol) -> result
    human: Callable[[argparse.Namespace, Any], str]  # (args, result) -> line
    tol: bool = True
    flags: dict[str, dict] = field(default_factory=dict)  # name -> add_argument kwargs
    params: Callable = lambda args, result: {}  # parameters beyond the tolerance
    exit: Callable[[Any], int] = lambda result: 0


def _switch(help: str) -> dict:
    return {"action": "store_true", "help": help}


def _gaps(a, tol):
    rep = gaps.gap_report(a.setfn, a.family, tol)
    try:
        residual = gaps.duality_residual(a.setfn, a.family)
    except PreconditionError:
        residual = None
    return {**vars(rep), "duality_residual": residual}


def _certify_human(a, cert) -> str:
    if cert.verdict == "modular":
        why = f" (weighted sum {cert.checked_sum} matches the total exactly)"
    elif cert.verdict == "not-modular":
        why = f" (weighted sum {cert.checked_sum} != {cert.target})"
    else:
        why = f" ({cert.note})" if cert.note else ""
    return f"verdict: {cert.verdict}{why}"


_CERTIFY_EXIT = {"modular": 0, "not-modular": _EXIT_VERDICT}  # else insufficient data


def _stability_human(a, rep) -> str:
    line = (
        f"defects {'within' if rep.satisfied else 'EXCEED'} "
        f"epsilon/sigma = {rep.bound} (sigma={rep.sigma})"
    )
    if not rep.epsilon_covers_gap:
        line += "; note: epsilon is below both gaps, so the premise is unmet"
    return line


@dataclass(frozen=True)
class _Component:
    """One member's term of the family mutual information."""

    set: int = field(metadata=MASKS)
    weight: Fraction
    entropy: float


_MMI_MODES = {
    "tc": "total correlation",
    "dtc": "dual total correlation",
    "si": "shared information",
    "max": "max MI over fractional partitions",
}


def _mmi(a, tol):
    modes = [mode for mode in _MMI_MODES if getattr(a, mode)]
    if a.family is not None and modes:
        raise ValidationError("give either a family file or one mode flag, not both")
    if a.family is None and len(modes) != 1:
        raise ValidationError(
            "choose a mode: a family file or exactly one of --tc --dtc --si --max"
        )
    if a.family is not None:
        res = info.family_mutual_information(a.dist, a.family)
        return {
            "mode": "family",
            "value": res.value,
            "joint_entropy": res.joint_entropy,
            "components": [_Component(*c) for c in res.components],
        }
    mode = modes[0]
    if mode in ("tc", "dtc"):
        measure = info.total_correlation if mode == "tc" else info.dual_total_correlation
        return {"mode": mode, "value": measure(a.dist)}
    search = info.shared_information if mode == "si" else info.mmi_max_over_partitions
    return {"mode": mode, **vars(search(a.dist, tol))}


def _parse_preset(text: str, n: int) -> families.WeightedFamily:
    name, _, arg = text.partition(":")
    k = block = None
    if arg and name == "hadamard":
        raise ValidationError("hadamard takes no argument")
    if arg and name == "szasz":
        try:
            k = int(arg)
        except ValueError:
            raise ValidationError(f"szasz wants an integer k, got {arg!r}") from None
    if arg and name == "fischer":
        try:
            block = tuple(int(x) for x in arg.split(","))
        except ValueError:
            raise ValidationError(
                f"fischer wants comma-separated elements, got {arg!r}"
            ) from None
    return gauss.preset_family(name, n, k=k, block=block)  # rejects unknown names


def _detineq(a, tol):
    if (a.family is None) == (a.preset is None):
        raise ValidationError("give either a family file or --preset, not both")
    wf = a.family if a.family is not None else _parse_preset(a.preset, a.matrix.n)
    return gauss.det_equality_check(a.matrix, wf, tol)


def _find_partition(a, tol):
    found = families.find_fractional_partition(a.sets.masks, a.sets.n)
    return {"found": found is not None, "family": found}


def _selftest(a, tol):
    b1 = fixtures.modular_singletons()
    b2 = fixtures.modular_mixed_signs()
    b3 = fixtures.zero_gap_nonmonotone()
    checks: list[dict] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def certified(b, total: Fraction) -> tuple[bool, str]:
        cert = gaps.certify_modular_partial(b.partial, b.family)
        ok = cert.verdict == "modular" and cert.checked_sum == total
        return ok, f"verdict={cert.verdict} checked_sum={cert.checked_sum}"

    def zero_gap(b) -> bool:
        return gaps.gap_upper(b.table, b.family) == 0

    add("singletons: certified modular from 5 values", *certified(b1, Fraction(98)))
    add("singletons: completion has zero upper gap", zero_gap(b1))
    add("singletons: completion is modular", setfn.is_modular(b1.table))
    partition = b2.family.classify().flavor == "partition"
    add("mixed-signs: family is a fractional partition", partition)
    add(
        "mixed-signs: certified modular, weighted sum 18/5",
        *certified(b2, Fraction(18, 5)),
    )
    add("mixed-signs: completion has zero upper gap", zero_gap(b2))
    add("nonmonotone: submodular", setfn.is_submodular(b3.table))
    add("nonmonotone: prefix-nondecreasing", setfn.is_prefix_nondecreasing(b3.table))
    add("nonmonotone: not non-decreasing", not setfn.is_nondecreasing(b3.table))
    add("nonmonotone: not modular", not setfn.is_modular(b3.table))
    add("nonmonotone: zero covering gap anyway", zero_gap(b3))
    try:
        gaps.equality_conditions_covering(b3.table, b3.family)
        add("nonmonotone: covering equality test refuses", False, "no refusal")
    except PreconditionError as exc:
        add("nonmonotone: covering equality test refuses", True, str(exc))
    return {"checks": checks, "all_ok": all(c["ok"] for c in checks)}


_SETFN = _Input("setfn", _json("load_setfn"))
_FAMILY = _Input("family", _json("load_family"))
_OPTIONAL_FAMILY = _Input("family", _json("load_family"), optional=True)

COMMANDS = (
    _Command(
        "gaps", "upper/lower gaps of f against a family",
        inputs=(_SETFN, _FAMILY),
        run=_gaps,
        human=lambda a, r: (
            f"{r['classification'].flavor}: gap_upper={r['gap_upper']} "
            f"gap_lower={r['gap_lower']} bounds_hold={r['bounds_hold']}"
        ),
    ),
    _Command(
        "certify", "decide modularity from member values plus the total",
        inputs=(_Input("partial", _json("load_partial")), _FAMILY),
        flags={
            "--no-assume-submodular": _switch(
                "record that submodularity of the underlying f is NOT asserted"
            )
        },
        run=lambda a, tol: gaps.certify_modular_partial(
            a.partial, a.family, assume_submodular=not a.no_assume_submodular, tol=tol
        ),
        params=lambda a, r: {"assume_submodular": r.assumed_submodular},
        human=_certify_human,
        exit=lambda r: _CERTIFY_EXIT.get(r.verdict, _EXIT_VALIDATION),
    ),
    _Command(
        "stability", "per-element defect bound epsilon/sigma",
        inputs=(_SETFN, _FAMILY),
        flags={"--epsilon": {"required": True, "help": 'gap budget, "p/q" or float'}},
        run=lambda a, tol: gaps.stability_check(
            a.setfn, a.family, _parse_epsilon(a.epsilon), tol
        ),
        params=lambda a, r: {"epsilon": r.epsilon},
        human=_stability_human,
        exit=lambda r: 0 if r.satisfied else _EXIT_VERDICT,
    ),
    _Command(
        "equality", "covering/packing equality vs modular-plus-special-zeros",
        inputs=(_SETFN, _FAMILY),
        run=lambda a, tol: gaps.equality_conditions_covering(a.setfn, a.family, tol),
        human=lambda a, r: (
            f"{r.branch}: gap={r.gap} equality={r.equality} "
            f"modular={r.modular.ok} zero_on_special={r.zero_on_special}"
        ),
    ),
    _Command(
        "shearer", "integer covering equality at weights 1/k",
        inputs=(
            _SETFN,
            _Input(
                "sets",
                _unweighted("the multiplicity rule assigns them"),
                help="family JSON without weights",
            ),
        ),
        run=lambda a, tol: gaps.shearer_check(a.setfn, a.sets.masks, tol),
        human=lambda a, r: (
            f"k={r.k}: member sum {r.member_sum} vs k*f(full) "
            f"{r.scaled_total}; equality={r.equality}"
        ),
    ),
    _Command(
        "mmi", "information measures of a joint pmf",
        inputs=(
            _Input("dist", _json("load_distribution"), role="distribution"),
            _OPTIONAL_FAMILY,
        ),
        flags={
            "--tc": _switch("total correlation"),
            "--dtc": _switch("dual total correlation"),
            "--si": _switch("shared information"),
            "--max": _switch("maximize family MI over fractional partitions"),
        },
        run=_mmi,
        params=lambda a, r: {"mode": r["mode"]},
        human=lambda a, r: f"{_MMI_MODES.get(r['mode'], 'family MI')} = {r['value']} bits",
    ),
    _Command(
        "matroid", "weighted rank sum vs rank of the ground set",
        inputs=(_Input("matroid", _json("load_matroid")), _FAMILY),
        tol=False,
        run=lambda a, tol: matroid.rank_equality_check(a.matroid, a.family),
        human=lambda a, r: (
            f"weighted rank sum {r.weighted_rank_sum} vs rank {r.total_rank}: "
            f"{'equal' if r.equality else 'strict'}; "
            f"free outside loops: {r.free_outside_loops}"
        ),
    ),
    _Command(
        "detineq", "weighted determinant equality test",
        inputs=(
            _Input(
                "matrix", _load_matrix, help="PD matrix as JSON, or CSV with a .csv suffix"
            ),
            _OPTIONAL_FAMILY,
        ),
        flags={
            "--preset": {
                "help": "hadamard | szasz[:k] | fischer[:i,j,...] instead of a family file"
            }
        },
        run=_detineq,
        params=lambda a, r: {"tol": r.tol, "preset": a.preset},  # the tol used
        human=lambda a, r: (
            f"log-det gap {r.log_gap:.6g} (lhs {r.log_lhs:.6g} vs rhs "
            f"{r.log_rhs:.6g}): {'equality' if r.equality else 'strict'}; "
            f"block-diagonal: {r.diagonal_ok}"
        ),
    ),
    _Command(
        "normalize", "drop zeros, rescale out the full set, merge",
        inputs=(_FAMILY,),
        tol=False,
        run=lambda a, tol: dict(zip(("family", "merge_map"), a.family.normalize())),
        human=lambda a, r: (
            f"normalized to {len(r['family'].members)} members on [1:{r['family'].n}]"
            + ("" if r["family"].n == a.family.n else f" (merged from [1:{a.family.n}])")
        ),
    ),
    _Command(
        "find-partition", "find fractional-partition weights for given sets",
        inputs=(_Input("sets", _unweighted("they are what is being sought")),),
        tol=False,
        run=_find_partition,
        human=lambda a, r: (
            f"fractional partition with {len(r['family'].members)} members"
            if r["found"]
            else "no fractional partition supported on these sets"
        ),
    ),
    _Command(
        "selftest", "run the built-in worked instances",
        inputs=(),
        tol=False,
        run=_selftest,
        human=lambda a, r: (
            f"selftest: {len(r['checks'])} checks, all passed"
            if r["all_ok"]
            else f"selftest: FAILED: {', '.join(c['name'] for c in r['checks'] if not c['ok'])}"
        ),
        exit=lambda r: 0 if r["all_ok"] else _EXIT_VERDICT,
    ),
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracsub",
        description=(
            "Weighted-cover gap analysis for submodular set functions: "
            "gaps, modularity certificates, stability bounds, equality "
            "conditions, information measures, matroid ranks and "
            "determinant inequalities."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        if cmd.tol:
            p.add_argument(
                "--tol",
                type=float,
                help="float comparison tolerance (default 2**-30; ignored for "
                "exact-rational instances; FRACSUB_TOL also accepted)",
            )
        for spec in cmd.inputs:
            p.add_argument(spec.dest, nargs="?" if spec.optional else None, help=spec.help)
        for flag, kwargs in cmd.flags.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(cmd=cmd)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(_join_negative_values(argv))
    cmd, inputs = args.cmd, _Inputs()
    try:
        for spec in cmd.inputs:
            path = getattr(args, spec.dest)
            if path is not None:
                setattr(args, spec.dest, spec.load(inputs, path, spec.role or spec.dest))
        tol = _resolve_tol(args) if cmd.tol else None
        result = cmd.run(args, tol)
        params = {"tol": tol} if cmd.tol else {}
        params.update(cmd.params(args, result))
        human, code = cmd.human(args, result), cmd.exit(result)
    except PreconditionError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        if exc.note:
            print(f"note: {exc.note}", file=sys.stderr)
        return _EXIT_PRECONDITION
    except ConsistencyError as exc:
        print(f"internal disagreement: {exc}", file=sys.stderr)
        return _EXIT_BUG
    except FracsubError as exc:  # ValidationError and any other bad input
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    report = {
        "command": args.command,
        "version": __version__,
        "inputs": inputs.digests,
        "parameters": params,
        "result": result,
    }
    sys.stdout.write(jsonio.canonical_dumps(report))
    print(human, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
