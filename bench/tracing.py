"""Span tracing from outside the package, for the traced benchmark run.

``Tracer.install`` wraps the public functions and methods of every
``fracsub`` layer (the layers are the package modules) and records one
span per call: op id, layer, name, start, end, parent span and an
optional count/tag pair.  Spans stay in memory; ``write`` dumps them when
the run ends and ``layer_metrics`` derives the per-layer table.

Several modules bind names at import (``from .setfn import
is_submodular`` in ``cli``, ``gaps`` and ``info``), so a wrapper must
replace every binding of the original object in every ``fracsub.*``
namespace, not only the defining module's.  Methods are wrapped on their
class, which is enough because instances look them up there (dataclass
``__init__`` calls ``self.__post_init__()`` the same way).

The root span of an op is ``cli.main``.  A layer's self time is the
duration of its spans minus the time covered by their direct children.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "jsonio", "setfn", "families", "gaps", "lp", "info", "matroid", "gauss")

# (name, unit, better) of every per-layer metric, each a mean per traced op
PER_LAYER = (
    ("setfn.scan_ms.rational", "ms", "lower"),
    ("setfn.scan_ms.float", "ms", "lower"),
    ("setfn.scans", "count", "lower"),
    ("setfn.cells_scanned", "count", "lower"),
    ("setfn.build_ms", "ms", "lower"),
    ("setfn.self_ms", "ms", "lower"),
    ("jsonio.load_ms", "ms", "lower"),
    ("jsonio.values_loaded", "count", "lower"),
    ("jsonio.dump_ms", "ms", "lower"),
    ("jsonio.self_ms", "ms", "lower"),
    ("cli.input_bytes", "bytes", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("lp.solve_ms", "ms", "lower"),
    ("lp.solves", "count", "lower"),
    ("lp.columns", "count", "lower"),
    ("lp.self_ms", "ms", "lower"),
    ("info.table_ms", "ms", "lower"),
    ("info.self_ms", "ms", "lower"),
    ("info.marginals", "count", "lower"),
    ("matroid.rank_ms", "ms", "lower"),
    ("matroid.rank_calls", "count", "lower"),
    ("matroid.self_ms", "ms", "lower"),
    ("gauss.minor_ms", "ms", "lower"),
    ("gauss.minors", "count", "lower"),
    ("gauss.self_ms", "ms", "lower"),
    ("families.self_ms", "ms", "lower"),
    ("families.calls", "count", "lower"),
    ("gaps.self_ms", "ms", "lower"),
    ("gaps.calls", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

_SCANS = ("is_submodular", "is_modular", "is_nondecreasing", "is_prefix_nondecreasing")
_LOADERS = (
    "load_setfn", "load_partial", "load_family_document", "load_family",
    "load_distribution", "load_matroid", "load_pd_matrix", "load_pd_matrix_csv",
)


def _scan_count(args, result):
    f = args[0]
    return 1 << f.n, "rational" if f.is_rational else "float"


def _prefix_count(args, result):
    f = args[0]
    return f.n, "rational" if f.is_rational else "float"


def _len_attr(attr):
    return lambda args, result: (len(getattr(result, attr)), None)


def _family_doc_count(args, result):
    return len(result.members if hasattr(result, "members") else result.masks), None


def _matroid_count(args, result):
    if hasattr(result, "rows"):
        return len(result.rows) * len(result.rows[0]), None
    if hasattr(result, "edges"):
        return 2 * len(result.edges), None
    return 1, None


# layer (= module) -> (attribute path, counter) of its public entry
# points; a counter takes (args, result) and returns (count, tag).
# Private helpers are left unwrapped: their time is part of the calling
# layer's self time.
TARGETS = {
    "cli": [("main", None), ("_Inputs.read", lambda a, r: (len(r), None))],
    "jsonio": [
        ("load_setfn", _len_attr("values")),
        ("load_partial", _len_attr("entries")),
        ("load_family_document", _family_doc_count),
        ("load_family", None),
        ("load_distribution", lambda a, r: (int(r.pmf.size), None)),
        ("load_matroid", _matroid_count),
        ("load_pd_matrix", lambda a, r: (int(r.entries.size), None)),
        ("load_pd_matrix_csv", lambda a, r: (int(r.entries.size), None)),
        ("dump_family", None),
        ("canonical_dumps", None),
    ],
    "setfn": [
        ("is_submodular", _scan_count),
        ("is_modular", _scan_count),
        ("is_nondecreasing", _scan_count),
        ("is_prefix_nondecreasing", _prefix_count),
        ("SetFunction.__post_init__", None),
        ("PartialSetFunction.__post_init__", None),
    ],
    "families": [
        ("WeightedFamily.__post_init__", None),
        ("WeightedFamily.classify", None),
        ("WeightedFamily.weight_total", None),
        ("WeightedFamily.dual", None),
        ("WeightedFamily.sigma", None),
        ("WeightedFamily.satisfies_standing_assumptions", None),
        ("WeightedFamily.normalize", None),
        ("find_fractional_partition", None),
        ("min_multiplicity", None),
        ("singleton_family", None),
        ("co_singleton_family", None),
    ],
    "gaps": [
        ("gap_upper", None),
        ("gap_lower", None),
        ("duality_residual", None),
        ("gap_report", None),
        ("stability_check", None),
        ("certify_modular_partial", None),
        ("equality_conditions_covering", None),
        ("shearer_check", None),
    ],
    "lp": [
        ("solve", lambda a, r: (a[0].nvars, None)),
        ("maximize_partition_weighted_sum", None),
        ("partition_polytope", None),
        ("verify", None),
        ("residuals", None),
        ("RationalLP.__post_init__", None),
        ("Constraint.__post_init__", None),
    ],
    "info": [
        ("JointDistribution.__post_init__", None),
        ("JointDistribution.marginal", lambda a, r: (1, None)),
        ("entropy", None),
        ("entropy_table_from_pmf", lambda a, r: ((1 << a[0].ndim) - 1, None)),
        ("entropy_setfn", None),
        ("total_correlation", None),
        ("dual_total_correlation", None),
        ("family_mutual_information", None),
        ("shared_information", None),
        ("mmi_max_over_partitions", None),
    ],
    "matroid": [
        ("LinearMatroid.rank", None),
        ("GraphicMatroid.rank", None),
        ("UniformMatroid.rank", None),
        ("FreeMatroid.rank", None),
        ("LinearMatroid.__post_init__", None),
        ("GraphicMatroid.__post_init__", None),
        ("rank_setfn", None),
        ("loops", None),
        ("rank_equality_check", None),
    ],
    "gauss": [
        ("PDMatrix.__post_init__", lambda a, r: (1, None)),
        ("principal_minor", None),
        ("log_principal_minor", lambda a, r: (1 if a[1] else 0, None)),
        ("gaussian_entropy_setfn", None),
        ("det_equality_check", None),
        ("preset_family", None),
    ],
}


class Tracer:
    """Collects spans while installed; ``op`` labels the current op."""

    def __init__(self) -> None:
        # span: (op, layer, name, t0, t1, parent index or -1, count, tag)
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, layer: str, name: str, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (tracer.op, layer, name, t0, t1, parent, None, None)
            if counter is not None:
                count, tag = counter(args, result)
                spans[idx] = (tracer.op, layer, name, t0, t1, parent, count, tag)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target and rebind it wherever ``fracsub`` holds it."""
        modules = [m for k, m in sys.modules.items() if k == "fracsub" or k.startswith("fracsub.")]
        for layer, targets in TARGETS.items():
            home = sys.modules[f"fracsub.{layer}"]
            for path, counter in targets:
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                original = owner.__dict__[attr] if owner_name else getattr(home, attr)
                wrapper = self._wrap(layer, path, original, counter)
                if owner_name:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def layer_metrics(spans, ops: int) -> tuple[dict, dict]:
    """Per-op means of the per-layer metrics, and each layer's self-time share.

    `ops` is the number of traced ops the spans cover.  The two metrics
    that spans do not carry, ``cli.report_bytes`` and
    ``trace.overhead_pct``, are left to the caller.
    """
    child = defaultdict(float)
    for op, layer, name, t0, t1, parent, count, tag in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_s = defaultdict(float)
    calls = defaultdict(int)
    total = defaultdict(float)  # seconds for *_ms keys, counts otherwise
    root_s = 0.0
    for idx, (op, layer, name, t0, t1, parent, count, tag) in enumerate(spans):
        dur = t1 - t0
        self_s[layer] += dur - child[idx]
        calls[layer] += 1
        parent_name = spans[parent][2] if parent >= 0 else None
        if parent < 0:
            root_s += dur
        if name in _SCANS:
            total[f"setfn.scan_ms.{tag}"] += dur
            total["setfn.scans"] += 1
            total["setfn.cells_scanned"] += count or 0
        elif name.endswith("SetFunction.__post_init__"):
            total["setfn.build_ms"] += dur
        elif name in _LOADERS:
            if parent_name not in _LOADERS:
                total["jsonio.load_ms"] += dur
            total["jsonio.values_loaded"] += count or 0
        elif name in ("dump_family", "canonical_dumps"):
            total["jsonio.dump_ms"] += dur
        elif name == "_Inputs.read":
            total["cli.input_bytes"] += count or 0
        elif name == "solve":
            total["lp.solve_ms"] += dur
            total["lp.solves"] += 1
            total["lp.columns"] += count or 0
        elif name == "entropy_table_from_pmf":
            total["info.table_ms"] += dur
            total["info.marginals"] += count or 0
        elif name == "JointDistribution.marginal":
            total["info.marginals"] += 1
        elif name.endswith(".rank"):
            total["matroid.rank_ms"] += dur
            total["matroid.rank_calls"] += 1
        elif name == "log_principal_minor":
            total["gauss.minor_ms"] += dur
            total["gauss.minors"] += count or 0
        elif name == "PDMatrix.__post_init__":
            total["gauss.minors"] += 1
    for layer in LAYERS:
        total[f"{layer}.self_ms"] = self_s[layer]
    total["families.calls"] = calls["families"]
    total["gaps.calls"] = calls["gaps"]
    per_op = {
        name: total[name] * (1000.0 if unit == "ms" else 1.0) / ops
        for name, unit, _ in PER_LAYER
        if name not in ("cli.report_bytes", "trace.overhead_pct")
    }
    shares = {layer: (self_s[layer] / root_s if root_s else 0.0) for layer in LAYERS}
    return per_op, shares
