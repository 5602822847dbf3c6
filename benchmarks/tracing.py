"""Span tracer for the entropylab layers, installed from outside the package.

The modules of entropylab import one another's functions by name
(``from .matrix_core import matrix_log``), so wrapping a function in its
defining module is not enough: every module binding of it (and the
``verifiers.CHECKS`` registry) is replaced by one shared wrapper.  The raw
LAPACK layer is traced by wrapping ``numpy.linalg.eigh`` and ``eigvalsh``,
which the package looks up as module attributes on every call.

Each call records one span (name, start, end, parent, op) in flat arrays
kept in memory.  Spans nest strictly, because the benchmark runs in one
thread, so a span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from array import array

import numpy as np

# Modules whose public functions are traced, by their short layer name.
LAYERS = ("matrix_core", "functionals", "verifiers", "variational", "serialization", "cli")
# Classes whose construction is traced, as "<layer>.<class>".
TRACED_CLASSES = (("matrix_core", "HermitianMatrix"),
                  ("matrix_core", "PositiveDefiniteMatrix"),
                  ("matrix_core", "ContractionTuple"))
# Raw LAPACK entry points, traced as "lapack.<name>".
LAPACK = ("eigh", "eigvalsh")


class Tracer:
    """Replaces the traced bindings while installed; records spans in memory.

    ``current_op`` is set by the caller and stored with each span, so the
    spans of one op share it.
    """

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.name_of: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.current_op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, func, name: str):
        nid = self.name_of.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        hook = ON_RETURN.get(name)
        stack, clock = self._stack, time.perf_counter
        name_ids, parents, ops = self.name_id, self.parent, self.op
        starts, ends = self.start, self.end

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                for key, inc in hook(result).items():
                    self.counters[key] = self.counters.get(key, 0.0) + inc
            return result

        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr) if not isinstance(owner, dict)
                           else owner[attr]))
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = {layer: getattr(self.package, layer) for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        # Every binding of a traced function, in every module and registry.
        for mod in [self.package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._replace(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            self._replace(obj, key, wrappers[val])
        for layer, cls_name in TRACED_CLASSES:
            cls = getattr(modules[layer], cls_name)
            self._replace(cls, "__init__", self._wrap(cls.__init__, f"{layer}.{cls_name}"))
        for attr in LAPACK:
            self._replace(np.linalg, attr, self._wrap(getattr(np.linalg, attr), f"lapack.{attr}"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds, summed."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        incl = np.bincount(a["name_id"], weights=dur, minlength=k)
        self_s = np.bincount(a["name_id"], weights=dur - child, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def calls_within(self, names, ancestor: str) -> int:
        """Calls of any of ``names`` that run inside a span named ``ancestor``."""
        a = self.arrays()
        if ancestor not in self.name_of:
            return 0
        inside = a["name_id"] == self.name_of[ancestor]
        # A parent always precedes its child, so propagating the flag one
        # level per pass reaches a fixed point within the stack depth.
        parent = np.where(a["parent"] >= 0, a["parent"], 0)
        rooted = a["parent"] >= 0
        while True:
            grown = inside | (rooted & inside[parent])
            if np.array_equal(grown, inside):
                break
            inside = grown
        ids = [self.name_of[n] for n in names if n in self.name_of]
        # A span counts as within the ancestor if its parent chain reaches it.
        return int(np.count_nonzero(np.isin(a["name_id"], ids) & rooted & inside[parent]))

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# Counters read from the return values of traced calls, so that solver
# iterations and kept check records are counted where the work happens.
ON_RETURN = {
    "variational.maximize": lambda result: {"variational.iterations": result.iterations},
    "verifiers.run_check": lambda report: {"verifiers.records_kept": len(report.violations)},
}

CSS = ("calls", "s", "self_s")
CS = ("calls", "s")
# (span name, fields): reported per round as "<span name>.<field>".
REPORTED = (
    ("lapack.eigh", CS),
    ("lapack.eigvalsh", CS),
    ("matrix_core.spectral_decompose", CSS),
    ("matrix_core.matrix_function", CSS),
    ("matrix_core.matrix_log", CSS),
    ("matrix_core.matrix_exp", CSS),
    ("matrix_core.matrix_power", CSS),
    ("matrix_core.HermitianMatrix", CSS),
    ("matrix_core.PositiveDefiniteMatrix", CSS),
    ("matrix_core.ContractionTuple", CSS),
    ("matrix_core.as_complex_matrix", CS),
    ("matrix_core.operator_norm", CS),
    *((f"functionals.{f}", CSS) for f in (
        "relative_entropy", "reduced_relative_entropy", "lieb_trace",
        "lieb_trace_derivative_at_zero", "trace_exp_functional", "multi_trace_exp",
        "gt_jensen_lhs", "gt_jensen_rhs", "gibbs_objective", "phi_objective", "block_lift")),
    *((f"verifiers.{f}", CS) for f in (
        "check_sh_convexity", "check_phi_concavity", "check_multi_concavity",
        "check_gt_jensen", "check_gibbs_identity", "check_derivative_limit",
        "search_gt_route_gap", "check_homogeneity", "re_evaluate", "gt_route_value")),
    ("variational.maximize", CS),
    ("serialization.matrix_to_json", CSS),
    ("serialization.matrix_from_json", CSS),
    ("serialization.multi_instance_from_json", CSS),
    ("cli.main", CSS),
)
SAMPLERS = ("matrix_core.random_pd", "matrix_core.random_hermitian",
            "matrix_core.random_contraction_tuple")
UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def layer_metrics(tracer: Tracer, untraced_round_s: list, traced_round_s: list) -> dict:
    """Per-layer metrics per traced round, plus the tracing overhead."""
    rounds = len(traced_round_s)
    totals = tracer.totals()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    for span, fields in REPORTED:
        for f in fields:
            put(f"{span}.{f}", totals.get(span, zero)[f] / rounds, UNITS[f])
    sampling = [totals.get(s, zero) for s in SAMPLERS]
    put("matrix_core.sampling.calls", sum(t["calls"] for t in sampling) / rounds, "count")
    put("matrix_core.sampling.s", sum(t["s"] for t in sampling) / rounds, "s")
    decompositions = sum(totals.get(s, zero)["calls"] for s in ("lapack.eigh", "lapack.eigvalsh"))
    matrices = totals.get("matrix_core.HermitianMatrix", zero)["calls"]
    put("matrix_core.decompositions_per_matrix",
        decompositions / matrices if matrices else 0.0, "ratio")
    for counter in ("verifiers.records_kept", "variational.iterations"):
        put(counter, tracer.counters.get(counter, 0.0) / rounds, "count")
    put("variational.objective_evals", tracer.calls_within(
        ("functionals.gibbs_objective", "functionals.phi_objective"),
        "variational.maximize") / rounds, "count")
    put("variational.gradient_evals", tracer.calls_within(
        ("variational.gibbs_gradient", "variational.phi_gradient"),
        "variational.maximize") / rounds, "count")
    traced, untraced = statistics.median(traced_round_s), statistics.median(untraced_round_s)
    put("trace.spans", len(tracer.start) / rounds, "count")
    put("trace.untraced_round_s", untraced, "s")
    put("trace.traced_round_s", traced, "s")
    put("trace.overhead", traced / untraced - 1.0, "ratio")
    return out
