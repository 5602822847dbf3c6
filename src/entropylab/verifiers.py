"""Randomized property testing of the convexity, concavity, equality, and
inequality claims about the trace functionals.

Each check is declared as a :class:`Check` rather than written as a loop:

- ``sample(rng, cfg, dims, trial) -> instance`` draws one trial's instance,
  a dict of typed values, from the trial's substream;
- ``compare(instance, cfg, functionals)`` is a lazy generator of
  :class:`Comparison` s (kind, lhs, rhs, gap, tol, strict), each with a
  thunk that dumps the instance its record holds;
- ``functionals()`` looks up the genuine functionals at call time, and the
  check's keyword hooks replace them, so the harness self-test can corrupt
  a functional and prove the check is not vacuous;
- ``fields`` gives the kind of each key of a dumped instance (see
  ``serialization.read_fields``), and ``kinds`` the comparison kinds.

One run loop (:func:`_run`) serves every check.  Trial i uses the substream
derived from (seed, i), so results are bit-identical across runs and
independent of execution order.  A comparison breaches when gap > tol
(gap >= tol if strict), where tol is tol_abs + tol_rel * scale and scale is
the largest magnitude in the comparison; a record is built only on a
breach.  A trial that raises an EntropyLabError becomes an error record
``{"kind": "error", "trial", "error"}`` and the check goes on.

Replay (:func:`re_evaluate`) reads a record's instance with ``fields``,
passes the record's kind in as ``instance["kind"]``, runs the same
``compare`` with the genuine functionals, and returns the first comparison
of the record's kind (the first comparison at all for a record without a
kind).  So a record's dump must hold every field that ``compare`` reads
before it yields that comparison, and on the dump alone ``compare`` must
yield the record's comparison first among those of its kind.  A list of
weights (``lam``, ``t``) dumps the one weight of its record and is read
back as a one-element tuple.

Convexity and concavity are tested on segments (several mixing weights per
instance), which is exact up to arithmetic noise.  `search_gt_route_gap`
inverts the usual pass meaning: it hunts for witnesses that the
Golden-Thompson-first bound Tr(e^L e^(sum H_i* B_i H_i)) can exceed the
commuting-case bound, keeps at most one per trial, re-verifies each by
replaying its JSON dump, and passes when it finds one and no trial errored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import functionals as fn
from .errors import DomainError, EntropyLabError
from .matrix_core import (
    ContractionTuple,
    HermitianMatrix,
    PositiveDefiniteMatrix,
    matrix_exp,
    random_contraction_tuple,
    random_hermitian,
    random_pd,
)
from .serialization import matrix_to_json, multi_instance_to_json, read_fields

DEFAULT_SEED = 0xC0FFEE
DEFAULT_DIMS = ((1, 2, 2), (1, 3, 3), (1, 4, 4), (2, 2, 2), (2, 3, 3), (3, 2, 2), (4, 2, 2))

# Finite difference grid for the derivative-limit check.
P_GRID = (1e-2, 1e-3, 1e-4)
# Scale factors probed by the homogeneity check.
T_FACTORS = (0.5, 2.0, 10.0)
# A strict-contraction tuple must break homogeneity by at least this much.
HOMOGENEITY_BREAK_MIN = 1e-3
# Instance families of the gt_jensen check, cycled by trial index.
GT_FAMILIES = ("general", "golden_thompson", "general", "jensen")


@dataclass(frozen=True)
class CheckConfig:
    """Knobs shared by all checks.

    ``dims`` holds (k, m, n) triples; each check uses the parts it needs
    (single-contraction checks take the matrix dimension from m).
    ``eig_range`` is the eigenvalue sampling window for random PD instances,
    kept away from zero so logarithms stay well conditioned.
    """

    trials: int = 200
    seed: int = DEFAULT_SEED
    dims: tuple = DEFAULT_DIMS
    tol_abs: float = 1e-9
    tol_rel: float = 1e-9
    lambda_samples: tuple = (0.25, 0.5, 0.75)
    eig_range: tuple = (0.05, 5.0)

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(tuple(int(x) for x in d) for d in self.dims))
        object.__setattr__(self, "lambda_samples", tuple(float(x) for x in self.lambda_samples))
        object.__setattr__(self, "eig_range", tuple(float(x) for x in self.eig_range))
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if self.tol_abs <= 0 or self.tol_rel <= 0:
            raise DomainError("tolerances must be positive")
        if not self.dims or any(len(d) != 3 or min(d) < 1 for d in self.dims):
            raise DomainError(f"dims must be non-empty (k, m, n) triples >= 1, got {self.dims}")
        if any(not 0.0 < lam < 1.0 for lam in self.lambda_samples):
            raise DomainError(f"lambda samples must lie in (0, 1), got {self.lambda_samples}")
        lo, hi = self.eig_range
        if not 0.0 < lo <= hi:
            raise DomainError(f"eig_range must satisfy 0 < lo <= hi, got {self.eig_range}")

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "dims": [list(d) for d in self.dims],
            "tol_abs": self.tol_abs,
            "tol_rel": self.tol_rel,
            "lambda_samples": list(self.lambda_samples),
            "eig_range": list(self.eig_range),
        }


@dataclass
class CheckReport:
    """Outcome of one check.

    For ``semantics == "violations"`` the entries in ``violations`` are
    property breaches and passing means the list is empty.  For
    ``semantics == "witness_search"`` the entries are found witnesses (and
    error records) and passing means at least one witness and no error
    record; no witness is inconclusive, not a refutation.
    """

    check_name: str
    semantics: str
    trials_run: int
    violations: list = field(default_factory=list)
    worst_gap: float | None = None
    passed: bool = False
    note: str | None = None
    config: dict | None = None
    extra: dict | None = None

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "semantics": self.semantics,
            "trials_run": self.trials_run,
            "violations": self.violations,
            "worst_gap": self.worst_gap,
            "passed": self.passed,
            "note": self.note,
            "config": self.config,
            "extra": self.extra,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


class Comparison(NamedTuple):
    """One compared pair.  ``dump`` returns the JSON instance of its record;
    ``extra`` holds further record fields."""

    kind: str
    lhs: float
    rhs: float
    gap: float
    tol: float
    dump: Callable[[], dict]
    strict: bool = False
    extra: dict | None = None

    @property
    def breached(self) -> bool:
        return self.gap >= self.tol if self.strict else self.gap > self.tol


@dataclass(frozen=True)
class Check:
    """A check declared as a sampler plus lazy comparisons; see the module
    docstring for what each part must satisfy."""

    name: str
    sample: Callable
    compare: Callable
    functionals: Callable[[], dict]
    fields: dict
    kinds: tuple
    dims: Callable[[CheckConfig], tuple] = lambda cfg: cfg.dims
    semantics: str = "violations"


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Substream for one trial, a pure function of (seed, trial)."""
    return np.random.default_rng([int(seed), int(trial)])


def _pick_dims(rng: np.random.Generator, dims: tuple) -> tuple[int, int, int]:
    return dims[int(rng.integers(len(dims)))]


def _isometric_dims(cfg: CheckConfig) -> tuple:
    dims = tuple(d for d in cfg.dims if d[0] * d[1] >= d[2])
    if not dims:
        raise DomainError("no dims triple satisfies k*m >= n (needed for isometric tuples)")
    return dims


def _lambda_values(cfg: CheckConfig, rng: np.random.Generator) -> tuple:
    # Fixed grid plus one fresh mixing weight per trial.
    return cfg.lambda_samples + (float(rng.uniform(0.01, 0.99)),)


def _random_contraction(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Generic contraction: complex Gaussian rescaled to a random norm < 1."""
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    target = float(rng.uniform(0.2, 1.0))
    return g * (target / np.linalg.norm(g, 2))


def _mix(lam: float, M1, M2) -> PositiveDefiniteMatrix:
    return PositiveDefiniteMatrix(lam * M1.mat + (1.0 - lam) * M2.mat)


def _tol(cfg: CheckConfig, *values: float) -> float:
    return cfg.tol_abs + cfg.tol_rel * max(abs(v) for v in values)


def _dump(**values) -> dict:
    """JSON instance of a record: a MultiInstance merged in at the top level,
    matrices as matrix objects, lists as lists of them, anything else as is."""
    out = {}
    for key, value in values.items():
        if isinstance(value, fn.MultiInstance):
            out.update(multi_instance_to_json(value))
        elif isinstance(value, (list, tuple)):
            out[key] = [matrix_to_json(m) for m in value]
        elif isinstance(value, (np.ndarray, HermitianMatrix)):
            out[key] = matrix_to_json(value)
        else:
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# The run loop and replay, shared by every check.
# ---------------------------------------------------------------------------

def _run(check: Check, cfg: CheckConfig, **hooks) -> CheckReport:
    """Run ``check``; ``hooks`` replace functionals by name (None keeps the
    genuine one)."""
    funcs = check.functionals()
    funcs.update((name, f) for name, f in hooks.items() if f is not None)
    dims = check.dims(cfg)
    search = check.semantics == "witness_search"
    records: list = []
    worst: float | None = None
    for t in range(cfg.trials):
        try:
            instance = check.sample(trial_rng(cfg.seed, t), cfg, dims, t)
            for c in check.compare(instance, cfg, funcs):
                if worst is None or c.gap > worst:
                    worst = float(c.gap)
                if c.breached:
                    records.append(_record(check, t, c))
                    if search:
                        break  # one witness per trial
        except EntropyLabError as exc:
            records.append({"kind": "error", "trial": t, "error": str(exc)})
    passed, note = not records, None
    if search:
        errors = sum(r["kind"] == "error" for r in records)
        found = len(records) - errors
        passed = found > 0 and not errors
        note = (f"found {found} witnesses" if found
                else "inconclusive: no witness found; the searched family may be too tame")
        if errors:
            note += f", {errors} error records"
    return CheckReport(check_name=check.name, semantics=check.semantics, trials_run=cfg.trials,
                       violations=records, worst_gap=worst, passed=passed, note=note,
                       config=cfg.to_dict())


def _record(check: Check, trial: int, c: Comparison) -> dict:
    record = {"kind": c.kind, "trial": trial, **(c.extra or {}),
              "lhs": c.lhs, "rhs": c.rhs, "gap": float(c.gap), "instance": c.dump()}
    if check.semantics == "witness_search":
        # Re-verified from the serialized dump with the genuine functionals.
        redo = _replay(check, json.loads(json.dumps(record)))
        record["reverified_gap"] = float(redo.gap)
        record["reverified"] = bool(abs(redo.gap - c.gap) <= 1e-12)
    else:
        record["tol"] = float(c.tol)
    return record


def _replay(check: Check, record: dict) -> Comparison:
    kind = record.get("kind")
    if kind is not None and kind not in check.kinds:
        raise DomainError(f"check {check.name!r} has no comparison of kind {kind!r}")
    instance = read_fields(record["instance"], check.fields, required=False)
    instance["kind"] = kind
    for c in check.compare(instance, CheckConfig(), check.functionals()):
        if kind is None or c.kind == kind:
            return c
    raise DomainError(f"check {check.name!r}: the record's instance yields no {kind!r} comparison")


# ---------------------------------------------------------------------------
# Samplers and comparisons, one pair per check.
# ---------------------------------------------------------------------------

def _sample_sh(rng, cfg, dims, trial) -> dict:
    _, m, _ = _pick_dims(rng, dims)
    return {"H": _random_contraction(rng, m, m),
            "A1": random_pd(m, cfg.eig_range, rng), "B1": random_pd(m, cfg.eig_range, rng),
            "A2": random_pd(m, cfg.eig_range, rng), "B2": random_pd(m, cfg.eig_range, rng),
            "lam": _lambda_values(cfg, rng)}


def _compare_sh(inst, cfg, f):
    entropy, h = f["entropy"], inst["H"]
    a1, b1, a2, b2 = inst["A1"], inst["B1"], inst["A2"], inst["B2"]
    s1, s2 = entropy(a1, b1, h), entropy(a2, b2, h)
    for lam in inst["lam"]:
        s_mid = entropy(_mix(lam, a1, a2), _mix(lam, b1, b2), h)
        combo = lam * s1 + (1.0 - lam) * s2
        yield Comparison("segment", s_mid, combo, s_mid - combo, _tol(cfg, s_mid, s1, s2),
                         partial(_dump, H=h, A1=a1, B1=b1, A2=a2, B2=b2, lam=lam))


def _sample_phi(rng, cfg, dims, trial) -> dict:
    _, m, n = _pick_dims(rng, dims)
    return {"H": _random_contraction(rng, m, n), "L": random_hermitian(n, 1.0, rng),
            "A1": random_pd(m, cfg.eig_range, rng), "A2": random_pd(m, cfg.eig_range, rng),
            "lam": _lambda_values(cfg, rng)}


def _compare_phi(inst, cfg, f):
    phi, L, h, a1, a2 = f["phi"], inst["L"], inst["H"], inst["A1"], inst["A2"]
    p1, p2 = phi(a1, L, h), phi(a2, L, h)
    for lam in inst["lam"]:
        p_mid = phi(_mix(lam, a1, a2), L, h)
        combo = lam * p1 + (1.0 - lam) * p2
        yield Comparison("segment", combo, p_mid, combo - p_mid, _tol(cfg, p_mid, p1, p2),
                         partial(_dump, L=L, H=h, A1=a1, A2=a2, lam=lam))


def _sample_multi(rng, cfg, dims, trial) -> dict:
    k, m, n = _pick_dims(rng, dims)
    sum_id = bool(rng.integers(2)) and k * m >= n
    tup = random_contraction_tuple(k, m, n, sum_id, rng)
    L = random_hermitian(n, 1.0, rng)
    a1s = [random_pd(m, cfg.eig_range, rng) for _ in range(k)]
    return {"inst": fn.MultiInstance(L=L, H=tup, a_list=a1s),
            "A2": [random_pd(m, cfg.eig_range, rng) for _ in range(k)],
            "lam": _lambda_values(cfg, rng)}


def _compare_multi(inst, cfg, f):
    phi, first = f["phi"], inst["inst"]

    def evaluate(m: fn.MultiInstance):
        # Every value is cross-checked against the block-lift route.
        direct = phi(m)
        lifted = fn.block_lift(m).lifted_value()
        expected = direct + (m.k - 1) * m.H.n
        yield Comparison("block_lift", lifted, expected, abs(lifted - expected),
                         cfg.tol_abs + cfg.tol_rel * abs(direct), partial(_dump, inst=m))
        return direct

    p1 = yield from evaluate(first)
    p2 = yield from evaluate(replace(first, a_list=inst["A2"]))
    for lam in inst["lam"]:
        mids = [_mix(lam, x, y) for x, y in zip(first.a_list, inst["A2"])]
        p_mid = yield from evaluate(replace(first, a_list=mids))
        combo = lam * p1 + (1.0 - lam) * p2
        yield Comparison("segment", combo, p_mid, combo - p_mid, _tol(cfg, p_mid, p1, p2),
                         partial(_dump, inst=first, A2=inst["A2"], lam=lam))


def _sample_gt_jensen(rng, cfg, dims, trial) -> dict:
    family = GT_FAMILIES[trial % len(GT_FAMILIES)]
    k, m, n = _pick_dims(rng, dims)
    if family == "golden_thompson":
        tup = ContractionTuple([np.eye(m)], sum_is_identity=True)
        L = random_hermitian(m, 1.0, rng)
        bs = [random_hermitian(m, 1.0, rng)]
    else:
        tup = random_contraction_tuple(k, m, n, True, rng)
        L = (HermitianMatrix(np.zeros((n, n))) if family == "jensen"
             else random_hermitian(n, 1.0, rng))
        bs = [random_hermitian(m, 1.0, rng) for _ in range(k)]
    return {"kind": family, "inst": fn.MultiInstance(L=L, H=tup, b_list=bs)}


def _compare_gt_jensen(inst, cfg, f):
    m = inst["inst"]
    lhs, rhs = f["lhs"](m), f["rhs"](m)
    yield Comparison(inst["kind"], lhs, rhs, lhs - rhs, _tol(cfg, lhs, rhs),
                     partial(_dump, inst=m))


def _sample_gibbs(rng, cfg, dims, trial) -> dict:
    _, m, _ = _pick_dims(rng, dims)
    return {"B": random_pd(m, cfg.eig_range, rng), "X": random_pd(m, cfg.eig_range, rng)}


def _compare_gibbs(inst, cfg, f):
    objective, B = f["objective"], inst["B"]
    tr_b = B.trace()
    if "X" in inst:  # an equality record dumps B alone
        X = inst["X"]
        val = objective(X, B)
        yield Comparison("bound", val, tr_b, val - tr_b, _tol(cfg, val, tr_b),
                         partial(_dump, X=X, B=B))
    at_max = objective(B, B)
    yield Comparison("equality", at_max, tr_b, abs(at_max - tr_b), _tol(cfg, at_max, tr_b),
                     partial(_dump, B=B))


def _sample_derivative(rng, cfg, dims, trial) -> dict:
    _, m, n = _pick_dims(rng, dims)
    return {"A": random_pd(m, cfg.eig_range, rng), "B": random_pd(n, cfg.eig_range, rng),
            "H": _random_contraction(rng, m, n)}


def _compare_derivative(inst, cfg, f):
    A, B, h = inst["A"], inst["B"], inst["H"]
    g0 = fn.lieb_trace(A, B, h, 0.0)
    d0 = f["derivative"](A, B, h)
    errors = {}
    scale = max(abs(g0), abs(d0))
    for p in P_GRID:
        gp = fn.lieb_trace(A, B, h, p)
        errors[repr(p)] = abs((gp - g0) / p - d0)
        scale = max(scale, abs(gp))
    e_big, e_mid, e_small = errors.values()
    dump = partial(_dump, A=A, B=B, H=h, errors=errors, scale=scale)
    yield Comparison("not_decreasing", e_mid, e_big, e_mid - e_big, 0.0, dump, strict=True)
    yield Comparison("floor_exceeded", e_small, 10.0 * e_mid, e_small - 10.0 * e_mid, 0.0,
                     dump, strict=True)
    yield Comparison("above_scale", e_small, 1e-2 * scale, e_small - 1e-2 * scale, 0.0, dump)


def _route_dims(cfg: CheckConfig) -> tuple:
    dims = tuple(d for d in _isometric_dims(cfg) if d[0] >= 2)
    if not dims:
        raise DomainError("search_gt_route_gap needs at least one dims triple with k >= 2")
    return dims


def _sample_route(rng, cfg, dims, trial) -> dict:
    # Two weights L: a purely random one, and a probe spiked along the top
    # eigendirection of e^(sum H* B H) - sum H* e^B H (a random search over
    # L alone almost never aligns with that thin direction).
    k, m, n = _pick_dims(rng, dims)
    tup = random_contraction_tuple(k, m, n, True, rng)
    bs = [random_hermitian(m, 3.0, rng) for _ in range(k)]
    l_random = random_hermitian(n, float(rng.uniform(0.5, 4.0)), rng)
    alpha = float(rng.uniform(4.0, 14.0))
    zero = HermitianMatrix(np.zeros((n, n)))
    conj = fn._conjugated_sum(zero, tup, [b.mat for b in bs])
    diff = (matrix_exp(HermitianMatrix(conj)).mat
            - fn._conjugated_sum(zero, tup, [matrix_exp(b).mat for b in bs]))
    spike = np.linalg.eigh((diff + diff.conj().T) / 2.0)[1][:, -1:]
    l_probe = HermitianMatrix(alpha * (spike @ spike.conj().T))
    return {"inst": fn.MultiInstance(L=l_random, H=tup, b_list=bs),
            "probe": fn.MultiInstance(L=l_probe, H=tup, b_list=bs)}


def _compare_route(inst, cfg, f):
    for candidate, key in (("random", "inst"), ("probe", "probe")):
        m = inst[key]
        route, rhs = f["route"](m), f["rhs"](m)
        yield Comparison("witness", route, rhs, route - rhs, _tol(cfg, route, rhs),
                         partial(_dump, inst=m), extra={"candidate": candidate})


def _sample_homogeneity(rng, cfg, dims, trial) -> dict:
    k, m, n = _pick_dims(rng, dims)
    tup = random_contraction_tuple(k, m, n, True, rng)
    L = random_hermitian(n, 1.0, rng)
    a_list = [random_pd(m, cfg.eig_range, rng) for _ in range(k)]
    return {"inst": fn.MultiInstance(L=L, H=tup, a_list=a_list), "t": T_FACTORS}


def _compare_homogeneity(inst, cfg, f):
    phi, m = f["phi"], inst["inst"]
    base = phi(m)
    for t in inst["t"]:
        val = phi(replace(m, a_list=[PositiveDefiniteMatrix(t * a.mat) for a in m.a_list]))
        yield Comparison("identity", val, t * base, abs(val - t * base),
                         cfg.tol_abs + cfg.tol_rel * t * abs(base), partial(_dump, inst=m, t=t))


def _strict_contraction_break(cfg: CheckConfig, phi: Callable, dims: tuple,
                              attempts: int = 20) -> dict | None:
    """Find a tuple with sum(H_i* H_i) strictly below I that breaks
    positive homogeneity; shows the isometry condition is needed."""
    for attempt in range(attempts):
        rng = trial_rng(cfg.seed, cfg.trials + attempt)
        try:
            inst = _sample_homogeneity(rng, cfg, dims, attempt)
            m = inst["inst"]
            strict = ContractionTuple([0.9 * b for b in m.H.blocks], sum_is_identity=False)
            inst["inst"] = replace(m, H=strict)
            for c in _compare_homogeneity(inst, cfg, {"phi": phi}):
                if c.gap > HOMOGENEITY_BREAK_MIN:
                    dump = c.dump()
                    return {"attempt": attempt, "t": dump["t"], "lhs": float(c.lhs),
                            "rhs": float(c.rhs), "gap": float(c.gap), "instance": dump}
        except EntropyLabError:
            continue
    return None


_SPECS = {c.name: c for c in (
    Check("sh_convexity", _sample_sh, _compare_sh,
          lambda: {"entropy": fn.reduced_relative_entropy},
          {"H": "matrix", "A1": "pd", "B1": "pd", "A2": "pd", "B2": "pd", "lam": "floats"},
          ("segment",)),
    Check("phi_concavity", _sample_phi, _compare_phi,
          lambda: {"phi": fn.trace_exp_functional},
          {"L": "hermitian", "H": "matrix", "A1": "pd", "A2": "pd", "lam": "floats"},
          ("segment",)),
    Check("multi_concavity", _sample_multi, _compare_multi,
          lambda: {"phi": fn.multi_trace_exp},
          {"inst": "multi", "A2": "pd_list", "lam": "floats"},
          ("block_lift", "segment")),
    Check("gt_jensen", _sample_gt_jensen, _compare_gt_jensen,
          lambda: {"lhs": fn.gt_jensen_lhs, "rhs": fn.gt_jensen_rhs},
          {"inst": "multi"}, GT_FAMILIES, dims=_isometric_dims),
    Check("gibbs_identity", _sample_gibbs, _compare_gibbs,
          lambda: {"objective": fn.gibbs_objective},
          {"B": "pd", "X": "pd"}, ("bound", "equality")),
    Check("derivative_limit", _sample_derivative, _compare_derivative,
          lambda: {"derivative": fn.lieb_trace_derivative_at_zero},
          {"A": "pd", "B": "pd", "H": "matrix"},
          ("not_decreasing", "floor_exceeded", "above_scale")),
    Check("gt_route_gap", _sample_route, _compare_route,
          lambda: {"route": gt_route_value, "rhs": fn.gt_jensen_rhs},
          {"inst": "multi"}, ("witness",), dims=_route_dims, semantics="witness_search"),
    Check("homogeneity", _sample_homogeneity, _compare_homogeneity,
          lambda: {"phi": fn.multi_trace_exp},
          {"inst": "multi", "t": "floats"}, ("identity",), dims=_isometric_dims),
)}


# ---------------------------------------------------------------------------
# The public checks.  Each accepts the functional under test as a keyword.
# ---------------------------------------------------------------------------

def check_sh_convexity(cfg: CheckConfig,
                       entropy_fn: Callable | None = None) -> CheckReport:
    """Joint convexity of the reduced relative entropy on segments."""
    return _run(_SPECS["sh_convexity"], cfg, entropy=entropy_fn)


def check_phi_concavity(cfg: CheckConfig,
                        phi_fn: Callable | None = None) -> CheckReport:
    """Concavity of A -> Tr exp(L + H* log(A) H) on segments."""
    return _run(_SPECS["phi_concavity"], cfg, phi=phi_fn)


def check_multi_concavity(cfg: CheckConfig,
                          phi_fn: Callable | None = None) -> CheckReport:
    """Joint concavity of the k-variable trace exponential, with every
    evaluation cross-checked against the block-lift route."""
    return _run(_SPECS["multi_concavity"], cfg, phi=phi_fn)


def check_gt_jensen(cfg: CheckConfig,
                    lhs_fn: Callable | None = None,
                    rhs_fn: Callable | None = None) -> CheckReport:
    """Tr exp(L + sum H_i* B_i H_i) <= Tr(e^L sum H_i* e^(B_i) H_i) under
    sum(H_i* H_i) = I.  Trials cycle through the general family, the k = 1,
    H = I Golden-Thompson case, and the L = 0 Jensen-trace case."""
    return _run(_SPECS["gt_jensen"], cfg, lhs=lhs_fn, rhs=rhs_fn)


def check_gibbs_identity(cfg: CheckConfig,
                         objective_fn: Callable | None = None) -> CheckReport:
    """Tr(X log B - X log X + X) <= Tr B for all X > 0, with equality at X = B."""
    return _run(_SPECS["gibbs_identity"], cfg, objective=objective_fn)


def check_derivative_limit(cfg: CheckConfig,
                           derivative_fn: Callable | None = None) -> CheckReport:
    """The closed-form derivative of p -> Tr(H B^p H* A^(1-p)) at p = 0 is
    the limit of forward differences: the error must shrink with p and end
    below 1e-2 of the value scale."""
    return _run(_SPECS["derivative_limit"], cfg, derivative=derivative_fn)


def gt_route_value(inst: fn.MultiInstance) -> float:
    """Tr(e^L e^(sum H_i* B_i H_i)): the bound produced by applying the
    Golden-Thompson inequality before splitting the exponential."""
    if inst.b_list is None:
        raise DomainError("gt_route_value needs an instance with b_list")
    arg = HermitianMatrix(fn._conjugated_sum(
        HermitianMatrix(np.zeros((inst.H.n, inst.H.n))), inst.H,
        [b.mat for b in inst.b_list]))
    product = matrix_exp(inst.L).mat @ matrix_exp(arg).mat
    return fn._real_trace(np.trace(product))


def search_gt_route_gap(cfg: CheckConfig,
                        route_fn: Callable | None = None,
                        rhs_fn: Callable | None = None) -> CheckReport:
    """Hunt for instances where the Golden-Thompson-first bound exceeds the
    commuting-case bound, demonstrating that the former cannot imply the
    latter.  Each trial draws a random isometric tuple and self-adjoint B_i
    and tries a random and a spiked weight L; witnesses are re-verified
    from their serialized dump before being recorded."""
    return _run(_SPECS["gt_route_gap"], cfg, route=route_fn, rhs=rhs_fn)


def check_homogeneity(cfg: CheckConfig,
                      phi_fn: Callable | None = None) -> CheckReport:
    """phi(t A_1 .. t A_k) = t phi(A_1 .. A_k) whenever sum(H_i* H_i) = I,
    and provably not otherwise: the check also exhibits a strict-contraction
    instance that breaks the identity by a visible margin."""
    spec = _SPECS["homogeneity"]
    report = _run(spec, cfg, phi=phi_fn)
    counterexample = _strict_contraction_break(cfg, phi_fn or fn.multi_trace_exp, spec.dims(cfg))
    if counterexample is None:
        report.violations.append({
            "kind": "counterexample_missing", "trial": -1,
            "error": "no strict-contraction instance broke homogeneity by "
                     f"more than {HOMOGENEITY_BREAK_MIN}",
        })
        report.passed = False
    report.extra = {"strict_contraction_counterexample": counterexample}
    return report


CHECKS: dict[str, Callable[[CheckConfig], CheckReport]] = {
    "sh_convexity": check_sh_convexity,
    "phi_concavity": check_phi_concavity,
    "multi_concavity": check_multi_concavity,
    "gt_jensen": check_gt_jensen,
    "gibbs_identity": check_gibbs_identity,
    "derivative_limit": check_derivative_limit,
    "gt_route_gap": search_gt_route_gap,
    "homogeneity": check_homogeneity,
}


def run_check(name: str, cfg: CheckConfig) -> CheckReport:
    if name not in CHECKS:
        raise DomainError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    return CHECKS[name](cfg)


def run_all(cfg: CheckConfig, names: list[str] | None = None) -> list[CheckReport]:
    return [run_check(name, cfg) for name in (names or list(CHECKS))]


def re_evaluate(check_name: str, record: dict) -> dict:
    """Recompute the comparison stored in a violation or witness record from
    its serialized instance, with the genuine functionals; returns
    ``{"lhs", "rhs", "gap"}`` for every check.  Used to confirm dumps
    reproduce their gaps."""
    if check_name not in _SPECS:
        raise DomainError(f"no re-evaluation rule for check {check_name!r}")
    c = _replay(_SPECS[check_name], record)
    return {"lhs": c.lhs, "rhs": c.rhs, "gap": c.gap}
