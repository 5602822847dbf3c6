"""Randomized property testing of the convexity, concavity, equality, and
inequality claims about the trace functionals.

Each check is declared as a :class:`Check` rather than written as a loop:

- ``draw(rng, kmn, trial) -> draw`` makes one trial's generator
  calls, from the trial's substream, after the run loop has picked the
  trial's (k, m, n) triple from that substream, and nothing else: it
  returns the drawn numbers and the trial's labels (gt_jensen's family;
  an isometric tuple has the scale 1.0).  Its calls keep the
  order of the one-pass samplers it replaced; reordering two changes every
  later number of the substream, and so the reports;
- ``build(draw) -> instance`` does everything else and owns every check
  (Hermitian, PD floor, contraction norm, Gram bound, identity sum), and
  assembles each drawn complex Gaussian, kept as its raw real and
  imaginary parts, once per group: it
  makes the instance, a dict of typed values, from one draw, or one
  instance of stacked values from a group of draws stacked along a leading
  axis, each entry with the bits of building its draw alone.  It makes one
  builder call per shape (:func:`_fused`): a group's same-shape fields, such
  as sh_convexity's A1, B1, A2 and B2, are built as one stack, as many to a
  call as fit ``BLOCK_BYTES``;
- ``compare(instance, cfg, functionals)`` is a lazy generator of
  :class:`Comparison` s (kind, lhs, rhs, gap, tol, strict), each holding
  the values that its record's instance dump is made of;
- ``functionals()`` looks up the genuine functionals at call time, and the
  check's keyword hooks replace them, so the harness self-test can corrupt
  a functional and prove the check is not vacuous;
- ``fields`` gives the kind of each key of a dumped instance (see
  ``serialization.read_fields``), and ``kinds`` the comparison kinds.
  Where a record's instance is that of an ``eval`` functional (gt_jensen,
  gibbs_identity, derivative_limit and gt_route_gap), ``fields`` is read
  from ``functionals.FUNCTIONALS``, so the record is an ``eval`` instance;
- ``key(kmn, draw)`` is the shapes of a draw and nothing else: the dims
  it uses.  Draws of one key stack together, and a label that differs per
  trial (gt_jensen's family, a tuple's ``sum_is_identity``) stacks like a
  per-trial number.

One run loop (:func:`_run`) serves every check.  Trial i uses the substream
derived from (seed, i), :func:`trial_rng`, so results are bit-identical
across runs and independent of execution order.  ``matrix_core._substreams``
gives the loop each trial's generator: ``trial_rng`` itself in a run of at
most ``SUBSTREAM_DIRECT`` trials, and otherwise one reused Generator set to
each trial's state, seeded in chunks of trials, bit-equal to ``trial_rng``
(and checked against NumPy's own seeding at the first trial).
A comparison breaches when gap > tol (gap >= tol if strict); a record is
built only on a breach.  Every tolerance comes from :func:`_tol`: tol_abs +
tol_rel * scale, scale the largest magnitude it is given (derivative_limit's
ratios and ``HOMOGENEITY_BREAK_MIN`` are thresholds).  A trial that raises
an EntropyLabError becomes an error record ``{"kind": "error", "trial",
"error"}`` and the check goes on.

The loop draws the trials in order, each alone and once, and appends each
draw to the pending group of its key.  A group runs once it holds as many
trials as keep its largest matrix stack within ``BLOCK_BYTES``, a cap set
per key from the ``order`` of that group's dims, and every group still
pending runs at the end; so each key is usually built and compared once
per check.  A group runs as one instance of (T, n, n) stacks and per-trial
weight arrays, through one lazy ``compare`` pass, with the same functionals
and generators that serve a single instance.  Every stacked value has the
bits of its trial's own value, so each trial's gaps and records come from
its entry of the stacked comparisons: kind, lhs, rhs, gap, tol, extra, and the
dump of the trial's slice of the held values (for the witness search, the
gaps up to the first breach and one record).  One walk, :func:`_stacked`,
stacks draws, or the fields of a fused build, and takes an entry (:func:`_slice`).
A group whose build, compare or re-verification raises is split in halves,
down to stacks of one trial; such a trial keeps what it recorded before the
raise and gets its error record.  There is no other trial path: a lone
trial is a stack of one.  The results are merged in trial order, so the
report does not depend on the order in which groups run.

A segment check evaluates its functional at several points per instance:
the two ends and the mix at each weight of ``lam`` (sh_convexity,
phi_concavity, multi_concavity), or the base and each scale of
``T_FACTORS`` (homogeneity).  ``compare`` gives these points a leading axis
(:func:`_by_point`): the ends keep their checked spectra, the mixes at a
pass's weights are built as one (P, T, n, n) stack, and the functionals
broadcast it against the group's (T, n, n) values and return (P, T)
values.  The points run in as few passes as keep every matrix stack of a
pass, point axis included, within ``BLOCK_BYTES``: at n <= 4 a pass
usually holds every point, and when a group alone fills the budget (8 trials
at n = 32) each pass holds one.  The comparisons come out in point order,
each from its point's entry, with the bits of evaluating that point alone.
Every "segment" comparison, the value at a mix against the chord of the
end values, is built by :func:`_chord`.  A raise inside a pass comes before
any comparison of that pass, so a lone trial that raises there keeps the
gaps and records of earlier passes only.

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
replaying its JSON dump (the dumps of a group's record kind make one JSON
round trip, are read back as one stack by ``read_fields`` and are compared
at once), and passes when it finds one and no trial errored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import partial, reduce
from itertools import groupby, islice
from typing import Callable, Hashable, NamedTuple

import numpy as np

from . import functionals as fn
from .errors import DimensionError, DomainError, EntropyLabError, ParseError
from .matrix_core import (
    EIG_RANGE,
    Contraction,
    ContractionTuple,
    HermitianMatrix,
    PositiveDefiniteMatrix,
    _adjoint,
    _build_contraction,
    _build_hermitian,
    _build_pd,
    _build_tuple,
    _complex_gaussian,
    _draw_contraction,
    _draw_pd,
    _combined,
    _draw_tuple,
    _joined,
    _per_entry,
    _per_matrix,
    _scaled_pd,
    _substreams,
    checked_int,
    checked_seed,
    checked_tolerance,
    matrix_exp,
    spectral_decompose,
)
from .serialization import dumps, matrix_to_json, multi_instance_to_json, read_fields

DEFAULT_SEED = 0xC0FFEE
DEFAULT_DIMS = ((1, 2, 2), (1, 3, 3), (1, 4, 4), (2, 2, 2), (2, 3, 3), (3, 2, 2), (4, 2, 2))

# Mixing weights of every segment, before the one drawn per trial.
LAMBDA_SAMPLES = (0.25, 0.5, 0.75)
# Finite difference grid for the derivative-limit check.
P_GRID = (1e-2, 1e-3, 1e-4)
# Scale factors probed by the homogeneity check.
T_FACTORS = (0.5, 2.0, 10.0)
# A strict-contraction tuple must break homogeneity by at least this much.
HOMOGENEITY_BREAK_MIN = 1e-3
# Attempts of the strict-contraction search, one trial each after the check's.
BREAK_ATTEMPTS = 20
# Instance families of the gt_jensen check, cycled by trial index.
GT_FAMILIES = ("general", "golden_thompson", "general", "jensen")
# Bytes of the largest matrix stack that a group, one pass of a group over the
# points of a segment, or one fused build of a group's same-shape fields may
# build: 2048 trials of 2 x 2 matrices, 128 at k = 4 in multi_concavity (8 x 8
# lift), 8 at n = 32.  Swept on check_large (BENCH_25.json): 64/128/256 KiB:
# 0.69/0.64/0.61 s, 44.1/45.5/47.5 MB peak RSS.
BLOCK_BYTES = 1 << 17


@dataclass(frozen=True)
class CheckConfig:
    """Knobs shared by all checks.

    ``dims`` holds (k, m, n) triples; each check uses the parts it needs
    (single-contraction checks take the matrix dimension from m).  The
    instance distribution is fixed: PD eigenvalues are drawn from
    ``matrix_core.EIG_RANGE`` and segments mix at ``LAMBDA_SAMPLES`` plus
    one drawn weight; :meth:`to_dict` records both with the settings.
    """

    trials: int = 200
    seed: int = DEFAULT_SEED
    dims: tuple = DEFAULT_DIMS
    tol_abs: float = 1e-9
    tol_rel: float = 1e-9

    def __post_init__(self):
        # Every setting is stored as a Python number, which the report can
        # write; counts, seed and orders as ints, which no boolean or float is.
        object.__setattr__(self, "dims", tuple(tuple(checked_int(x, "dims entry") for x in d)
                                               for d in self.dims))
        object.__setattr__(self, "trials", checked_int(self.trials, "trials"))
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        object.__setattr__(self, "seed", checked_seed(self.seed))
        for tol in ("tol_abs", "tol_rel"):
            object.__setattr__(self, tol, checked_tolerance(getattr(self, tol), tol))
        if not self.dims or any(len(d) != 3 or min(d) < 1 for d in self.dims):
            raise DomainError(f"dims must be non-empty (k, m, n) triples >= 1, got {self.dims}")

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "dims": [list(d) for d in self.dims],
            "tol_abs": self.tol_abs,
            "tol_rel": self.tol_rel,
            "lambda_samples": list(LAMBDA_SAMPLES),
            "eig_range": list(EIG_RANGE),
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
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return dumps(self.to_dict())


class Comparison(NamedTuple):
    """One compared pair.  ``dump`` holds the values that the JSON instance
    of its record is made of (see :func:`_dump`); ``extra`` holds further
    record fields.  In a stacked comparison ``kind`` may be one label per
    trial, as lhs and rhs are one value per trial."""

    kind: str
    lhs: float
    rhs: float
    gap: float
    tol: float
    dump: dict
    strict: bool = False
    extra: dict | None = None

    @property
    def breached(self) -> bool:
        return self.gap >= self.tol if self.strict else self.gap > self.tol


@dataclass(frozen=True)
class Check:
    """A check declared as a draw, a build and lazy comparisons; see the
    module docstring for what each part must satisfy.  In short, ``draw``
    makes only generator calls, in their fixed order, after the pick of the
    trial's dims, and ``build`` owns every check, on one draw or on a stack
    of same-key draws."""

    name: str
    draw: Callable
    build: Callable
    compare: Callable
    functionals: Callable[[], dict]
    fields: dict
    kinds: tuple
    dims: Callable[[CheckConfig], tuple] = lambda cfg: cfg.dims
    semantics: str = "violations"
    # Order of the largest matrix that a trial of dims (k, m, n) builds.
    order: Callable[[int, int, int], int] = lambda k, m, n: max(m, n)
    # The shapes of a trial's draw of dims (k, m, n), from the dims it uses;
    # draws of one key stack, their labels one per trial.
    key: Callable[[tuple, dict], Hashable] = lambda kmn, draw: kmn


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


def _lambda_values(rng: np.random.Generator) -> tuple:
    # Fixed grid plus one fresh mixing weight per trial.
    return LAMBDA_SAMPLES + (float(rng.uniform(0.01, 0.99)),)


def _scaled(w, M) -> np.ndarray:
    """w M for a weight w, or each matrix of the stack M times its entry of w."""
    return _per_entry(w) * M.mat


def _mix(lam, M1, M2) -> PositiveDefiniteMatrix:
    return PositiveDefiniteMatrix(_scaled(lam, M1) + _scaled(1.0 - lam, M2))


def _stack_bytes(order: int, count: int = 1) -> int:
    """Bytes of a stack of ``count`` complex matrices of order ``order``."""
    return count * order * order * np.dtype(np.complex128).itemsize


def _by_point(evaluate: Callable, n_ends: int, weights: tuple, point_bytes: int):
    """Walk the points of a segment: ``n_ends`` ends, then one per weight.

    The points run in passes of as many consecutive points as keep every
    matrix stack within BLOCK_BYTES, given ``point_bytes``, the bytes of the
    largest stack of one point.  ``evaluate(points)`` computes a pass; it
    builds each argument with ``points(ends, make)``, one value whose leading
    axis holds the pass's points: its share of the checked values ``ends``,
    which keep their spectra, then ``make(w, *ends)`` at its weights ``w``
    (an array, points first).  Yields (weight, j, result) per point, in
    order: its weight (None at an end), its index j in its pass, and the
    result of its pass."""
    size = max(1, BLOCK_BYTES // point_bytes)
    total = n_ends + len(weights)
    for start in range(0, total, size):
        stop = min(start + size, total)
        kept = slice(min(start, n_ends), min(stop, n_ends))
        w = np.array(weights[max(start - n_ends, 0):max(stop - n_ends, 0)])
        result = evaluate(partial(_points, kept, w))
        for j, at in enumerate(range(start, stop)):
            yield (weights[at - n_ends] if at >= n_ends else None), j, result


def _same_shape(**ends) -> None:
    """Check that the ends of a segment, values or lists of values, have one
    shape.  Ends read back from a dump may not, which is a DimensionError
    naming them, raised before they are stacked."""
    shapes = {name: [v.mat.shape for v in end] if isinstance(end, (list, tuple)) else end.mat.shape
              for name, end in ends.items()}
    first, *rest = shapes.values()
    if any(shape != first for shape in rest):
        raise DimensionError("segment ends differ in shape: "
                             + ", ".join(f"{name} {shape}" for name, shape in shapes.items()))


def _points(kept: slice, w: np.ndarray, ends: list, make: Callable):
    """The ends ``ends[kept]``, then ``make(w, *ends)``, along one axis."""
    parts = [_stacked(ends[kept])] if kept.stop > kept.start else []
    if len(w):
        parts.append(make(w, *ends))
    return _joined(parts)


def _max(*values):
    """The largest value, or the entrywise largest of per-trial arrays."""
    return _per_matrix(reduce(np.maximum, values))


def _tol(cfg: CheckConfig, *values):
    return cfg.tol_abs + cfg.tol_rel * _max(*map(abs, values))


def _chord(cfg: CheckConfig, lam, ends, mid, concave: bool = False, **held) -> Comparison:
    """The "segment" comparison at weight ``lam`` of the value ``mid`` with the chord
    of the end values ``ends`` (mid <= chord if convex, chord <= mid if concave)."""
    combo = lam * ends[0] + (1.0 - lam) * ends[1]
    lhs, rhs = (combo, mid) if concave else (mid, combo)
    return Comparison("segment", lhs, rhs, lhs - rhs, _tol(cfg, mid, *ends), dict(held, lam=lam))


def _dump(**values) -> dict:
    """JSON instance of a record: a MultiInstance merged in at the top level,
    matrices as matrix objects, lists as lists of them, anything else as is."""
    out = {}
    for key, value in values.items():
        if isinstance(value, fn.MultiInstance):
            out.update(multi_instance_to_json(value))
        elif isinstance(value, (list, tuple)):
            out[key] = [matrix_to_json(m) for m in value]
        elif isinstance(value, (np.ndarray, HermitianMatrix, Contraction)):
            out[key] = matrix_to_json(value)
        else:
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# The run loop and replay, shared by every check.
# ---------------------------------------------------------------------------

def _run(check: Check, cfg: CheckConfig, first: int = 0, **hooks) -> CheckReport:
    """Run ``check`` on the ``cfg.trials`` trials from ``first``; ``hooks``
    replace functionals by name (None keeps the genuine one)."""
    funcs = check.functionals()
    funcs.update((name, f) for name, f in hooks.items() if f is not None)
    dims = check.dims(cfg)
    caps, pending, results = {}, {}, {}
    for t, rng in _substreams(cfg.seed, first, cfg.trials):
        kmn = _pick_dims(rng, dims)
        draw = check.draw(rng, kmn, t)
        key = check.key(kmn, draw)
        if key not in caps:
            caps[key] = _group_cap(check, kmn)
        group = pending.setdefault(key, [])
        group.append((t, draw))
        if len(group) == caps[key]:
            results.update(_run_group(check, cfg, funcs, pending.pop(key)))
    for group in pending.values():
        results.update(_run_group(check, cfg, funcs, group))
    records: list = []
    worst: float | None = None
    for t in range(first, first + cfg.trials):
        trial_records, gaps = results[t]
        records += trial_records
        for gap in gaps:
            if worst is None or gap > worst:
                worst = gap
    passed, note = not records, None
    if check.semantics == "witness_search":
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


def _group_cap(check: Check, kmn: tuple) -> int:
    """Trials per group of a key first drawn at dims ``kmn``, so that
    no stack of the group exceeds BLOCK_BYTES.  Every trial of a key
    builds the same shapes, so the order of any of their dims bounds them."""
    return max(1, BLOCK_BYTES // _stack_bytes(check.order(*kmn)))


def _run_group(check: Check, cfg: CheckConfig, funcs: dict, group: list) -> dict:
    """{trial: (records, gaps)} for a group of same-key (trial, draw)
    pairs.

    The group is built as one stack and its comparisons are walked lazily;
    each live trial takes its gap, and its record on a breach, from its
    entry of each stacked comparison.  A witness trial leaves at its first
    breach and the walk ends once no trial is live; the witnesses are then
    re-verified together.  A part of the group whose build, comparisons or
    re-verification raise is split in halves, and a part of one trial that
    raises keeps the gaps and records it had, less an unverified witness,
    and gets an error record."""
    search = check.semantics == "witness_search"
    out = {}
    parts = [group]
    while parts:
        part = parts.pop()
        records, gaps = [[] for _ in part], [[] for _ in part]
        live = range(len(part))
        try:
            instance = check.build(_stacked([draw for _, draw in part]))
            for c in check.compare(instance, cfg, funcs):
                gap = np.broadcast_to(c.gap, len(part)).tolist()
                hit = np.broadcast_to(c.breached, len(part)).tolist()
                for i in live:
                    gaps[i].append(gap[i])
                    if hit[i]:
                        records[i].append(_record(check, part[i][0], c, i))
                if search:
                    live = [i for i in live if not hit[i]]  # one witness per trial
                    if not live:
                        break
            if search:
                _reverify(check, [r for trial_records in records for r in trial_records])
        except EntropyLabError as exc:
            if len(part) > 1:
                parts += [part[:len(part) // 2], part[len(part) // 2:]]
                continue
            if search:
                records[0].clear()  # a witness here is one whose re-verification raised
            records[0].append({"kind": "error", "trial": part[0][0], "error": str(exc)})
        out.update((t, (records[i], gaps[i])) for i, (t, _) in enumerate(part))
    return out


def _stacked(values: list, join: Callable = np.array):
    """One value stacked from values of one shape (draws of one key, or the
    same-shape fields of a build): arrays as stacks, floats and strings
    that differ as arrays, checked matrix values as stacked values that are
    not checked again, dicts, sequences and dataclasses field by field,
    anything else as it is.  Each array is ``join`` of the list of its
    values' arrays (np.array stacks as np.stack does, in half the time),
    and a number is made a float and a label a str: so a ``join`` that
    takes entry i of a one-value list gives that value's entry i
    (:func:`_slice`)."""
    first = values[0]
    if isinstance(first, dict):
        return {key: _stacked([v[key] for v in values], join) for key in first}
    if isinstance(first, (list, tuple)):
        return type(first)(_stacked(list(column), join) for column in zip(*values))
    if is_dataclass(first):
        return type(first)(**{f.name: _stacked([getattr(v, f.name) for v in values], join)
                              for f in fields(first)})
    if isinstance(first, (HermitianMatrix, Contraction, ContractionTuple)):
        return _combined(values, join)
    if isinstance(first, (np.ndarray, float)):
        out = join(values)
        return str(out) if isinstance(out, np.str_) else _per_matrix(out)
    if isinstance(first, str) and values.count(first) < len(values):
        return np.array(values)  # labels that differ, one per entry
    return first


def _slice(value, i: int):
    """Entry i of a stacked value, as the build of its trial alone makes it:
    2-d values (with the stack's checks and cached spectra) and floats; a
    number that holds for every trial is that number."""
    return _stacked([value], lambda parts: parts[0][i] if np.ndim(parts[0]) else parts[0])


def _fused(build: Callable, fields: list, *args) -> list:
    """``[build(*field, *args) for field in fields]``, a field being a tuple of
    stacked arguments or one stacked argument.  Each run of consecutive
    same-shape fields is joined along a new leading axis (:func:`_stacked`),
    built by one call per as many fields as keep the joined stack within
    BLOCK_BYTES, and split (:func:`_slice`): each value has the bits, the kept
    spectrum or its absence and the ``min_eigenvalue`` of its own build.  A
    call that raises is redone field by field, so the first field that fails
    raises its own error."""
    fields = [f if isinstance(f, tuple) else (f,) for f in fields]
    out = []
    for _, run in groupby(fields, lambda f: _largest(f).shape):
        run = list(run)
        size = max(1, BLOCK_BYTES // _largest(run[0]).nbytes)
        for part in (run[start:start + size] for start in range(0, len(run), size)):
            if len(part) > 1:
                try:
                    value = build(*_stacked(part), *args)
                except EntropyLabError:
                    pass  # built field by field below, where the failing field raises
                else:
                    out += [_slice(value, i) for i in range(len(part))]
                    continue
            out += [build(*f, *args) for f in part]
    return out


def _largest(field: tuple) -> np.ndarray:
    """The array of a field's last argument (a draw's Gaussian parts, or a
    value's matrix), the largest that its build makes."""
    return getattr(field[-1], "mat", field[-1])


def _fused_pd(d: dict, *keys) -> dict:
    """{key: the PD value of the draw d[key]} for ``keys``, built by :func:`_fused`."""
    return dict(zip(keys, _fused(_build_pd, [d[key] for key in keys])))


def _record(check: Check, trial: int, c: Comparison, i: int) -> dict:
    """The record of entry i of a stacked comparison c, with entry i's kind
    and the dump of that entry's slice of the values c holds.  A witness
    record gets its re-verification from :func:`_reverify`."""
    kind = c.kind if isinstance(c.kind, str) else _slice(c.kind, i)
    record = {"kind": kind, "trial": trial, **(c.extra or {}),
              "lhs": _slice(c.lhs, i), "rhs": _slice(c.rhs, i), "gap": _slice(c.gap, i),
              "instance": _dump(**_slice(c.dump, i))}
    if check.semantics != "witness_search":
        record["tol"] = _slice(c.tol, i)
    return record


def _reverify(check: Check, records: list) -> None:
    """Re-verify witness records from their serialized dumps with the
    genuine functionals.  The dumps of each record kind make one JSON round
    trip as a list, are read back with ``fields`` as one stack, and are
    compared once; each record gets its replayed gap and whether it is
    within 1e-12 of its own."""
    kinds: dict = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r)
    for kind, same in kinds.items():
        dumped = json.loads(json.dumps([r["instance"] for r in same]))
        read = read_fields(dumped, check.fields, required=False)
        redo = np.broadcast_to(_replay(check, kind, read).gap, len(same)).tolist()
        for r, gap in zip(same, redo):
            r["reverified_gap"] = gap
            r["reverified"] = abs(gap - r["gap"]) <= 1e-12


class _ReadBack(dict):
    """An instance read back from a dump: a key that ``compare`` reads and
    the dump lacks is a ParseError naming it."""

    def __missing__(self, key):
        raise ParseError(f"instance: missing key {key!r}, which the comparison reads")


def _replay(check: Check, kind: str | None, instance: dict) -> Comparison:
    """The first comparison of ``kind`` (the first at all for None) on an
    instance read back from a dump, or on a stack of them, with the genuine
    functionals."""
    instance = _ReadBack(instance, kind=kind)
    for c in check.compare(instance, CheckConfig(), check.functionals()):
        if kind is None or c.kind == kind:
            return c
    raise DomainError(f"check {check.name!r}: the record's instance yields no {kind!r} comparison")


# ---------------------------------------------------------------------------
# Draws, builds and comparisons, one triple per check.
# ---------------------------------------------------------------------------

def _draw_sh(rng, kmn, trial) -> dict:
    _, m, _ = kmn
    return {"H": _draw_contraction(rng, m, m),
            "A1": _draw_pd(rng, m, *EIG_RANGE), "B1": _draw_pd(rng, m, *EIG_RANGE),
            "A2": _draw_pd(rng, m, *EIG_RANGE), "B2": _draw_pd(rng, m, *EIG_RANGE),
            "lam": _lambda_values(rng)}


def _build_sh(d: dict) -> dict:
    return {"H": _build_contraction(*d["H"]), **_fused_pd(d, "A1", "B1", "A2", "B2"),
            "lam": d["lam"]}


def _batch(value) -> int:
    """Number of matrices in the stack of a value (1 for a 2-d value)."""
    return int(np.prod(value.mat.shape[:-2]))


def _compare_sh(inst, cfg, f):
    entropy, h = f["entropy"], inst["H"]
    a1, b1, a2, b2 = inst["A1"], inst["B1"], inst["A2"], inst["B2"]
    _same_shape(A1=a1, A2=a2)
    _same_shape(B1=b1, B2=b2)
    walk = _by_point(lambda points: entropy(points([a1, a2], _mix), points([b1, b2], _mix), h),
                     2, inst["lam"], _stack_bytes(a1.dim, _batch(a1)))
    ends = [values[j] for _, j, values in islice(walk, 2)]
    for lam, j, values in walk:
        yield _chord(cfg, lam, ends, values[j], H=h, A1=a1, B1=b1, A2=a2, B2=b2)


def _draw_phi(rng, kmn, trial) -> dict:
    _, m, n = kmn
    return {"H": _draw_contraction(rng, m, n), "L": _complex_gaussian(rng, n, n),
            "A1": _draw_pd(rng, m, *EIG_RANGE), "A2": _draw_pd(rng, m, *EIG_RANGE),
            "lam": _lambda_values(rng)}


def _build_phi(d: dict) -> dict:
    return {"H": _build_contraction(*d["H"]), "L": _build_hermitian(d["L"]),
            **_fused_pd(d, "A1", "A2"), "lam": d["lam"]}


def _compare_phi(inst, cfg, f):
    phi, L, h, a1, a2 = f["phi"], inst["L"], inst["H"], inst["A1"], inst["A2"]
    _same_shape(A1=a1, A2=a2)
    walk = _by_point(lambda points: phi(points([a1, a2], _mix), L, h),
                     2, inst["lam"], _stack_bytes(max(a1.dim, L.dim), _batch(L)))
    ends = [values[j] for _, j, values in islice(walk, 2)]
    for lam, j, values in walk:
        yield _chord(cfg, lam, ends, values[j], concave=True, L=L, H=h, A1=a1, A2=a2)


def _draw_multi(rng, kmn, trial) -> dict:
    k, m, n = kmn
    sum_id = bool(rng.integers(2)) and k * m >= n
    return {"H": _draw_tuple(rng, k, m, n, sum_id), "L": _complex_gaussian(rng, n, n),
            "A1": [_draw_pd(rng, m, *EIG_RANGE) for _ in range(k)],
            "A2": [_draw_pd(rng, m, *EIG_RANGE) for _ in range(k)],
            "lam": _lambda_values(rng)}


def _build_multi(d: dict) -> dict:
    tup = _build_tuple(*d["H"])
    L = _build_hermitian(d["L"])
    a_s = _fused(_build_pd, d["A1"] + d["A2"])
    return {"inst": fn.MultiInstance(L=L, H=tup, a_list=a_s[:tup.k]),
            "A2": a_s[tup.k:], "lam": d["lam"]}


def _compare_multi(inst, cfg, f):
    phi, first = f["phi"], inst["inst"]
    # A block_lift record dumps its instance alone, which is then the one point.
    ends = [first.a_list] + ([inst["A2"]] if "A2" in inst else [])
    _same_shape(**dict(zip(("A", "A2"), ends)))

    def evaluate(points):
        m = replace(first, a_list=[points([a[i] for a in ends], _mix) for i in range(first.k)])
        # Every value is cross-checked against the block-lift route.
        return m.a_list, phi(m), fn.block_lift(m).lifted_value()

    p_ends = []
    walk = _by_point(evaluate, len(ends), inst.get("lam", ()),
                     _stack_bytes(first.k * max(first.H.m, first.H.n), _batch(first.L)))
    for lam, j, (a_lists, directs, lifteds) in walk:
        m = replace(first, a_list=_slice(a_lists, j))
        direct, lifted = directs[j], lifteds[j]
        expected = direct + (m.k - 1) * m.H.n
        yield Comparison("block_lift", lifted, expected, abs(lifted - expected),
                         _tol(cfg, direct), dict(inst=m))
        if lam is None:
            p_ends.append(direct)
            continue
        yield _chord(cfg, lam, p_ends, direct, concave=True, inst=first, A2=inst["A2"])


def _draw_gt_jensen(rng, kmn, trial) -> dict:
    # The Golden-Thompson family takes H = I and draws no tuple; the Jensen
    # family takes L = 0, held as zero parts, and draws no L, so that its
    # draws have the shapes of the general family's.
    family = GT_FAMILIES[trial % len(GT_FAMILIES)]
    k, m, n = kmn
    if family == "golden_thompson":
        return {"kind": family, "H": None, "L": _complex_gaussian(rng, m, m),
                "B": [_complex_gaussian(rng, m, m)]}
    return {"kind": family, "H": _draw_tuple(rng, k, m, n, True),
            "L": np.zeros((2, n, n)) if family == "jensen" else _complex_gaussian(rng, n, n),
            "B": [_complex_gaussian(rng, m, m) for _ in range(k)]}


def _build_gt_jensen(d: dict) -> dict:
    if d["H"] is None:
        shape = d["B"][0].shape  # (..., 2, m, m): drawn parts
        tup = ContractionTuple([np.tile(np.eye(shape[-1]), shape[:-3] + (1, 1))],
                               sum_is_identity=True)
    else:
        tup = _build_tuple(*d["H"])
    return {"kind": d["kind"], "inst": fn.MultiInstance(
        L=_build_hermitian(d["L"]), H=tup, b_list=_fused(_build_hermitian, d["B"]))}


def _compare_gt_jensen(inst, cfg, f):
    m = inst["inst"]
    lhs, rhs = f["lhs"](m), f["rhs"](m)
    yield Comparison(inst["kind"], lhs, rhs, lhs - rhs, _tol(cfg, lhs, rhs),
                     dict(inst=m))


def _draw_gibbs(rng, kmn, trial) -> dict:
    _, m, _ = kmn
    return {"B": _draw_pd(rng, m, *EIG_RANGE), "X": _draw_pd(rng, m, *EIG_RANGE)}


def _build_gibbs(d: dict) -> dict:
    return _fused_pd(d, "B", "X")


def _compare_gibbs(inst, cfg, f):
    objective, B = f["objective"], inst["B"]
    tr_b = B.trace()
    if "X" in inst:  # an equality record dumps B alone
        X = inst["X"]
        val = objective(X, B)
        yield Comparison("bound", val, tr_b, val - tr_b, _tol(cfg, val, tr_b),
                         dict(X=X, B=B))
    at_max = objective(B, B)
    yield Comparison("equality", at_max, tr_b, abs(at_max - tr_b), _tol(cfg, at_max, tr_b),
                     dict(B=B))


def _draw_derivative(rng, kmn, trial) -> dict:
    _, m, n = kmn
    return {"A": _draw_pd(rng, m, *EIG_RANGE), "B": _draw_pd(rng, n, *EIG_RANGE),
            "H": _draw_contraction(rng, m, n)}


def _build_derivative(d: dict) -> dict:
    return {**_fused_pd(d, "A", "B"), "H": _build_contraction(*d["H"])}


def _compare_derivative(inst, cfg, f):
    A, B, h = inst["A"], inst["B"], inst["H"]
    weights = fn._lieb_overlap(A, B, h)  # one overlap for every p
    g0 = fn._lieb_sum(weights, A, B, 0.0)
    d0 = f["derivative"](A, B, h)
    errors = {}
    scale = _max(abs(g0), abs(d0))
    for p in P_GRID:
        gp = fn._lieb_sum(weights, A, B, p)
        errors[repr(p)] = abs((gp - g0) / p - d0)
        scale = _max(scale, abs(gp))
    e_big, e_mid, e_small = errors.values()
    dump = dict(A=A, B=B, H=h, errors=errors, scale=scale)
    yield Comparison("not_decreasing", e_mid, e_big, e_mid - e_big, 0.0, dump, strict=True)
    yield Comparison("floor_exceeded", e_small, 10.0 * e_mid, e_small - 10.0 * e_mid, 0.0,
                     dump, strict=True)
    yield Comparison("above_scale", e_small, 1e-2 * scale, e_small - 1e-2 * scale, 0.0, dump)


def _route_dims(cfg: CheckConfig) -> tuple:
    dims = tuple(d for d in _isometric_dims(cfg) if d[0] >= 2)
    if not dims:
        raise DomainError("search_gt_route_gap needs at least one dims triple with k >= 2")
    return dims


def _draw_route(rng, kmn, trial) -> dict:
    k, m, n = kmn
    return {"H": _draw_tuple(rng, k, m, n, True),
            "B": [_complex_gaussian(rng, m, m) for _ in range(k)],
            "L_scale": float(rng.uniform(0.5, 4.0)), "L": _complex_gaussian(rng, n, n),
            "alpha": float(rng.uniform(4.0, 14.0))}


def _build_route(d: dict) -> dict:
    # Two weights L: a purely random one, and a probe spiked along the top
    # eigendirection of e^(sum H* B H) - sum H* e^B H (a random search over
    # L alone almost never aligns with that thin direction).
    tup = _build_tuple(*d["H"])
    bs = _fused(_build_hermitian, d["B"], 3.0)
    l_random = _build_hermitian(d["L"], d["L_scale"])
    zero = HermitianMatrix(np.zeros(l_random.mat.shape))
    conj = fn._conjugated_sum(zero, tup, [b.mat for b in bs])
    top = matrix_exp(HermitianMatrix(conj)).mat
    # The B_i are decomposed as one stack after the exponent, as each was alone,
    # so errors keep their order; each keeps its spectrum.
    bs, exps = zip(*_fused(lambda b: (b, matrix_exp(b)), bs))
    diff = top - fn._conjugated_sum(zero, tup, [e.mat for e in exps])
    spike = spectral_decompose(HermitianMatrix(diff)).eigenvectors[..., -1:]
    l_probe = HermitianMatrix(_per_entry(d["alpha"]) * (spike @ _adjoint(spike)))
    return {"inst": fn.MultiInstance(L=l_random, H=tup, b_list=bs),
            "probe": fn.MultiInstance(L=l_probe, H=tup, b_list=bs)}


def _compare_route(inst, cfg, f):
    for candidate, key in (("random", "inst"), ("probe", "probe")):
        m = inst[key]
        route, rhs = f["route"](m), f["rhs"](m)
        yield Comparison("witness", route, rhs, route - rhs, _tol(cfg, route, rhs),
                         dict(inst=m), extra={"candidate": candidate})


def _draw_homogeneity(rng, kmn, trial) -> dict:
    k, m, n = kmn
    return {"H": _draw_tuple(rng, k, m, n, True), "L": _complex_gaussian(rng, n, n),
            "A": [_draw_pd(rng, m, *EIG_RANGE) for _ in range(k)], "t": T_FACTORS}


def _build_homogeneity(d: dict) -> dict:
    tup = _build_tuple(*d["H"])
    L = _build_hermitian(d["L"])
    return {"inst": fn.MultiInstance(L=L, H=tup, a_list=_fused(_build_pd, d["A"])), "t": d["t"]}


def _compare_homogeneity(inst, cfg, f):
    phi, m = f["phi"], inst["inst"]
    walk = _by_point(
        lambda points: phi(replace(m, a_list=[points([a], _scaled_pd) for a in m.a_list])),
        1, inst["t"], _stack_bytes(max(m.H.m, m.H.n), _batch(m.L)))
    base = next(values[j] for _, j, values in walk)
    for t, j, values in walk:
        val, scaled = values[j], t * base
        yield Comparison("identity", val, scaled, abs(val - scaled), _tol(cfg, scaled),
                         dict(inst=m, t=t))


def _build_strict_contraction(d: dict) -> dict:
    """The homogeneity instance with its tuple scaled by 0.9, so that
    sum(H_i* H_i) = 0.81 I is strictly below I."""
    inst = _build_homogeneity(d)
    strict = ContractionTuple([0.9 * b for b in inst["inst"].H.blocks], sum_is_identity=False)
    return {**inst, "inst": replace(inst["inst"], H=strict)}


def _compare_break(inst, cfg, f):
    """Homogeneity's comparisons, breached by a gap above HOMOGENEITY_BREAK_MIN;
    they end once every trial has broken the identity, so each has one record."""
    for c in _compare_homogeneity(inst, cfg, f):
        yield (c := c._replace(tol=HOMOGENEITY_BREAK_MIN))
        if np.all(c.breached):
            return


_SPECS = {c.name: c for c in (
    Check("sh_convexity", _draw_sh, _build_sh, _compare_sh,
          lambda: {"entropy": fn.reduced_relative_entropy},
          {"H": "matrix", "A1": "pd", "B1": "pd", "A2": "pd", "B2": "pd", "lam": "weights"},
          ("segment",), order=lambda k, m, n: m, key=lambda kmn, d: kmn[1]),
    Check("phi_concavity", _draw_phi, _build_phi, _compare_phi,
          lambda: {"phi": fn.trace_exp_functional},
          {"L": "hermitian", "H": "matrix", "A1": "pd", "A2": "pd", "lam": "weights"},
          ("segment",), key=lambda kmn, d: kmn[1:]),
    Check("multi_concavity", _draw_multi, _build_multi, _compare_multi,
          lambda: {"phi": fn.multi_trace_exp},
          {"inst": "multi", "A2": "pd_list", "lam": "weights"},
          ("block_lift", "segment"), order=lambda k, m, n: k * max(m, n)),
    Check("gt_jensen", _draw_gt_jensen, _build_gt_jensen, _compare_gt_jensen,
          lambda: {"lhs": fn.gt_jensen_lhs, "rhs": fn.gt_jensen_rhs},
          fn.FUNCTIONALS["gt_jensen_rhs"][1], GT_FAMILIES, dims=_isometric_dims,
          key=lambda kmn, d: ("golden_thompson", kmn[1]) if d["H"] is None else kmn),
    Check("gibbs_identity", _draw_gibbs, _build_gibbs, _compare_gibbs,
          lambda: {"objective": fn.gibbs_objective},
          fn.FUNCTIONALS["gibbs_objective"][1], ("bound", "equality"), order=lambda k, m, n: m,
          key=lambda kmn, d: kmn[1]),
    Check("derivative_limit", _draw_derivative, _build_derivative, _compare_derivative,
          lambda: {"derivative": fn.lieb_trace_derivative_at_zero},
          fn.FUNCTIONALS["lieb_derivative"][1],
          ("not_decreasing", "floor_exceeded", "above_scale"), key=lambda kmn, d: kmn[1:]),
    Check("gt_route_gap", _draw_route, _build_route, _compare_route,
          lambda: {"route": gt_route_value, "rhs": fn.gt_jensen_rhs},
          fn.FUNCTIONALS["gt_jensen_rhs"][1], ("witness",), dims=_route_dims,
          semantics="witness_search"),
    Check("homogeneity", _draw_homogeneity, _build_homogeneity, _compare_homogeneity,
          lambda: {"phi": fn.multi_trace_exp},
          {"inst": "multi", "t": "floats"}, ("identity",), dims=_isometric_dims),
)}
# Homogeneity's counterexample search, run one attempt at a time (see below).
_STRICT_BREAK = replace(_SPECS["homogeneity"], build=_build_strict_contraction,
                        compare=_compare_break)


# ---------------------------------------------------------------------------
# The public checks.  Each accepts the functional under test as a keyword.
# Such a hook receives the arguments of a group's stacked trials (matrix
# values of shape (T, n, n), see ``matrix_core``; a lone trial gives T = 1)
# and returns one value per stack entry, as the genuine functionals do.  In
# the segment checks (sh_convexity, phi_concavity, multi_concavity and
# homogeneity) the arguments that vary along the segment are (P, T, n, n)
# stacks of P points against (T, n, n) values of the others, and the hook
# returns (P, T) values.
# ---------------------------------------------------------------------------

def check_sh_convexity(cfg: CheckConfig,
                       entropy_fn: Callable | None = None) -> CheckReport:
    """Joint convexity of the reduced relative entropy on segments.
    ``entropy_fn`` receives (P, T, n, n) stacks of the points of A and B and
    a (T, n, n) H, and returns (P, T) values (see the comment above)."""
    return _run(_SPECS["sh_convexity"], cfg, entropy=entropy_fn)


def check_phi_concavity(cfg: CheckConfig,
                        phi_fn: Callable | None = None) -> CheckReport:
    """Concavity of A -> Tr exp(L + H* log(A) H) on segments.  ``phi_fn``
    receives a (P, T, m, m) stack of the points of A and (T, ., .) L and H,
    and returns (P, T) values."""
    return _run(_SPECS["phi_concavity"], cfg, phi=phi_fn)


def check_multi_concavity(cfg: CheckConfig,
                          phi_fn: Callable | None = None) -> CheckReport:
    """Joint concavity of the k-variable trace exponential, with every
    evaluation cross-checked against the block-lift route.  ``phi_fn``
    receives a MultiInstance whose A_i are (P, T, m, m) stacks of points and
    whose L and H are (T, ., .) stacks, and returns (P, T) values."""
    return _run(_SPECS["multi_concavity"], cfg, phi=phi_fn)


def check_gt_jensen(cfg: CheckConfig,
                    lhs_fn: Callable | None = None,
                    rhs_fn: Callable | None = None) -> CheckReport:
    """Tr exp(L + sum H_i* B_i H_i) <= Tr(e^L sum H_i* e^(B_i) H_i) under
    sum(H_i* H_i) = I.  Trials cycle through the general family, the k = 1,
    H = I Golden-Thompson case, and the L = 0 Jensen-trace case.  Each hook
    receives a stacked MultiInstance and returns one value per stack entry."""
    return _run(_SPECS["gt_jensen"], cfg, lhs=lhs_fn, rhs=rhs_fn)


def check_gibbs_identity(cfg: CheckConfig,
                         objective_fn: Callable | None = None) -> CheckReport:
    """Tr(X log B - X log X + X) <= Tr B for all X > 0, with equality at X = B.
    ``objective_fn`` receives stacked arguments and returns one value per
    stack entry."""
    return _run(_SPECS["gibbs_identity"], cfg, objective=objective_fn)


def check_derivative_limit(cfg: CheckConfig,
                           derivative_fn: Callable | None = None) -> CheckReport:
    """The closed-form derivative of p -> Tr(H B^p H* A^(1-p)) at p = 0 is
    the limit of forward differences: the error must shrink with p and end
    below 1e-2 of the value scale.  ``derivative_fn`` receives stacked
    arguments and returns one value per stack entry."""
    return _run(_SPECS["derivative_limit"], cfg, derivative=derivative_fn)


def gt_route_value(inst: fn.MultiInstance) -> float:
    """Tr(e^L e^(sum H_i* B_i H_i)): the bound produced by applying the
    Golden-Thompson inequality before splitting the exponential.  It is
    summed over the pairs of eigenvalues of L and of the exponent, and a sum
    that overflows raises NonFiniteObjective."""
    if inst.b_list is None:
        raise DomainError("gt_route_value needs an instance with b_list")
    arg = HermitianMatrix(fn._conjugated_sum(
        HermitianMatrix(np.zeros_like(inst.L.mat)), inst.H, [b.mat for b in inst.b_list]))
    return fn._exp_weighted_trace(inst.L, [(None, arg)], "Tr(e^L e^(sum H_i* B_i H_i))")


def search_gt_route_gap(cfg: CheckConfig,
                        route_fn: Callable | None = None,
                        rhs_fn: Callable | None = None) -> CheckReport:
    """Hunt for instances where the Golden-Thompson-first bound exceeds the
    commuting-case bound, demonstrating that the former cannot imply the
    latter.  Each trial draws a random isometric tuple and self-adjoint B_i
    and tries a random and a spiked weight L; witnesses are re-verified
    from their serialized dump before being recorded.  Each hook receives a
    stacked MultiInstance and returns one value per stack entry."""
    return _run(_SPECS["gt_route_gap"], cfg, route=route_fn, rhs=rhs_fn)


def check_homogeneity(cfg: CheckConfig,
                      phi_fn: Callable | None = None) -> CheckReport:
    """phi(t A_1 .. t A_k) = t phi(A_1 .. A_k) whenever sum(H_i* H_i) = I,
    and provably not otherwise: the check also exhibits a strict-contraction
    instance that breaks the identity by a visible margin.  ``phi_fn``
    receives a MultiInstance whose A_i are (P, T, m, m) stacks of the base
    and its scales, and returns (P, T) values.  Attempt a of the search runs
    trial ``cfg.trials + a`` alone; an attempt that raises adds its error
    record, and the first that breaks the identity ends the search."""
    report = _run(_SPECS["homogeneity"], cfg, phi=phi_fn)
    counterexample, one = None, replace(cfg, trials=1)
    for attempt in range(BREAK_ATTEMPTS):
        records = _run(_STRICT_BREAK, one, first=cfg.trials + attempt, phi=phi_fn).violations
        report.violations += [r for r in records if r["kind"] == "error"]
        found = next((r for r in records if r["kind"] != "error"), None)
        if found:
            counterexample = {"attempt": attempt, "t": found["instance"]["t"],
                              **{key: found[key] for key in ("lhs", "rhs", "gap", "instance")}}
            break
    else:
        report.violations.append({
            "kind": "counterexample_missing", "trial": -1,
            "error": "no strict-contraction instance broke homogeneity by "
                     f"more than {HOMOGENEITY_BREAK_MIN}",
        })
    report.passed = not report.violations
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
    check_dims(name, cfg)
    return CHECKS[name](cfg)


def check_dims(name: str, cfg: CheckConfig) -> tuple:
    """The dims triples of ``cfg`` that check ``name`` draws from; a
    DomainError names an unknown check, or one that can use none of them."""
    if name not in CHECKS:
        raise DomainError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    return _SPECS[name].dims(cfg)


def run_all(cfg: CheckConfig, names: list[str] | None = None) -> list[CheckReport]:
    """The reports of checks ``names`` (every check by default), in order.
    Each check's dims are resolved before the first check runs, so dims
    that one of them cannot use raise before any runs."""
    names = names or list(CHECKS)
    for name in names:
        check_dims(name, cfg)
    return [CHECKS[name](cfg) for name in names]


def re_evaluate(check_name: str, record: dict) -> dict:
    """Recompute the comparison stored in a violation or witness record from
    its serialized instance, with the genuine functionals; returns
    ``{"lhs", "rhs", "gap"}`` for every check.  Used to confirm dumps
    reproduce their gaps.  A record that is not an object, has no
    ``instance`` or lacks a key that the comparison reads is a ParseError."""
    if check_name not in _SPECS:
        raise DomainError(f"no re-evaluation rule for check {check_name!r}")
    check = _SPECS[check_name]
    if not isinstance(record, dict):
        raise ParseError(f"record: expected a JSON object, got {type(record).__name__}")
    kind = record.get("kind")
    if kind is not None and kind not in check.kinds:
        raise DomainError(f"check {check.name!r} has no comparison of kind {kind!r}")
    if "instance" not in record:
        raise ParseError("record: missing required key 'instance'")
    if isinstance(record["instance"], list):  # which read_fields would read as a stack
        raise ParseError("instance: expected a JSON object, got list")
    c = _replay(check, kind, read_fields(record["instance"], check.fields, required=False))
    return {"lhs": float(c.lhs), "rhs": float(c.rhs), "gap": float(c.gap)}
