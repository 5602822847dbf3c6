"""Reference copies of the random generators and the check samplers as they
were written before sampling was split into per-trial draws and stacked
builds: each generator draws its numbers and builds its value in one pass,
one trial at a time.  The tests pin the split code to these copies bit for
bit, so a draw that reorders two generator calls fails them.

``sample`` is one trial's pick, draw and build, alone.  ``every_trial_alone``
is the reference for the run loop: it samples each trial alone and builds
its records from the 2-d comparisons.  ``strict_contraction_break`` is the
reference for homogeneity's counterexample search: it samples each attempt
alone and skips one that raises.  ``signature`` is the reference for the
run loop's group keys: the draws that stack together are those of one shape
walk.  ``route_raising_on`` is a ``gt_route_gap`` hook that raises on chosen
trials, which sends them down the run loop's split-and-error path."""

from dataclasses import replace

import numpy as np

from entropylab import functionals as fn
from entropylab import verifiers
from entropylab.errors import DomainError, EntropyLabError
from entropylab.matrix_core import (
    EIG_RANGE,
    Contraction,
    ContractionTuple,
    HermitianMatrix,
    PositiveDefiniteMatrix,
    SpectralDecomposition,
    make_rng,
    matrix_exp,
)
from entropylab.serialization import instance_to_json
from entropylab.verifiers import (
    GT_FAMILIES,
    HOMOGENEITY_BREAK_MIN,
    LAMBDA_SAMPLES,
    T_FACTORS,
    _compare_homogeneity,
    re_evaluate,
    trial_rng,
)


def complex_gaussian(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def haar_unitary(rng, dim):
    q, r = np.linalg.qr(complex_gaussian(rng, dim, dim))
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_pd(dim, eig_range=EIG_RANGE, seed=0):
    """U diag(w) U*, keeping the drawn w, sorted ascending, and the columns
    of U in that order as its spectrum: a random PD matrix is not
    decomposed."""
    lo, hi = float(eig_range[0]), float(eig_range[1])
    rng = make_rng(seed)
    w = rng.uniform(lo, hi, size=dim)
    u = haar_unitary(rng, dim)
    a = PositiveDefiniteMatrix.__new__(PositiveDefiniteMatrix)
    HermitianMatrix.__init__(a, (u * w) @ u.conj().T)
    order = np.argsort(w, kind="stable")
    w_sorted, u_sorted = w[order], np.ascontiguousarray(u[:, order])
    w_sorted.setflags(write=False)
    u_sorted.setflags(write=False)
    a._spectrum = SpectralDecomposition(eigenvalues=w_sorted, eigenvectors=u_sorted)
    a.min_eigenvalue = float(w_sorted[0])
    return a


def random_hermitian(dim, scale=1.0, seed=0):
    rng = make_rng(seed)
    g = complex_gaussian(rng, dim, dim)
    return HermitianMatrix(scale * (g + g.conj().T) / 2.0)


def random_contraction_tuple(k, m, n, sum_is_identity, seed=0):
    rng = make_rng(seed)
    if k * m >= n:
        q, r = np.linalg.qr(complex_gaussian(rng, k * m, n))
        d = np.diag(r)
        stacked = q * (d / np.abs(d))
    else:
        q, r = np.linalg.qr(complex_gaussian(rng, n, k * m))
        d = np.diag(r)
        stacked = (q * (d / np.abs(d))).conj().T
    if not sum_is_identity:
        u = rng.uniform()
        if u == 0.0:
            u = 0.5
        stacked = u * stacked
    blocks = [stacked[i * m:(i + 1) * m, :] for i in range(k)]
    return ContractionTuple(blocks, sum_is_identity=sum_is_identity)


def _pick_dims(rng, dims):
    return dims[int(rng.integers(len(dims)))]


def _lambda_values(rng):
    return LAMBDA_SAMPLES + (float(rng.uniform(0.01, 0.99)),)


def _random_contraction(rng, rows, cols):
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    target = float(rng.uniform(0.2, 1.0))
    return Contraction(g * (target / np.linalg.norm(g, 2)))


def _sample_sh(rng, dims, trial):
    _, m, _ = _pick_dims(rng, dims)
    return {"H": _random_contraction(rng, m, m),
            "A1": random_pd(m, EIG_RANGE, rng), "B1": random_pd(m, EIG_RANGE, rng),
            "A2": random_pd(m, EIG_RANGE, rng), "B2": random_pd(m, EIG_RANGE, rng),
            "lam": _lambda_values(rng)}


def _sample_phi(rng, dims, trial):
    _, m, n = _pick_dims(rng, dims)
    return {"H": _random_contraction(rng, m, n), "L": random_hermitian(n, 1.0, rng),
            "A1": random_pd(m, EIG_RANGE, rng), "A2": random_pd(m, EIG_RANGE, rng),
            "lam": _lambda_values(rng)}


def _sample_multi(rng, dims, trial):
    k, m, n = _pick_dims(rng, dims)
    sum_id = bool(rng.integers(2)) and k * m >= n
    tup = random_contraction_tuple(k, m, n, sum_id, rng)
    L = random_hermitian(n, 1.0, rng)
    a1s = [random_pd(m, EIG_RANGE, rng) for _ in range(k)]
    return {"inst": fn.MultiInstance(L=L, H=tup, a_list=a1s),
            "A2": [random_pd(m, EIG_RANGE, rng) for _ in range(k)],
            "lam": _lambda_values(rng)}


def _sample_gt_jensen(rng, dims, trial):
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


def _sample_gibbs(rng, dims, trial):
    _, m, _ = _pick_dims(rng, dims)
    return {"B": random_pd(m, EIG_RANGE, rng), "X": random_pd(m, EIG_RANGE, rng)}


def _sample_derivative(rng, dims, trial):
    _, m, n = _pick_dims(rng, dims)
    return {"A": random_pd(m, EIG_RANGE, rng), "B": random_pd(n, EIG_RANGE, rng),
            "H": _random_contraction(rng, m, n)}


def _sample_route(rng, dims, trial):
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


def _sample_homogeneity(rng, dims, trial):
    k, m, n = _pick_dims(rng, dims)
    tup = random_contraction_tuple(k, m, n, True, rng)
    L = random_hermitian(n, 1.0, rng)
    a_list = [random_pd(m, EIG_RANGE, rng) for _ in range(k)]
    return {"inst": fn.MultiInstance(L=L, H=tup, a_list=a_list), "t": T_FACTORS}


SAMPLERS = {
    "sh_convexity": _sample_sh,
    "phi_concavity": _sample_phi,
    "multi_concavity": _sample_multi,
    "gt_jensen": _sample_gt_jensen,
    "gibbs_identity": _sample_gibbs,
    "derivative_limit": _sample_derivative,
    "gt_route_gap": _sample_route,
    "homogeneity": _sample_homogeneity,
}


def sample(check, rng, dims, trial):
    """One trial's instance: the pick of its dims and its draw, built alone."""
    return check.build(check.draw(rng, _pick_dims(rng, dims), trial))


def strict_contraction_break(cfg, phi, dims, attempts=20):
    """Find a tuple with sum(H_i* H_i) strictly below I that breaks
    positive homogeneity, one attempt at a time from the substream of trial
    ``cfg.trials + attempt``; an attempt that raises is skipped."""
    for attempt in range(attempts):
        rng = trial_rng(cfg.seed, cfg.trials + attempt)
        try:
            inst = sample(verifiers._SPECS["homogeneity"], rng, dims, attempt)
            m = inst["inst"]
            strict = ContractionTuple([0.9 * b for b in m.H.blocks], sum_is_identity=False)
            inst["inst"] = replace(m, H=strict)
            for c in _compare_homogeneity(inst, cfg, {"phi": phi}):
                if c.gap > HOMOGENEITY_BREAK_MIN:
                    dump = instance_to_json(**c.dump)
                    return {"attempt": attempt, "t": dump["t"], "lhs": float(c.lhs),
                            "rhs": float(c.rhs), "gap": float(c.gap), "instance": dump}
        except EntropyLabError:
            continue
    return None


def trial_alone(check, cfg, funcs, t):
    """(records, gaps) of trial t, sampled alone from its substream and run
    through the 2-d comparisons: a record on each breach, a witness search
    stopping at its first, verified by replaying its dump, and an error
    record for a raise, after whatever the trial recorded before it."""
    search = check.semantics == "witness_search"
    records, gaps = [], []
    try:
        instance = sample(check, trial_rng(cfg.seed, t), check.dims(cfg), t)
        for c in check.compare(instance, cfg, funcs):
            gaps.append(float(c.gap))
            if not c.breached:
                continue
            record = {"kind": c.kind, "trial": t, **(c.extra or {}), "lhs": float(c.lhs),
                      "rhs": float(c.rhs), "gap": float(c.gap), "instance": instance_to_json(**c.dump)}
            if not search:
                records.append({**record, "tol": float(c.tol)})
                continue
            redo = re_evaluate(check.name, record)["gap"]
            records.append({**record, "reverified_gap": redo,
                            "reverified": abs(redo - record["gap"]) <= 1e-12})
            break
    except EntropyLabError as exc:
        records.append({"kind": "error", "trial": t, "error": str(exc)})
    return records, gaps


def signature(draw):
    """What the draws of one stack share: the shape of every array and
    every field that is neither an array, a float nor a string (a label
    stacks per trial, as a float does)."""
    if isinstance(draw, dict):
        return tuple((key, signature(v)) for key, v in draw.items())
    if isinstance(draw, (list, tuple)):
        return (type(draw), *map(signature, draw))
    if isinstance(draw, np.ndarray):
        return draw.shape
    if isinstance(draw, (float, str)):
        return type(draw)
    return draw


def every_trial_alone(check, cfg, funcs, group):
    """Stand-in for ``verifiers._run_group`` that runs each trial of the
    group through :func:`trial_alone`."""
    return {t: trial_alone(check, cfg, funcs, t) for t, _ in group}


def assert_same(a, b, path="value"):
    """a and b are equal bit for bit: types, structure, array bytes,
    shapes, strides and write flags, cached spectra, and float types."""
    assert type(a) is type(b), f"{path}: {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        assert list(a) == list(b), path
        for key in a:
            assert_same(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{i}]")
    elif isinstance(a, fn.MultiInstance):
        for name in ("L", "H", "a_list", "b_list"):
            assert_same(getattr(a, name), getattr(b, name), f"{path}.{name}")
    elif isinstance(a, ContractionTuple):
        assert (a.k, a.m, a.n, a.sum_is_identity) == (b.k, b.m, b.n, b.sum_is_identity), path
        assert_same(a.blocks, b.blocks, f"{path}.blocks")
    elif isinstance(a, (HermitianMatrix, Contraction)):
        assert_same(a.mat, b.mat, f"{path}.mat")
        if isinstance(a, HermitianMatrix):
            assert (a._spectrum is None) == (b._spectrum is None), f"{path}: cached spectrum"
            if a._spectrum is not None:
                assert_same(a._spectrum.eigenvalues, b._spectrum.eigenvalues, f"{path}.w")
                assert_same(a._spectrum.eigenvectors, b._spectrum.eigenvectors, f"{path}.u")
        if isinstance(a, PositiveDefiniteMatrix):
            assert_same(a.min_eigenvalue, b.min_eigenvalue, f"{path}.min_eigenvalue")
    elif isinstance(a, np.ndarray):
        assert (a.shape, a.dtype, a.strides) == (b.shape, b.dtype, b.strides), path
        assert not a.flags.writeable and not b.flags.writeable, f"{path}: writable"
        assert a.tobytes() == b.tobytes(), f"{path}: bits differ"
    elif isinstance(a, float):
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), f"{path}: {a!r} != {b!r}"
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def route_raising_on(cfg, trials):
    """``gt_route_value``, except that it raises a DomainError on any stack
    that holds the random candidate of one of ``trials`` of a
    ``gt_route_gap`` run at ``cfg``."""
    spec = verifiers._SPECS["gt_route_gap"]
    chosen = [sample(spec, trial_rng(cfg.seed, t), spec.dims(cfg), t)["inst"].L.mat
              for t in trials]
    genuine = verifiers.gt_route_value

    def route(inst):
        mats = inst.L.mat.reshape((-1,) + inst.L.mat.shape[-2:])
        if any(np.array_equal(m, c) for m in mats for c in chosen):
            raise DomainError("a chosen trial")
        return genuine(inst)

    return route
