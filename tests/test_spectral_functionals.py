"""The trace functionals evaluated on kept spectra agree with their matrix
forms (tests/functional_reference.py), form no log, power or exp matrix,
and raise NonFiniteObjective where a trace sum overflows."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import functional_reference as ref
from entropylab import functionals as fn
from entropylab import matrix_core
from entropylab.errors import NonFiniteObjective
from entropylab.matrix_core import (
    Contraction,
    ContractionTuple,
    HermitianMatrix,
    PositiveDefiniteMatrix,
    _build_pd,
    _complex_gaussian,
    matrix_log,
    random_contraction_tuple,
    random_hermitian,
    stack,
)
from entropylab.verifiers import gt_route_value

ENTRIES = 3  # entries of a stacked instance; entry 0 is also evaluated alone


def _spectrum(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "near_degenerate":
        return 2.0 * (1.0 + 1e-12 * rng.standard_normal(n))
    if kind == "tiny":
        return 10.0 ** rng.uniform(-8.0, -6.0, n)
    if kind == "wide":
        return 10.0 ** rng.uniform(-8.0, 3.0, n)
    return rng.uniform(0.05, 5.0, n)


def _pd(kind, n, rng):
    return _build_pd(_spectrum(kind, n, rng), _complex_gaussian(rng, n, n))


def _contraction(kind: str, rows: int, cols: int, rng) -> Contraction:
    """A contraction of operator norm 1 (a partial isometry), of rank about
    half its size, or with singular values in (0, 1)."""
    u, s, vh = np.linalg.svd(matrix_core._complex(_complex_gaussian(rng, rows, cols)),
                             full_matrices=False)
    if kind == "norm_one":
        s = np.ones_like(s)
    else:
        s = rng.uniform(0.0, 1.0, s.size)
        if kind == "rank_deficient":
            s[s.size // 2:] = 0.0
    return Contraction((u * s) @ vh)


def _instance(kind, h_kind, m, n, k, rng) -> dict:
    """One instance of every functional's arguments: A, A2 and X of order m,
    B and L of order n, H of shape m x n, and two k-tuples."""
    a, a2, x, b = (_pd(kind, m, rng), _pd(kind, m, rng), _pd(kind, m, rng), _pd(kind, n, rng))
    tup = random_contraction_tuple(k, m, n, h_kind == "norm_one" and k * m >= n, rng)
    return {
        "A": a, "A2": a2, "X": x, "B": b, "H": _contraction(h_kind, m, n, rng),
        "L": random_hermitian(n, 1.0, rng),
        "multi_a": fn.MultiInstance(L=random_hermitian(n, 1.0, rng), H=tup,
                                    a_list=[_pd(kind, m, rng) for _ in range(k)]),
        # Exponents spanning the logs of the drawn spectra, e^(-18) to e^7.
        "multi_b": fn.MultiInstance(L=matrix_log(_pd(kind, n, rng)), H=tup,
                                    b_list=[matrix_log(_pd(kind, m, rng)) for _ in range(k)]),
    }


def _stacked(instances: list) -> dict:
    out = {}
    for key, first in instances[0].items():
        column = [inst[key] for inst in instances]
        if isinstance(first, fn.MultiInstance):
            lists = "a_list" if first.a_list is not None else "b_list"
            out[key] = fn.MultiInstance(
                L=stack([m.L for m in column]), H=stack([m.H for m in column]),
                **{lists: [stack(list(c)) for c in zip(*(getattr(m, lists) for m in column))]})
        else:
            out[key] = stack(column)
    return out


def _eig(value) -> np.ndarray:
    return value._spectrum.eigenvalues


def _gram_contraction(h: Contraction) -> Contraction:
    """H H*, a square contraction: its norm is that of H squared."""
    return Contraction._bounded(h.mat @ h.mat.conj().swapaxes(-1, -2))


def _entropy_scale(a, b) -> np.ndarray:
    """The magnitudes summed in S_H(A|B) from the eigenvalues a and b."""
    return ((a * np.abs(np.log(a))).sum(-1) + a.sum(-1) * np.abs(np.log(b)).max(-1)
            + a.sum(-1) + b.sum(-1))


# name -> (its value on an instance d, evaluated by f: the library's
# functionals or the reference; the magnitudes summed in that value, or None
# for a sum of exps, whose scale is the value)
CASES = {
    "relative_entropy": (
        lambda d, f: f.relative_entropy(d["A"], d["A2"]),
        lambda d: _entropy_scale(_eig(d["A"]), _eig(d["A2"]))),
    "reduced_relative_entropy": (
        lambda d, f: f.reduced_relative_entropy(d["A"], d["B"], d["H"]),
        lambda d: _entropy_scale(_eig(d["A"]), _eig(d["B"]))),
    # A passed twice with H H*: only a value with H = I has the identity overlap.
    "reduced_relative_entropy_same_value": (
        lambda d, f: f.reduced_relative_entropy(d["A"], d["A"], _gram_contraction(d["H"])),
        lambda d: _entropy_scale(_eig(d["A"]), _eig(d["A"]))),
    "lieb_trace": (
        lambda d, f: f.lieb_trace(d["A"], d["B"], d["H"], 0.3),
        lambda d: (_eig(d["A"]) ** 0.7).sum(-1) * (_eig(d["B"]) ** 0.3).max(-1)),
    "lieb_trace_derivative_at_zero": (
        lambda d, f: f.lieb_trace_derivative_at_zero(d["A"], d["B"], d["H"]),
        lambda d: _entropy_scale(_eig(d["A"]), _eig(d["B"]))),
    "gibbs_objective": (
        lambda d, f: f.gibbs_objective(d["X"], d["A"]),
        lambda d: _entropy_scale(_eig(d["X"]), _eig(d["A"]))),
    "trace_exp_functional": (
        lambda d, f: f.trace_exp_functional(d["A"], d["L"], d["H"]), None),
    "multi_trace_exp": (lambda d, f: f.multi_trace_exp(d["multi_a"]), None),
    "block_lift": (
        lambda d, f: (fn.block_lift(d["multi_a"]).lifted_value() if f is fn
                      else ref.lifted_value(fn.block_lift(d["multi_a"]))), None),
    "gt_jensen_rhs": (lambda d, f: f.gt_jensen_rhs(d["multi_b"]), None),
    "gt_route_value": (
        lambda d, f: (gt_route_value if f is fn else ref.gt_route_value)(d["multi_b"]), None),
}


def _assert_close(name, d, got, want):
    """Within 1e-12 (1 + scale) of the reference, with the scale the
    magnitudes summed in the value (for a sum of exps, the value)."""
    scale = CASES[name][1]
    scale = np.abs(want) if scale is None else scale(d)
    assert np.all(np.abs(np.asarray(got) - want) <= 1e-12 * (1.0 + scale)), (name, got, want)


class TestAgainstMatrixForms:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(m=st.integers(1, 8), n=st.integers(1, 8), k=st.integers(1, 3),
           kind=st.sampled_from(["moderate", "near_degenerate", "tiny", "wide"]),
           h_kind=st.sampled_from(["generic", "norm_one", "rank_deficient"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_every_functional_matches_its_matrix_form(self, m, n, k, kind, h_kind, seed):
        rng = np.random.default_rng(seed)
        instances = [_instance(kind, h_kind, m, n, k, rng) for _ in range(ENTRIES)]
        stacked = _stacked(instances)
        for name, (evaluate, _) in CASES.items():
            single = evaluate(instances[0], fn)
            assert isinstance(single, float)
            _assert_close(name, instances[0], single, evaluate(instances[0], ref))
            values = evaluate(stacked, fn)
            assert values.shape == (ENTRIES,)
            _assert_close(name, stacked, values, evaluate(stacked, ref))


class TestEqualArguments:
    """A value passed twice has the identity overlap with itself, so S(A|A)
    is exactly 0 and the Gibbs objective at its maximizer exactly Tr B."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 32),
           kind=st.sampled_from(["moderate", "near_degenerate", "tiny", "wide"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_exact_at_equal_arguments(self, n, kind, seed):
        rng = np.random.default_rng(seed)
        values = [_pd(kind, n, rng) for _ in range(ENTRIES)]
        for b in (values[0], stack(values)):
            assert np.all(np.asarray(fn.relative_entropy(b, b)) == 0.0)
            assert np.array_equal(np.asarray(fn.gibbs_objective(b, b)), np.asarray(b.trace()))

    def test_identity_contraction_is_bit_equal_to_relative_entropy(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 5, 16, 33):
            a, b = _pd("wide", n, rng), _pd("moderate", n, rng)
            assert fn.reduced_relative_entropy(a, b, np.eye(n)) == fn.relative_entropy(a, b)


class TestNoMatrixFunctions:
    def test_functionals_form_no_log_power_or_exp_matrix(self, monkeypatch):
        rng = np.random.default_rng(11)
        d = _instance("moderate", "generic", 3, 3, 2, rng)

        def refuse(*args):
            raise AssertionError("a matrix function was formed")

        monkeypatch.setattr(matrix_core, "_on_spectrum", refuse)
        for evaluate, _ in CASES.values():
            evaluate(d, fn)
        fn.phi_objective(d["X"], d["A"], d["L"], d["H"])


def _wide_instance(top: float) -> fn.MultiInstance:
    wide = HermitianMatrix(np.diag([top, 0.0]))
    return fn.MultiInstance(L=wide, H=ContractionTuple([np.eye(2)], sum_is_identity=True),
                            b_list=[wide])


def _overflowing_pair_sums() -> dict:
    """The five functionals whose sums over pairs of eigenvalues overflow on
    finite arguments near the largest double, with such arguments: a log a
    at 2e305, and a^(1/2) b^(1/2) or a log a at 8e307."""
    a = PositiveDefiniteMatrix(np.diag([2e305, 1e305]))
    b = PositiveDefiniteMatrix(1e305 * np.eye(2))
    top, eye = PositiveDefiniteMatrix(8e307 * np.eye(3)), np.eye(3)
    return {"relative_entropy": (fn.relative_entropy, (a, b)),
            "reduced_relative_entropy": (fn.reduced_relative_entropy, (a, b, np.eye(2))),
            "gibbs_objective": (fn.gibbs_objective, (a, b)),
            "lieb_trace": (fn.lieb_trace, (top, top, eye, 0.5)),
            "lieb_derivative": (fn.lieb_trace_derivative_at_zero,
                                (PositiveDefiniteMatrix(np.diag([8e307, 1.0, 1.0])),
                                 PositiveDefiniteMatrix(eye), eye))}


class TestNonFiniteSums:
    """e^700 is finite but e^700 e^700 is not: the commuting-case bound and
    the route value raise as Tr exp does, without a warning.  So do the
    relative entropies, the Gibbs objective, the Lieb trace and its
    derivative where a sum over pairs of eigenvalues overflows."""

    @pytest.mark.parametrize("name", ["relative_entropy", "reduced_relative_entropy",
                                      "gibbs_objective", "lieb_trace", "lieb_derivative"])
    def test_an_overflowing_pair_sum_raises(self, name):
        f, args = _overflowing_pair_sums()[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteObjective, match="is not finite: it overflows"):
                f(*args)

    def test_one_overflowing_pair_sum_of_a_stack_raises(self):
        a, b = _overflowing_pair_sums()["relative_entropy"][1]
        small = PositiveDefiniteMatrix(np.diag([2.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteObjective):
                fn.relative_entropy(stack([small, a]), stack([small, b]))
            pair = stack([small, small])
            assert fn.relative_entropy(pair, pair).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("f", [fn.gt_jensen_lhs, fn.gt_jensen_rhs, gt_route_value])
    def test_an_overflowing_sum_raises(self, f):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteObjective):
                f(_wide_instance(700.0))
            assert f(_wide_instance(300.0)) > 1e260

    @pytest.mark.parametrize("f", [fn.gt_jensen_lhs, fn.gt_jensen_rhs, gt_route_value])
    @pytest.mark.parametrize("where", ["L", "B"])
    def test_an_overflowing_exp_of_an_eigenvalue_raises(self, f, where):
        # e^800 itself overflows: a numerical error, as for Tr exp, not a
        # domain error of the exp.
        wide, zero = HermitianMatrix(np.diag([800.0, 0.0])), HermitianMatrix(np.zeros((2, 2)))
        L, B = (wide, zero) if where == "L" else (zero, wide)
        inst = fn.MultiInstance(L=L, H=ContractionTuple([np.eye(2)], sum_is_identity=True),
                                b_list=[B])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteObjective):
                f(inst)

    @pytest.mark.parametrize("f", [fn.gt_jensen_rhs, gt_route_value])
    def test_one_overflowing_entry_of_a_stack_raises(self, f):
        m = _wide_instance(700.0)
        small = _wide_instance(1.0)
        stacked = _stacked([{"m": small}, {"m": m}])["m"]
        with pytest.raises(NonFiniteObjective):
            f(stacked)

    @pytest.mark.parametrize("f", [fn.gt_jensen_lhs, fn.gt_jensen_rhs, gt_route_value])
    def test_an_underflowed_exp_adds_zero(self, f):
        inst = fn.MultiInstance(L=HermitianMatrix(np.zeros((2, 2))),
                                H=ContractionTuple([np.eye(2)], sum_is_identity=True),
                                b_list=[HermitianMatrix(np.diag([-800.0, 0.0]))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f(inst) == 1.0
