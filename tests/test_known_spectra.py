"""PD values whose spectrum is known when they are built keep it instead of
being decomposed: exp and power results, random PD matrices, positive
multiples and block diagonals.  Tr exp computes checked eigenvalues only.

scipy is an independent oracle here and nowhere in the library."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from entropylab import functionals as fn
from entropylab import matrix_core
from entropylab.errors import ConvergenceFailure, DomainError
from entropylab.matrix_core import (
    Contraction,
    ContractionTuple,
    HermitianMatrix,
    PositiveDefiniteMatrix,
    matrix_exp,
    matrix_log,
    matrix_power,
    random_hermitian,
    random_pd,
    spectral_decompose,
)
from entropylab.verifiers import CHECKS, CheckConfig


def _count_eigh(monkeypatch) -> list:
    calls = []
    original = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or original(a))
    return calls


def _assert_carried_spectrum(value: PositiveDefiniteMatrix) -> None:
    """The kept spectrum of ``value`` passes the bounds that a checked eigh
    of its ``.mat`` must pass: ascending, unitary to 1e-10, and reproducing
    ``.mat`` to 1e-10 (1 + max |w|), with the minimum as min_eigenvalue."""
    dec = value._spectrum
    assert dec is not None
    w, u = dec.eigenvalues, dec.eigenvectors
    assert np.all(np.diff(w, axis=-1) >= 0.0)
    assert np.all(w[..., 0] > 0.0)
    assert np.array_equal(np.asarray(value.min_eigenvalue), w[..., 0])
    uh = u.conj().swapaxes(-1, -2)
    assert np.abs(u @ uh - np.eye(u.shape[-1])).max() <= 1e-10
    recon = np.abs((u * w[..., None, :]) @ uh - value.mat).max(axis=(-2, -1))
    assert np.all(recon <= 1e-10 * (1.0 + np.abs(w).max(axis=-1)))


class TestWideSpectra:
    """exp over a wide spectrum keeps its small eigenvalues, which a new
    eigh of its entries would lose in their round-off."""

    def test_exp_keeps_an_eigenvalue_below_the_pd_floor(self):
        value = matrix_exp(HermitianMatrix(np.diag([-30.0, 0.0])))
        assert isinstance(value, PositiveDefiniteMatrix)
        assert value.min_eigenvalue == pytest.approx(math.exp(-30.0), rel=1e-15)
        assert value.min_eigenvalue < matrix_core.PD_FLOOR
        _assert_carried_spectrum(value)

    def test_exp_rejects_an_underflowed_eigenvalue(self):
        with pytest.raises(DomainError, match="positive definite"):
            matrix_exp(HermitianMatrix(np.diag([-800.0, 0.0])))

    def test_jensen_sides_agree_on_a_commuting_wide_instance(self):
        b = np.diag([-30.0, 0.0])
        inst = fn.MultiInstance(L=HermitianMatrix(np.zeros((2, 2))),
                                H=ContractionTuple([np.eye(2)], sum_is_identity=True),
                                b_list=[HermitianMatrix(b)])
        lhs, rhs = fn.gt_jensen_lhs(inst), fn.gt_jensen_rhs(inst)
        assert rhs == pytest.approx(lhs, rel=1e-15, abs=0.0)
        assert rhs == pytest.approx(np.trace(expm(b)).real, rel=1e-14, abs=0.0)
        assert rhs == pytest.approx(1.0 + math.exp(-30.0), rel=1e-15, abs=0.0)


def _spectrum(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "near_degenerate":
        return 2.0 * (1.0 + 1e-12 * rng.standard_normal(n))
    if kind == "tiny":
        return rng.uniform(1e-8, 1e-7, n)
    return 10.0 ** rng.uniform(-8.0, 8.0, n)  # wide


class TestCarriedSpectra:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 64), kind=st.sampled_from(["near_degenerate", "tiny", "wide"]),
           seed=st.integers(0, 2 ** 32 - 1), p=st.floats(0.0, 1.0),
           t=st.floats(0.05, 20.0), spread=st.floats(0.1, 4.0))
    def test_every_carried_spectrum_reproduces_its_matrix(self, n, kind, seed, p, t, spread):
        rng = np.random.default_rng(seed)
        w = _spectrum(kind, n, rng)
        a = matrix_core._build_pd(w, matrix_core._complex_gaussian(rng, n, n))
        assert np.array_equal(a._spectrum.eigenvalues, np.sort(w))
        log_a = matrix_log(a)
        values = [a, matrix_power(a, p), matrix_exp(log_a),
                  matrix_exp(HermitianMatrix(spread * log_a.mat)),
                  matrix_core._scaled_pd(t, a),
                  matrix_core._block_diagonal([a, matrix_power(a, 0.5)], ())]
        for value in values:
            _assert_carried_spectrum(value)

    def test_stacked_builds_carry_each_spectrum(self):
        rng = np.random.default_rng(5)
        draws = [matrix_core._draw_pd(rng, 6, 0.05, 5.0) for _ in range(3)]
        stacked = matrix_core._build_pd(*(np.stack(column) for column in zip(*draws)))
        _assert_carried_spectrum(stacked)
        scaled = matrix_core._scaled_pd(np.array([[0.5, 2.0, 10.0], [1.0, 3.0, 7.0]]), stacked)
        assert scaled.mat.shape == (2, 3, 6, 6)
        _assert_carried_spectrum(scaled)
        lifted = matrix_core._block_diagonal([stacked, scaled], (2, 3))
        assert lifted.mat.shape == (2, 3, 12, 12)
        _assert_carried_spectrum(lifted)


class TestNoDecomposition:
    def test_known_spectra_run_no_eigh(self, monkeypatch):
        a, b = random_pd(5, seed=1), random_pd(5, seed=2)
        x = random_hermitian(5, 2.0, seed=9)
        spectral_decompose(x)
        eigh = _count_eigh(monkeypatch)
        p = matrix_power(a, 0.3)
        e = matrix_exp(x)
        s = matrix_core._scaled_pd(2.5, a)
        lifted = matrix_core._block_diagonal([a, b, p], ())
        built = random_pd(7, seed=3)
        assert eigh == []
        assert np.array_equal(spectral_decompose(s).eigenvalues,
                              2.5 * spectral_decompose(a).eigenvalues)
        assert np.array_equal(spectral_decompose(lifted).eigenvalues, np.sort(np.concatenate(
            [spectral_decompose(v).eigenvalues for v in (a, b, p)])))
        for value in (p, e, s, lifted, built):
            _assert_carried_spectrum(value)

    @pytest.mark.parametrize("name", ["gibbs_identity", "derivative_limit", "homogeneity"])
    def test_checks_on_drawn_values_run_no_eigh(self, name, monkeypatch):
        # These checks take logs and powers of drawn PD matrices and their
        # positive multiples only; Tr exp needs eigenvalues only.
        eigh = _count_eigh(monkeypatch)
        assert CHECKS[name](CheckConfig(trials=20, seed=7)).passed
        assert eigh == []

    def test_a_non_unitary_haar_factor_is_rejected(self, monkeypatch):
        haar = matrix_core._build_haar
        monkeypatch.setattr(matrix_core, "_build_haar", lambda g: 1.5 * haar(g))
        with pytest.raises(ConvergenceFailure, match="not unitary"):
            random_pd(3, seed=4)


class TestTraceExpEigenvalues:
    @staticmethod
    def _phi_args():
        a = random_pd(4, seed=11)
        L = random_hermitian(4, 1.0, seed=12)
        return a, L, Contraction(0.7 * np.eye(4))

    def test_value_matches_scipy(self):
        a, L, h = self._phi_args()
        arg = L.mat + h.mat.conj().T @ matrix_log(a).mat @ h.mat
        assert fn.trace_exp_functional(a, L, h) == pytest.approx(np.trace(expm(arg)).real,
                                                                 rel=1e-12)

    @pytest.mark.parametrize("shift", [1e-6, -1e-6])
    def test_a_shifted_eigenvalue_fails_the_check(self, shift, monkeypatch):
        a, L, h = self._phi_args()
        original = np.linalg.eigvalsh

        def shifted(m):
            w = original(m).copy()
            w[..., 1] += shift * (1.0 + np.abs(w).max())
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
        with pytest.raises(ConvergenceFailure, match="trace and norm"):
            fn.trace_exp_functional(a, L, h)

    def test_a_shift_that_keeps_the_trace_fails_the_norm_check(self, monkeypatch):
        a, L, h = self._phi_args()
        original = np.linalg.eigvalsh

        def spread(m):
            w = original(m).copy()
            step = 1e-6 * (1.0 + np.abs(w).max())
            w[..., 0] -= step
            w[..., -1] += step
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", spread)
        with pytest.raises(ConvergenceFailure, match="trace and norm"):
            fn.trace_exp_functional(a, L, h)

    @staticmethod
    def _huge_args():
        # L = diag(-1e160, 0): above about 1e154 the squares of the invariant
        # check overflow, and inf - inf passed any bound.
        a = PositiveDefiniteMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
        return a, HermitianMatrix(np.diag([-1e160, 0.0])), Contraction(0.6 * np.eye(2))

    def test_a_huge_eigenvalue_is_checked_without_a_warning(self):
        a, L, h = self._huge_args()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = fn.trace_exp_functional(a, L, h)
        # The spectrum is -1e160 and the (2, 2) entry of 0.36 log A.
        assert value == pytest.approx(math.exp(0.36 * matrix_log(a).mat[1, 1].real), rel=1e-12)

    def test_a_shift_that_keeps_the_trace_of_a_huge_spectrum_fails(self, monkeypatch):
        a, L, h = self._huge_args()
        original = np.linalg.eigvalsh

        def spread(m):
            w = original(m).copy()
            step = 1e-6 * np.abs(w).max(axis=-1)
            w[..., 0] -= step
            w[..., -1] += step
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", spread)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceFailure, match="trace and norm"):
                fn.trace_exp_functional(a, L, h)

    def test_only_the_overflowing_matrices_of_a_stack_are_rescaled(self, monkeypatch):
        huge, small = np.diag([-1e160, 3.0]), np.diag([-1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = matrix_core._checked_eigvalsh(np.stack([huge, small]).astype(np.complex128))
        assert w.tolist() == [[-1e160, 3.0], [-1.0, 2.0]]
        original = np.linalg.eigvalsh
        # A shift that keeps the trace, in either matrix alone.
        for i, step in ((0, 1e154), (1, 1e-6)):
            shift = np.zeros((2, 2))
            shift[i] = -step, step
            monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: original(m) + shift)
            with pytest.raises(ConvergenceFailure, match="trace and norm"):
                matrix_core._checked_eigvalsh(np.stack([huge, small]).astype(np.complex128))

    def test_eigensolver_failure_is_a_convergence_failure(self, monkeypatch):
        a, L, h = self._phi_args()

        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            fn.trace_exp_functional(a, L, h)
