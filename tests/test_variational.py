import math
from dataclasses import fields

import numpy as np
import pytest

from entropylab import variational
from entropylab.errors import DomainError, NonFiniteObjective
from entropylab.functionals import gibbs_objective, phi_objective, trace_exp_functional
from entropylab.matrix_core import (
    HermitianMatrix,
    PositiveDefiniteMatrix,
    make_rng,
    matrix_exp,
    matrix_log,
    random_hermitian,
    random_pd,
)
from entropylab.variational import (
    SolverConfig,
    _ascend,
    gibbs_gradient,
    maximize,
    phi_gradient,
)


def random_strict_contraction(rng, rows, cols, norm=0.9):
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return norm * g / np.linalg.norm(g, 2)


def directional_derivative(f, x, v, eps=1e-5):
    up = PositiveDefiniteMatrix(x.mat + eps * v)
    down = PositiveDefiniteMatrix(x.mat - eps * v)
    return (f(up) - f(down)) / (2.0 * eps)


class TestGradients:
    def test_gibbs_stationary_at_maximizer(self):
        b = random_pd(4, (0.05, 5.0), 1)
        g = gibbs_gradient(b, b)
        assert np.abs(g.mat).max() <= 1e-10

    def test_phi_stationary_at_closed_form(self):
        rng = make_rng(2)
        for _ in range(10):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            a = random_pd(m, (0.05, 5.0), rng)
            L = random_hermitian(n, 1.0, rng)
            h = random_strict_contraction(rng, m, n)
            x_star = matrix_exp(HermitianMatrix(L.mat + h.conj().T @ matrix_log(a).mat @ h))
            g = phi_gradient(x_star, a, L, h)
            assert np.abs(g.mat).max() <= 1e-9

    @pytest.mark.parametrize("objective", ["gibbs", "phi"])
    def test_finite_difference_agreement(self, objective):
        # 100 random instances, dims 1..5, central differences at step 1e-5.
        rng = make_rng(3 if objective == "gibbs" else 4)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            x = random_pd(d, (0.2, 3.0), rng)
            if objective == "gibbs":
                b = random_pd(d, (0.2, 3.0), rng)
                f = lambda z: gibbs_objective(z, b)
                grad = gibbs_gradient(x, b)
            else:
                m = int(rng.integers(1, 6))
                a = random_pd(m, (0.2, 3.0), rng)
                L = random_hermitian(d, 1.0, rng)
                h = random_strict_contraction(rng, m, d)
                f = lambda z: phi_objective(z, a, L, h)
                grad = phi_gradient(x, a, L, h)
            v = random_hermitian(d, 1.0, rng).mat
            fd = directional_derivative(f, x, v)
            analytic = float(np.trace(grad.mat @ v).real)
            scale = max(1.0, abs(analytic))
            assert abs(fd - analytic) <= 1e-5 * scale


class TestMaximize:
    def test_gibbs_on_diagonal(self):
        b = PositiveDefiniteMatrix(np.diag([1.0, 2.0]))
        result = maximize("gibbs", {"B": b})
        assert result.converged
        assert result.value == pytest.approx(3.0, abs=1e-6)
        assert np.linalg.norm(result.argmax.mat - b.mat, "fro") <= 1e-6

    def test_gibbs_random_instances(self):
        rng = make_rng(5)
        for _ in range(10):
            d = int(rng.integers(1, 6))
            b = random_pd(d, (0.05, 5.0), rng)
            result = maximize("gibbs", {"B": b})
            tr_b = b.trace()
            assert result.converged
            assert abs(result.value - tr_b) <= 1e-6 * (1.0 + tr_b)
            err = np.linalg.norm(result.argmax.mat - b.mat, "fro")
            assert err <= 1e-5 * (1.0 + np.linalg.norm(b.mat, "fro"))

    def test_phi_scalar(self):
        data = {
            "A": PositiveDefiniteMatrix([[4.0]]),
            "L": HermitianMatrix([[0.0]]),
            "H": np.array([[0.5]]),
        }
        result = maximize("phi", data)
        assert result.converged
        assert result.value == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert result.argmax.mat[0, 0].real == pytest.approx(math.sqrt(2.0), abs=1e-6)

    def test_phi_matches_trace_exp(self):
        rng = make_rng(6)
        for _ in range(10):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            a = random_pd(m, (0.05, 5.0), rng)
            L = random_hermitian(n, 1.0, rng)
            h = random_strict_contraction(rng, m, n)
            result = maximize("phi", {"A": a, "L": L, "H": h})
            target = trace_exp_functional(a, L, h)
            assert result.converged
            assert abs(result.value - target) <= 1e-6 * (1.0 + abs(target))
            assert result.value <= target + 1e-9 * (1.0 + abs(target))
            x_star = matrix_exp(HermitianMatrix(L.mat + h.conj().T @ matrix_log(a).mat @ h))
            assert np.linalg.norm(result.argmax.mat - x_star.mat, "fro") <= 1e-5

    def test_monotone_objective_history(self):
        rng = make_rng(7)
        for _ in range(5):
            b = random_pd(4, (0.05, 5.0), rng)
            result = maximize("gibbs", {"B": b})
            hist = result.objective_history
            assert all(y >= x for x, y in zip(hist, hist[1:]))

    def test_value_never_exceeds_analytic_optimum(self):
        rng = make_rng(8)
        for _ in range(10):
            d = int(rng.integers(1, 6))
            b = random_pd(d, (0.05, 5.0), rng)
            result = maximize("gibbs", {"B": b})
            tr_b = b.trace()
            assert result.value <= tr_b + 1e-9 * (1.0 + tr_b)
            assert result.value >= tr_b - 1e-6 * (1.0 + tr_b)

    def test_converged_implies_small_gradient(self):
        b = random_pd(3, (0.05, 5.0), 9)
        cfg = SolverConfig(grad_tol=1e-10)
        result = maximize("gibbs", {"B": b}, cfg)
        if result.converged:
            assert result.final_grad_norm <= cfg.grad_tol

    def test_iteration_cap_respected(self):
        b = random_pd(5, (0.05, 5.0), 10)
        cfg = SolverConfig(max_iters=1, grad_tol=1e-16)
        result = maximize("gibbs", {"B": b}, cfg)
        assert result.iterations <= 1

    def test_unknown_objective(self):
        with pytest.raises(DomainError):
            maximize("entropy", {})


class TestSolverGuards:
    def test_non_finite_objective_reported(self):
        with pytest.raises(NonFiniteObjective):
            _ascend(lambda x: float("nan"),
                    lambda x: HermitianMatrix(np.zeros((2, 2))), 2, SolverConfig())

    def test_non_finite_gradient_reported(self):
        def grad(_x):
            h = HermitianMatrix.__new__(HermitianMatrix)
            h.mat = np.full((2, 2), np.inf)
            return h

        with pytest.raises(NonFiniteObjective):
            _ascend(lambda x: 0.0, grad, 2, SolverConfig())

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SolverConfig(max_iters=0)
        with pytest.raises(DomainError):
            SolverConfig(grad_tol=0.0)

    @pytest.mark.parametrize("grad_tol", [float("nan"), float("inf")])
    def test_grad_tol_must_be_finite(self, grad_tol):
        # A NaN tolerance ran every iteration and an infinite one stopped
        # before the first step, each with a result and no error.
        with pytest.raises(DomainError, match="grad_tol finite and positive"):
            SolverConfig(grad_tol=grad_tol)

    def test_config_holds_the_stopping_rule_only(self):
        # The step rule is a set of module constants, not settings.
        assert [f.name for f in fields(SolverConfig)] == ["max_iters", "grad_tol"]
        assert (variational._INITIAL_STEP, variational._BACKTRACK_FACTOR,
                variational._ARMIJO_C) == (1.0, 0.5, 1e-4)


class TestStops:
    """The ascent stops in one of three ways: the gradient norm reaches
    grad_tol (converged), no backtracked step gives a sufficient increase
    (stalled), or max_iters steps are taken."""

    @staticmethod
    def _counted(f):
        calls = []

        def counted(x):
            calls.append(None)
            return f(x)

        return counted, calls

    def test_backtracking_runs_on_a_tolerance_below_round_off(self):
        b = random_pd(4, seed=1)
        objective, calls = self._counted(lambda x: gibbs_objective(x, b))
        cfg = SolverConfig(max_iters=40, grad_tol=1e-300)
        result = _ascend(objective, lambda x: gibbs_gradient(x, b), 4, cfg)
        # One evaluation at the start and at least one per accepted step;
        # more than that means some steps were halved.
        assert result.iterations == cfg.max_iters and not result.converged
        assert len(calls) > 1 + result.iterations
        assert len(result.objective_history) == result.iterations + 1
        hist = result.objective_history
        assert all(y >= x for x, y in zip(hist, hist[1:]))

    def test_stall_when_no_step_increases_the_objective(self):
        objective, calls = self._counted(lambda x: 0.0)
        result = _ascend(objective, lambda x: HermitianMatrix(np.eye(2)), 2, SolverConfig())
        # The start, then every backtrack of the first step, all rejected.
        assert len(calls) == 1 + variational._MAX_BACKTRACKS == 61
        assert result.iterations == 0 and not result.converged
        assert result.final_grad_norm == math.sqrt(2.0)
        assert result.objective_history == [0.0]
        assert np.array_equal(result.argmax.mat, np.eye(2))

    def test_max_iters_measures_the_returned_iterate(self):
        b = random_pd(4, seed=1)
        result = maximize("gibbs", {"B": b}, SolverConfig(max_iters=3, grad_tol=1e-300))
        assert result.iterations == 3 and not result.converged
        assert result.final_grad_norm == float(
            np.linalg.norm(gibbs_gradient(result.argmax, b).mat, "fro"))

    def test_overflowing_step_is_a_non_finite_objective(self):
        with pytest.raises(NonFiniteObjective, match="left the representable PD cone"):
            _ascend(lambda x: 0.0, lambda x: HermitianMatrix(1e3 * np.eye(2)), 2,
                    SolverConfig())
