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
    stack,
)
from entropylab.variational import (
    SolverConfig,
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
    def test_stacked_gradient_is_the_gradient_of_each_entry(self, objective):
        rng = make_rng(14)
        xs = [random_pd(3, (0.05, 5.0), rng) for _ in range(4)]
        if objective == "gibbs":
            data = [(random_pd(3, (0.05, 5.0), rng),) for _ in xs]
            gradient = gibbs_gradient
        else:
            data = [(random_pd(2, (0.05, 5.0), rng), random_hermitian(3, 1.0, rng),
                     random_strict_contraction(rng, 2, 3)) for _ in xs]
            gradient = phi_gradient
        # Checked values are stacked as values, a raw H as an array.
        columns = [stack(c) if isinstance(c[0], HermitianMatrix) else np.stack(c)
                   for c in zip(*data)]
        stacked = gradient(stack(xs), *columns)
        for i, (x, args) in enumerate(zip(xs, data)):
            assert np.array_equal(stacked.mat[i], gradient(x, *args).mat)

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

    def test_unknown_objective(self):
        with pytest.raises(DomainError):
            maximize("entropy", {})


class TestSolverGuards:
    def test_non_finite_objective_reported(self, monkeypatch):
        monkeypatch.setattr(variational, "gibbs_objective", lambda x, b: float("nan"))
        with pytest.raises(NonFiniteObjective, match="objective evaluated to nan"):
            maximize("gibbs", {"B": random_pd(2, seed=1)})

    def test_non_finite_gradient_reported(self, monkeypatch):
        # The certificate's gradient comes from the helper both public
        # gradients share.
        def grad(_exponent, _x):
            h = HermitianMatrix.__new__(HermitianMatrix)
            h.mat = np.full((2, 2), np.inf)
            return h

        monkeypatch.setattr(variational, "_gradient", grad)
        with pytest.raises(NonFiniteObjective, match="gradient norm evaluated to inf"):
            maximize("gibbs", {"B": random_pd(2, seed=1)})

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SolverConfig(grad_tol=0.0)

    @pytest.mark.parametrize("grad_tol", [float("nan"), float("inf")])
    def test_grad_tol_must_be_finite(self, grad_tol):
        # A NaN tolerance ran every iteration and an infinite one stopped
        # before the first step, each with a result and no error.
        with pytest.raises(DomainError, match="grad_tol finite and positive"):
            SolverConfig(grad_tol=grad_tol)

    @pytest.mark.parametrize("grad_tol", [True, np.True_])
    def test_grad_tol_is_not_a_boolean(self, grad_tol):
        # True compares as 1.0, which would certify a gradient norm of 1.
        with pytest.raises(DomainError, match="grad_tol=" + repr(grad_tol)):
            SolverConfig(grad_tol=grad_tol)

    def test_config_holds_the_certificate_bound_only(self):
        assert [f.name for f in fields(SolverConfig)] == ["grad_tol"]


def _exponent(objective, data):
    if objective == "gibbs":
        return matrix_log(data["B"]).mat
    a, L, h = data["A"], data["L"], data["H"]
    return L.mat + h.conj().T @ matrix_log(a).mat @ h


def _instance(objective, seed):
    rng = make_rng(seed)
    if objective == "gibbs":
        return {"B": random_pd(4, (0.05, 5.0), rng)}
    return {"A": random_pd(3, (0.05, 5.0), rng), "L": random_hermitian(2, 1.0, rng),
            "H": random_strict_contraction(rng, 3, 2)}


class TestClosedForm:
    """The argmax is exp(G), computed once, and the gradient norm there is
    its certificate."""

    @pytest.mark.parametrize("objective", ["gibbs", "phi"])
    def test_argmax_is_the_exponential_of_the_exponent(self, objective):
        data = _instance(objective, 11)
        result = maximize(objective, data)
        expected = matrix_exp(HermitianMatrix(_exponent(objective, data)))
        assert np.array_equal(result.argmax.mat, expected.mat)
        assert result.converged and result.iterations == 1

    @pytest.mark.parametrize("objective", ["gibbs", "phi"])
    def test_a_tolerance_below_round_off_only_withholds_the_certificate(self, objective):
        data = _instance(objective, 12)
        loose = maximize(objective, data)
        tight = maximize(objective, data, SolverConfig(grad_tol=1e-300))
        assert loose.converged and not tight.converged
        assert np.array_equal(tight.argmax.mat, loose.argmax.mat)
        assert (tight.value, tight.final_grad_norm) == (loose.value, loose.final_grad_norm)

    def test_overflowing_argmax_is_a_non_finite_objective(self):
        data = {"A": random_pd(2, seed=1), "L": HermitianMatrix(1e3 * np.eye(2)),
                "H": 0.5 * np.eye(2)}
        with pytest.raises(NonFiniteObjective, match="left the representable PD cone"):
            maximize("phi", data)

    @pytest.mark.parametrize("objective", ["gibbs", "phi"])
    def test_the_exponent_is_formed_once(self, objective, monkeypatch):
        # log of the data for G, then log X* for the certificate G - log X*.
        logs = []
        genuine = variational.matrix_log
        monkeypatch.setattr(variational, "matrix_log", lambda a: logs.append(a) or genuine(a))
        result = maximize(objective, _instance(objective, 13))
        assert len(logs) == 2 and logs[-1] is result.argmax

    def test_certificate_is_the_gradient_norm_at_the_argmax(self):
        b = random_pd(4, seed=1)
        result = maximize("gibbs", {"B": b})
        assert result.final_grad_norm == float(
            np.linalg.norm(gibbs_gradient(result.argmax, b).mat, "fro"))
