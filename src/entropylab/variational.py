"""Concave maximization over the positive definite cone.

Both objectives handled here,

    gibbs: X -> Tr(X log B - X log X + X)          (max value Tr B, at X = B)
    phi:   X -> -S_{H*}(X|A) + Tr(X L + A)         (max value Tr exp(L + H* log(A) H))

are maximized by gradient ascent in the unconstrained parameterization
X = exp(Y) with Y Hermitian, which keeps every iterate positive definite.
The update direction is the Euclidean gradient at X applied directly to Y;
it is always an ascent direction, and Armijo backtracking on the true
objective guarantees monotone increase.  The step rule is fixed by the
module constants below; ``SolverConfig`` sets only when the ascent stops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import DomainError, NonFiniteObjective
from .functionals import gibbs_objective, phi_objective, _contraction_arg
from .matrix_core import (
    HermitianMatrix,
    PositiveDefiniteMatrix,
    matrix_exp,
    matrix_log,
)

# Armijo rule: first step, backtracking factor, sufficient-increase constant.
_INITIAL_STEP = 1.0
_BACKTRACK_FACTOR = 0.5
_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class SolverConfig:
    """When the ascent stops: after ``max_iters`` accepted steps, or once
    the Frobenius norm of the gradient is at most ``grad_tol``."""

    max_iters: int = 500
    grad_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1 or self.grad_tol <= 0:
            raise DomainError("max_iters and grad_tol must be positive")


@dataclass
class SolverResult:
    argmax: PositiveDefiniteMatrix
    value: float
    iterations: int
    final_grad_norm: float
    converged: bool
    objective_history: list[float] = field(default_factory=list)


def gibbs_gradient(X: PositiveDefiniteMatrix, B: PositiveDefiniteMatrix) -> HermitianMatrix:
    """Euclidean gradient log B - log X of the Gibbs objective at X."""
    return HermitianMatrix(matrix_log(B).mat - matrix_log(X).mat)


def phi_gradient(X: PositiveDefiniteMatrix, A: PositiveDefiniteMatrix,
                 L: HermitianMatrix, H) -> HermitianMatrix:
    """Euclidean gradient L + H* log(A) H - log X of the phi objective at X."""
    h = _contraction_arg(H, A.dim, L.dim).mat
    return HermitianMatrix(L.mat + h.conj().T @ matrix_log(A).mat @ h - matrix_log(X).mat)


def _finite(x: float, what: str) -> float:
    if not np.isfinite(x):
        raise NonFiniteObjective(f"{what} evaluated to {x}")
    return float(x)


def _exp_point(y: np.ndarray) -> PositiveDefiniteMatrix:
    try:
        return matrix_exp(HermitianMatrix(y))
    except DomainError as exc:
        # exp(Y) fell below the positive definite floor: eigenvalue underflow.
        raise NonFiniteObjective(f"iterate left the representable PD cone: {exc}") from exc


def _ascend(objective: Callable[[PositiveDefiniteMatrix], float],
            gradient: Callable[[PositiveDefiniteMatrix], HermitianMatrix],
            dim: int, cfg: SolverConfig) -> SolverResult:
    y = np.zeros((dim, dim), dtype=np.complex128)
    x = _exp_point(y)
    f = _finite(objective(x), "objective")
    history = [f]
    iterations = 0
    converged = False
    grad_norm = np.inf

    for _ in range(cfg.max_iters):
        g = gradient(x).mat
        if not np.all(np.isfinite(g)):
            raise NonFiniteObjective("gradient contains non-finite entries")
        grad_norm = float(np.linalg.norm(g, "fro"))
        if grad_norm <= cfg.grad_tol:
            converged = True
            break

        step = _INITIAL_STEP
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            y_trial = y + step * g
            x_trial = _exp_point(y_trial)
            f_trial = _finite(objective(x_trial), "objective")
            if f_trial >= f + _ARMIJO_C * step * grad_norm ** 2:
                accepted = True
                break
            step *= _BACKTRACK_FACTOR
        if not accepted:
            break  # step length underflowed: round-off limit reached

        y, x, f = y_trial, x_trial, f_trial
        history.append(f)
        iterations += 1

    if not converged:
        g = gradient(x).mat
        grad_norm = float(np.linalg.norm(g, "fro"))
        converged = grad_norm <= cfg.grad_tol

    return SolverResult(
        argmax=x,
        value=f,
        iterations=iterations,
        final_grad_norm=grad_norm,
        converged=converged,
        objective_history=history,
    )


def maximize(objective: str, data: Mapping, cfg: SolverConfig | None = None) -> SolverResult:
    """Maximize one of the named objectives over X > 0.

    Parameters
    ----------
    objective:
        "gibbs" (data: ``{"B": PositiveDefiniteMatrix}``) or
        "phi" (data: ``{"A": PD, "L": HermitianMatrix, "H": contraction}``).
    data:
        Mapping holding the fixed problem data.
    cfg:
        The stopping rule; the defaults suit desk-scale instances.
    """
    cfg = cfg or SolverConfig()
    if objective == "gibbs":
        B = data["B"]
        return _ascend(lambda x: gibbs_objective(x, B),
                       lambda x: gibbs_gradient(x, B), B.dim, cfg)
    if objective == "phi":
        A, L, H = data["A"], data["L"], data["H"]
        h = _contraction_arg(H, A.dim, L.dim)
        return _ascend(lambda x: phi_objective(x, A, L, h),
                       lambda x: phi_gradient(x, A, L, h), L.dim, cfg)
    raise DomainError(f"unknown objective {objective!r}; expected 'gibbs' or 'phi'")
