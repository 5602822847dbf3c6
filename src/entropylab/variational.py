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
It stops in one of three ways: converged (the gradient norm is at most
``grad_tol``), stalled (``_MAX_BACKTRACKS`` halvings of the step found no
sufficient increase, the round-off limit) or after ``max_iters`` steps
(the gradient norm of the last iterate is then measured, unchecked).
``OBJECTIVES`` holds each objective's instance fields, which ``optimize``
reads, and the name of its problem builder, which ``maximize`` calls.
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
    the Frobenius norm of the gradient is at most ``grad_tol``, which must be
    finite and positive (a NaN would never stop the ascent, and infinity
    would stop it before the first step)."""

    max_iters: int = 500
    grad_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1 or not 0.0 < self.grad_tol < np.inf:
            raise DomainError("max_iters must be positive and grad_tol finite and positive, "
                              f"got max_iters={self.max_iters}, grad_tol={self.grad_tol}")


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

    for _ in range(cfg.max_iters):
        g = gradient(x).mat
        if not np.all(np.isfinite(g)):
            raise NonFiniteObjective("gradient contains non-finite entries")
        grad_norm = float(np.linalg.norm(g, "fro"))
        if grad_norm <= cfg.grad_tol:
            break  # converged

        step = _INITIAL_STEP
        for _ in range(_MAX_BACKTRACKS):
            y_trial = y + step * g
            x_trial = _exp_point(y_trial)
            f_trial = _finite(objective(x_trial), "objective")
            if f_trial >= f + _ARMIJO_C * step * grad_norm ** 2:
                break
            step *= _BACKTRACK_FACTOR
        else:
            break  # stalled: the step length underflowed at the round-off limit

        y, x, f = y_trial, x_trial, f_trial
        history.append(f)
    else:
        # max_iters steps taken: the gradient norm at the last iterate.
        grad_norm = float(np.linalg.norm(gradient(x).mat, "fro"))

    return SolverResult(argmax=x, value=f, iterations=len(history) - 1, final_grad_norm=grad_norm,
                        converged=grad_norm <= cfg.grad_tol, objective_history=history)


def _gibbs_problem(B):
    return (lambda x: gibbs_objective(x, B)), (lambda x: gibbs_gradient(x, B)), B.dim


def _phi_problem(A, L, H):
    h = _contraction_arg(H, A.dim, L.dim)
    return (lambda x: phi_objective(x, A, L, h)), (lambda x: phi_gradient(x, A, L, h)), L.dim


# optimize name -> (its problem builder here, which gives the objective, its
# gradient and the order of X; the data fields in argument order).
OBJECTIVES = {
    "gibbs": ("_gibbs_problem", {"B": "pd"}),
    "phi": ("_phi_problem", {"A": "pd", "L": "hermitian", "H": "matrix"}),
}


def maximize(objective: str, data: Mapping, cfg: SolverConfig | None = None) -> SolverResult:
    """Maximize one of the named objectives over X > 0.

    Parameters
    ----------
    objective:
        A key of ``OBJECTIVES``, whose fields are the keys of ``data``.
    data:
        Mapping holding the fixed problem data.
    cfg:
        The stopping rule; the defaults suit desk-scale instances.
    """
    cfg = cfg or SolverConfig()
    if objective not in OBJECTIVES:
        raise DomainError(f"unknown objective {objective!r}; "
                          f"expected {' or '.join(map(repr, OBJECTIVES))}")
    builder, fields = OBJECTIVES[objective]
    return _ascend(*globals()[builder](*(data[key] for key in fields)), cfg)
