"""Concave maximization over the positive definite cone, in closed form.

Both objectives handled here,

    gibbs: X -> Tr(X log B - X log X + X)          (max value Tr B, at X = B)
    phi:   X -> -S_{H*}(X|A) + Tr(X L + A)         (max value Tr exp(L + H* log(A) H))

have the Euclidean gradient G - log X, with G = log B for gibbs and
G = L + H* log(A) H for phi.  Each is strictly concave, so its stationary
point X* = exp(G) is the maximum.  ``maximize`` computes X* and certifies it
by the Frobenius norm of the gradient G - log X* there, with the G of the
argmax, ``converged`` when that norm is at most ``SolverConfig.grad_tol``.
X* is one unit step of mirror ascent (the matrix exponentiated gradient)
Y <- Y + (G - log X), X = exp(Y).
``OBJECTIVES`` holds each objective's problem builder, which ``maximize``
calls, and its instance fields, which ``optimize`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DomainError, NonFiniteObjective
from .functionals import gibbs_objective, phi_objective, _contraction_arg
from .matrix_core import (
    HermitianMatrix,
    PositiveDefiniteMatrix,
    _adjoint,
    checked_tolerance,
    matrix_exp,
    matrix_log,
)


@dataclass(frozen=True)
class SolverConfig:
    """The certificate's bound: the argmax counts as converged when the
    Frobenius norm of the gradient there is at most ``grad_tol``, which must
    be finite and positive (a NaN would certify nothing, and infinity
    anything)."""

    grad_tol: float = 1e-8

    def __post_init__(self):
        checked_tolerance(self.grad_tol, "grad_tol")


@dataclass
class SolverResult:
    argmax: PositiveDefiniteMatrix
    value: float
    final_grad_norm: float
    converged: bool

    # The one mirror-ascent step from X = I; benchmarks/tracing.py sums it.
    iterations = 1


def _phi_exponent(A: PositiveDefiniteMatrix, L: HermitianMatrix, h: np.ndarray) -> np.ndarray:
    """L + H* log(A) H, for a matrix or a stack of matrices."""
    return L.mat + _adjoint(h) @ matrix_log(A).mat @ h


def _gradient(exponent: np.ndarray, X: PositiveDefiniteMatrix) -> HermitianMatrix:
    """The gradient G - log X of either objective at X, for its exponent G."""
    return HermitianMatrix(exponent - matrix_log(X).mat)


def gibbs_gradient(X: PositiveDefiniteMatrix, B: PositiveDefiniteMatrix) -> HermitianMatrix:
    """Euclidean gradient log B - log X of the Gibbs objective at X."""
    return _gradient(matrix_log(B).mat, X)


def phi_gradient(X: PositiveDefiniteMatrix, A: PositiveDefiniteMatrix,
                 L: HermitianMatrix, H) -> HermitianMatrix:
    """Euclidean gradient L + H* log(A) H - log X of the phi objective at X."""
    h = _contraction_arg(H, A.dim, L.dim).mat
    return _gradient(_phi_exponent(A, L, h), X)


def _finite(x: float, what: str) -> float:
    if not np.isfinite(x):
        raise NonFiniteObjective(f"{what} evaluated to {x}")
    return float(x)


def _exp_point(y: np.ndarray) -> PositiveDefiniteMatrix:
    try:
        return matrix_exp(HermitianMatrix(y))
    except DomainError as exc:
        # exp overflowed, or fell below the positive definite floor (underflow).
        raise NonFiniteObjective(f"argmax left the representable PD cone: {exc}") from exc


# Each builder gives the exponent G of the argmax exp(G), computed as the
# public gradient computes it, and the objective.
def _gibbs_problem(B):
    return matrix_log(B).mat, lambda x: gibbs_objective(x, B)


def _phi_problem(A, L, H):
    h = _contraction_arg(H, A.dim, L.dim)
    return _phi_exponent(A, L, h.mat), lambda x: phi_objective(x, A, L, h)


# optimize name -> (its problem builder; the data fields in argument order).
OBJECTIVES = {
    "gibbs": (_gibbs_problem, {"B": "pd"}),
    "phi": (_phi_problem, {"A": "pd", "L": "hermitian", "H": "matrix"}),
}


def maximize(objective: str, data: Mapping, cfg: SolverConfig | None = None) -> SolverResult:
    """Maximize one of the named objectives over X > 0 at exp(G), certified
    by the norm of the gradient G - log X there, with the same G.

    Parameters
    ----------
    objective:
        A key of ``OBJECTIVES``, whose fields are the keys of ``data``.
    data:
        Mapping holding the fixed problem data.
    cfg:
        The certificate's bound; the default suits desk-scale instances.

    An argmax that leaves the representable PD cone, or a value or gradient
    norm there that is not finite, raises ``NonFiniteObjective``.
    """
    cfg = cfg or SolverConfig()
    if objective not in OBJECTIVES:
        raise DomainError(f"unknown objective {objective!r}; "
                          f"expected {' or '.join(map(repr, OBJECTIVES))}")
    builder, fields = OBJECTIVES[objective]
    exponent, f = builder(*(data[key] for key in fields))
    x = _exp_point(exponent)
    value = _finite(f(x), "objective")
    grad_norm = _finite(np.linalg.norm(_gradient(exponent, x).mat, "fro"), "gradient norm")
    return SolverResult(argmax=x, value=value, final_grad_norm=grad_norm,
                        converged=grad_norm <= cfg.grad_tol)
