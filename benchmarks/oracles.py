"""Reference values computed independently of entropylab.

Every matrix function here comes from scipy (``expm``, ``logm``,
``fractional_matrix_power``), which uses Pade and Schur methods rather than
the eigendecomposition entropylab is built on.  Instances are decoded from
the JSON wire format with this module's own reader.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm, fractional_matrix_power, logm


def decode(obj) -> np.ndarray:
    """A matrix object {"rows", "cols", "data": [[re, im], ...]} as an array."""
    data = np.asarray(obj["data"], dtype=np.float64)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def _tr(m: np.ndarray) -> float:
    return float(np.trace(m).real)


def trace(B) -> float:
    """Tr B, the maximum of the Gibbs objective."""
    return _tr(B)


def _adj(h: np.ndarray) -> np.ndarray:
    return h.conj().T


def relative_entropy(A, B) -> float:
    return _tr(A @ logm(A) - A @ logm(B) - A + B)


def reduced_relative_entropy(A, B, H) -> float:
    return _tr(A @ logm(A) - A) - _tr(_adj(H) @ A @ H @ logm(B)) + _tr(B)


def lieb_trace(A, B, H, p) -> float:
    return _tr(H @ fractional_matrix_power(B, p) @ _adj(H) @ fractional_matrix_power(A, 1.0 - p))


def lieb_derivative(A, B, H) -> float:
    return _tr(H @ logm(B) @ _adj(H) @ A) - _tr(H @ _adj(H) @ A @ logm(A))


def phi(A, L, H) -> float:
    return _tr(expm(L + _adj(H) @ logm(A) @ H))


def multi_phi(L, Hs, As) -> float:
    return _tr(expm(L + sum(_adj(h) @ logm(a) @ h for h, a in zip(Hs, As))))


def gt_jensen_rhs(L, Hs, Bs) -> float:
    return _tr(expm(L) @ sum(_adj(h) @ expm(b) @ h for h, b in zip(Hs, Bs)))


def gt_route(L, Hs, Bs) -> float:
    """Tr(e^L e^(sum H_i* B_i H_i)), the Golden-Thompson-first bound."""
    return _tr(expm(L) @ expm(sum(_adj(h) @ b @ h for h, b in zip(Hs, Bs))))


def gibbs_objective(X, B) -> float:
    return _tr(X @ logm(B) - X @ logm(X) + X)


def witness_problems(record: dict) -> list[str]:
    """A gt_route_gap witness must show a positive gap, and its reported gap
    must match the gap recomputed from its dump within
    1e-9 (1 + |lhs| + |rhs|)."""
    inst = record["instance"]
    L = decode(inst["L"])
    Hs = [decode(h) for h in inst["H"]]
    Bs = [decode(b) for b in inst["B"]]
    lhs, rhs = gt_route(L, Hs, Bs), gt_jensen_rhs(L, Hs, Bs)
    gap = lhs - rhs
    tol = 1e-9 * (1.0 + abs(lhs) + abs(rhs))
    problems = []
    if not gap > 0.0:
        problems.append(f"witness gap {gap!r} recomputed with expm is not positive")
    if not abs(gap - record["gap"]) <= tol:
        problems.append(f"reported gap {record['gap']!r} differs from expm gap {gap!r} by more than {tol:.3e}")
    return problems
