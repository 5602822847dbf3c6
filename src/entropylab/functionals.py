"""Scalar trace functionals of Hermitian and positive definite matrices.

The central objects are the relative quantum entropy

    S(A|B) = Tr(A log A - A log B - A + B),

its reduction by a contraction H,

    S_H(A|B) = Tr(A log A - H* A H log B - A + B),

the trace-exponential functionals

    phi(A) = Tr exp(L + H* log(A) H),
    phi(A_1..A_k) = Tr exp(L + sum_i H_i* log(A_i) H_i),

and the Gibbs-type variational objectives whose maxima recover them.

Each functional is evaluated on the kept spectra (w, U) of its arguments
(see ``matrix_core``), and none forms a log, power or exp matrix.  In the
eigenbases of A and B a trace of products of their functions is a sum over
pairs of eigenvalues weighted by |V_ij|^2 with V = U_A* H U_B: so the
relative entropies, the Gibbs objective, the Lieb trace and its derivative
at p = 0 and the commuting-case bound Tr(e^L sum H_i* e^(B_i) H_i) are real
by construction, and so is Tr exp, the sum of the exps of the checked
eigenvalues of its symmetrized argument.  The imaginary-part guard runs
where a trace of a matrix product is still taken, the Tr(X L) and Tr A of
:func:`phi_objective`: there the real part is returned after checking that
the imaginary part is at round-off level, and a larger one raises
NumericalInconsistency instead of being silently discarded.  A trace sum
that overflows (a sum of exps, or of terms a log a at entries near the
largest double) raises NonFiniteObjective instead of returning inf or NaN.

Every functional also takes stacks of arguments (see ``matrix_core``): given
values of shape (T, n, n) it returns the T values, each bit-equal to the
value of its own 2-d arguments; given 2-d values it returns a float.  The
stack shapes of the arguments broadcast, so a (P, T, n, n) stack of P points
against (T, n, n) stacks of the other arguments gives (P, T) values.

A contraction argument H is either a raw array, whose operator norm is
checked on every call, or a :class:`~entropylab.matrix_core.Contraction`,
checked once when it was built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, NonFiniteObjective, NumericalInconsistency
from .matrix_core import (
    Contraction,
    ContractionTuple,
    HermitianMatrix,
    PositiveDefiniteMatrix,
    _adjoint,
    _any,
    _basis_overlap,
    _block_diagonal,
    _checked_eigvalsh,
    _norm_checked,
    _on_eigenvalues,
    _per_matrix,
    _power,
    _trace,
    as_complex_matrix,
    spectral_decompose,
)

IMAG_TOL = 1e-10


def _real_trace(value):
    """Real part of a trace (or of a stack's traces), guarded against a
    non-negligible imaginary part."""
    bad = abs(value.imag) > IMAG_TOL * (1.0 + abs(value.real))
    if _any(bad):
        worst = complex(np.asarray(value)[bad].flat[0])
        raise NumericalInconsistency(
            f"trace should be real but has imaginary part {worst.imag:.3e} "
            f"(real part {worst.real:.6g})"
        )
    return _per_matrix(value.real)


def _contraction_arg(H, rows: int, cols: int, what: str = "H") -> Contraction:
    """H as a Contraction of shape (rows, cols).  A raw array is checked for
    its shape first and then for its norm; a Contraction only for its shape.
    The entries are coerced and checked for finiteness once, here."""
    checked = isinstance(H, Contraction)
    h = H.mat if checked else as_complex_matrix(H, name=what)
    if h.shape[-2:] != (rows, cols):
        raise DimensionError(f"{what} must have shape {(rows, cols)}, got {h.shape}")
    return H if checked else Contraction._bounded(_norm_checked(h, what))


def _trace_exp(arg: np.ndarray):
    """Tr exp of a Hermitian matrix via its (real) eigenvalue sum; only the
    checked eigenvalues are computed."""
    w = _checked_eigvalsh(HermitianMatrix(arg).mat)
    with np.errstate(over="ignore"):
        total = np.exp(w).sum(axis=-1)
    if not np.isfinite(total).all():
        raise NonFiniteObjective(f"Tr exp overflows: top eigenvalue {np.max(w[..., -1]):.6g}")
    return _per_matrix(total)


def _weights(v):
    """|v_ij|^2 of an overlap, or None (the identity) for None."""
    return None if v is None else v.real ** 2 + v.imag ** 2


def _pair_sum(x: np.ndarray, weights, y: np.ndarray):
    """sum_ij x_i weights_ij y_j per matrix of a stack, with None weights
    the identity: sum_i x_i y_i.  The same arguments give the same bits."""
    col = y[..., :, None]
    if weights is not None:
        col = weights @ col
    return (x[..., None, :] @ col)[..., 0, 0]


def _conjugated_log(A: PositiveDefiniteMatrix, h: np.ndarray) -> np.ndarray:
    """H* log(A) H = W* diag(log a) W with W = U_A* H, from the kept
    spectrum of A."""
    log_a, _ = _on_eigenvalues(A, np.log, "log")
    w = _basis_overlap(A, h)
    return _adjoint(w) @ (log_a[..., :, None] * w)


def _finite_sum(what: str, total: Callable[[], np.ndarray]):
    """``total()``, a trace sum, computed with overflow and invalid-value
    warnings off; a sum that is not finite (a term that overflows, or inf -
    inf) raises NonFiniteObjective naming ``what``."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = total()
    if not np.isfinite(value).all():
        raise NonFiniteObjective(f"{what} is not finite: it overflows")
    return _per_matrix(value)


def _exp_weighted_trace(L: HermitianMatrix, pairs, what: str):
    """The sum over (h, B) in ``pairs`` of Tr(e^L h e^B h*) = sum_jk e^(l_j)
    |(U_L* h U_B)_jk|^2 e^(b_k), for Hermitian L and B and h None for the
    identity; a sum that overflows, an exp of an eigenvalue included, raises
    NonFiniteObjective."""
    def total():
        exp_l = np.exp(spectral_decompose(L).eigenvalues)
        return sum(_pair_sum(exp_l, _weights(_basis_overlap(L, h, B)),
                             np.exp(spectral_decompose(B).eigenvalues)) for h, B in pairs)
    return _finite_sum(what, total)


def _entropy(A: PositiveDefiniteMatrix, B: PositiveDefiniteMatrix, h):
    """Tr(A log A - H* A H log B - A + B) from the kept spectra, with h None
    for H = I: sum_i a_i log a_i - sum_ij a_i |V_ij|^2 log b_j - Tr A + Tr B
    for V = U_A* H U_B."""
    log_a, dec_a = _on_eigenvalues(A, np.log, "log")
    log_b, _ = _on_eigenvalues(B, np.log, "log")
    a, weights = dec_a.eigenvalues, _weights(_basis_overlap(A, h, B))
    return _finite_sum("Tr(A log A - H* A H log B - A + B)", lambda: (
        _pair_sum(a, None, log_a) - _pair_sum(a, weights, log_b)
        - _trace(A.mat).real + _trace(B.mat).real))


def reduced_relative_entropy(A: PositiveDefiniteMatrix, B: PositiveDefiniteMatrix,
                             H) -> float:
    """Reduced relative entropy Tr(A log A - H* A H log B - A + B).

    ``H`` is a contraction mapping the space of B into the space of A, i.e.
    of shape (dim A, dim B); for H = I this is the relative quantum entropy.
    """
    return _entropy(A, B, _contraction_arg(H, A.dim, B.dim).mat)


def relative_entropy(A: PositiveDefiniteMatrix, B: PositiveDefiniteMatrix) -> float:
    """Relative quantum entropy S(A|B); nonnegative, zero exactly at A = B."""
    if A.dim != B.dim:
        raise DimensionError(f"A and B must have equal dimension, got {A.dim} and {B.dim}")
    return _entropy(A, B, None)


def _lieb_overlap(A: PositiveDefiniteMatrix, B: PositiveDefiniteMatrix, H) -> np.ndarray:
    """|U_A* H U_B|^2 for an H of shape (dim A, dim B), which is not
    checked for its norm."""
    h = as_complex_matrix(H, name="H")
    if h.shape[-2:] != (A.dim, B.dim):
        raise DimensionError(f"H must have shape {(A.dim, B.dim)}, got {h.shape}")
    return _weights(_basis_overlap(A, h, B))


def lieb_trace(A: PositiveDefiniteMatrix, B: PositiveDefiniteMatrix, H,
               p: float) -> float:
    """Tr(H B^p H* A^(1-p)) for p in [0, 1]; jointly concave in (A, B).
    From the kept spectra: sum_ij a_i^(1-p) |V_ij|^2 b_j^p, V = U_A* H U_B."""
    return _lieb_sum(_lieb_overlap(A, B, H), A, B, p)


def _lieb_sum(weights: np.ndarray, A: PositiveDefiniteMatrix, B: PositiveDefiniteMatrix,
              p: float):
    """sum_ij a_i^(1-p) weights_ij b_j^p: :func:`lieb_trace` for the weights
    |U_A* H U_B|^2 of :func:`_lieb_overlap`, which several p can share."""
    b_p, _ = _on_eigenvalues(B, _power(p), "power")
    a_1p, _ = _on_eigenvalues(A, _power(1.0 - p), "power")
    return _finite_sum("Tr(H B^p H* A^(1-p))", lambda: _pair_sum(a_1p, weights, b_p))


def lieb_trace_derivative_at_zero(A: PositiveDefiniteMatrix,
                                  B: PositiveDefiniteMatrix, H) -> float:
    """d/dp Tr(H B^p H* A^(1-p)) at p = 0, in closed form:
    Tr(H log(B) H* A - H H* A log A) = sum_ij a_i |V_ij|^2 (log b_j - log a_i)."""
    weights = _lieb_overlap(A, B, H)
    log_a, dec_a = _on_eigenvalues(A, np.log, "log")
    log_b, _ = _on_eigenvalues(B, np.log, "log")
    gaps = log_b[..., None, :] - log_a[..., :, None]
    return _finite_sum("d/dp Tr(H B^p H* A^(1-p)) at p = 0",
                       lambda: _pair_sum(dec_a.eigenvalues, weights * gaps, np.ones(B.dim)))


def trace_exp_functional(A: PositiveDefiniteMatrix, L: HermitianMatrix, H) -> float:
    """phi(A) = Tr exp(L + H* log(A) H), concave on the PD cone.

    A is m x m, L is n x n, and the contraction H maps n-space into the
    space of A (shape m x n).
    """
    h = _contraction_arg(H, A.dim, L.dim).mat
    return _trace_exp(L.mat + _conjugated_log(A, h))


@dataclass(frozen=True)
class MultiInstance:
    """Argument tuple (L, H_1..H_k, A_1..A_k or B_1..B_k) for the k-variable
    trace functionals.  Exactly one of ``a_list`` / ``b_list`` is present:
    positive definite matrices enter through their logarithm, self-adjoint
    ones directly (the Golden-Thompson / Jensen family)."""

    L: HermitianMatrix
    H: ContractionTuple
    a_list: tuple[PositiveDefiniteMatrix, ...] | None = None
    b_list: tuple[HermitianMatrix, ...] | None = None

    def __post_init__(self):
        if (self.a_list is None) == (self.b_list is None):
            raise DimensionError("exactly one of a_list and b_list must be given")
        if self.a_list is not None:
            object.__setattr__(self, "a_list", tuple(self.a_list))
            mats = self.a_list
            if not all(isinstance(a, PositiveDefiniteMatrix) for a in mats):
                raise DimensionError("a_list entries must be PositiveDefiniteMatrix")
        else:
            object.__setattr__(self, "b_list", tuple(self.b_list))
            mats = self.b_list
            if not all(isinstance(b, HermitianMatrix) for b in mats):
                raise DimensionError("b_list entries must be HermitianMatrix")
        if len(mats) != self.H.k:
            raise DimensionError(f"expected {self.H.k} matrices, got {len(mats)}")
        if self.L.dim != self.H.n:
            raise DimensionError(f"L has dim {self.L.dim}, blocks map from dim {self.H.n}")
        for i, mat in enumerate(mats):
            if mat.dim != self.H.m:
                raise DimensionError(f"matrix {i} has dim {mat.dim}, blocks act on dim {self.H.m}")

    @property
    def k(self) -> int:
        return self.H.k


def _plus(base: np.ndarray, terms) -> np.ndarray:
    """base plus each of one or more terms, broadcast over their stack
    shapes (a stack of points against one stack of base)."""
    terms = iter(terms)
    total = base + next(terms)
    for term in terms:
        total += term
    return total


def _conjugated_sum(L: HermitianMatrix, H: ContractionTuple,
                    middles: list[np.ndarray]) -> np.ndarray:
    """L + sum_i H_i* M_i H_i, broadcast over the stack shapes of L and the
    M_i (a stack of points of the M_i against one stack of L and H)."""
    return _plus(L.mat, (_adjoint(h) @ mid @ h for h, mid in zip(H.blocks, middles)))


def multi_trace_exp(inst: MultiInstance) -> float:
    """phi(A_1..A_k) = Tr exp(L + sum_i H_i* log(A_i) H_i)."""
    if inst.a_list is None:
        raise DimensionError("multi_trace_exp needs an instance with a_list")
    return _trace_exp(_plus(inst.L.mat, (_conjugated_log(a, h)
                                         for h, a in zip(inst.H.blocks, inst.a_list))))


def gt_jensen_lhs(inst: MultiInstance) -> float:
    """Tr exp(L + sum_i H_i* B_i H_i), the left side of the interpolation
    inequality between the Golden-Thompson and Jensen trace bounds."""
    if inst.b_list is None:
        raise DimensionError("gt_jensen_lhs needs an instance with b_list")
    arg = _conjugated_sum(inst.L, inst.H, [b.mat for b in inst.b_list])
    return _trace_exp(arg)


def gt_jensen_rhs(inst: MultiInstance) -> float:
    """Tr(exp(L) sum_i H_i* exp(B_i) H_i), the commuting-case bound, as
    sum_i sum_jk e^(l_j) |(U_L* H_i* U_(B_i))_jk|^2 e^(b_k); a sum that
    overflows raises NonFiniteObjective."""
    if inst.b_list is None:
        raise DimensionError("gt_jensen_rhs needs an instance with b_list")
    pairs = ((_adjoint(h), b) for h, b in zip(inst.H.blocks, inst.b_list))
    return _exp_weighted_trace(inst.L, pairs, "Tr(e^L sum H_i* e^(B_i) H_i)")


@dataclass(frozen=True)
class BlockLift:
    """Single-variable embedding of a k-tuple instance.

    ``a_hat`` is the km x km block diagonal of the A_i, ``l_hat`` the kn x kn
    matrix with L in the leading block, and ``h_hat`` the km x kn contraction
    with the H_i stacked down the first block column.  The defining identity
    is Tr exp(l_hat + h_hat* log(a_hat) h_hat) = phi(A_1..A_k) + (k-1) n.
    """

    a_hat: PositiveDefiniteMatrix
    l_hat: HermitianMatrix
    h_hat: Contraction

    def lifted_value(self) -> float:
        return trace_exp_functional(self.a_hat, self.l_hat, self.h_hat)


def block_lift(inst: MultiInstance) -> BlockLift:
    """Embed a k-tuple instance into block matrices, zero-padded so that the
    k-variable functional reduces to the single-variable one.  Each lifted
    value keeps the stack shape of what it is built from: ``a_hat`` that of
    the A_i, ``l_hat`` that of L and ``h_hat`` that of the H_i, so a stack
    of points of the A_i shares one ``l_hat`` and ``h_hat``, which
    :meth:`BlockLift.lifted_value` broadcasts against them."""
    if inst.a_list is None:
        raise DimensionError("block_lift needs an instance with a_list")
    k, m, n = inst.H.k, inst.H.m, inst.H.n
    l_hat = np.zeros(inst.L.mat.shape[:-2] + (k * n, k * n), dtype=np.complex128)
    l_hat[..., :n, :n] = inst.L.mat
    h_hat = np.zeros(inst.H.blocks[0].shape[:-2] + (k * m, k * n), dtype=np.complex128)
    for i, h in enumerate(inst.H.blocks):
        h_hat[..., i * m:(i + 1) * m, :n] = h
    # ||h_hat||^2 is the top eigenvalue of sum(H_i* H_i), which the tuple
    # bounds by 1 + CONTRACTION_TOL, so ||h_hat|| <= 1 + CONTRACTION_TOL.
    return BlockLift(
        a_hat=_block_diagonal(inst.a_list, inst.a_list[0].mat.shape[:-2]),
        l_hat=HermitianMatrix(l_hat),
        h_hat=Contraction._bounded(h_hat),
    )


def gibbs_objective(X: PositiveDefiniteMatrix, B: PositiveDefiniteMatrix) -> float:
    """Tr(X log B - X log X + X); maximized over X > 0 at X = B with value Tr B."""
    if X.dim != B.dim:
        raise DimensionError(f"X and B must have equal dimension, got {X.dim} and {B.dim}")
    log_b, _ = _on_eigenvalues(B, np.log, "log")
    log_x, dec_x = _on_eigenvalues(X, np.log, "log")
    x, weights = dec_x.eigenvalues, _weights(_basis_overlap(X, None, B))
    return _finite_sum("Tr(X log B - X log X + X)", lambda: (
        _pair_sum(x, weights, log_b) - _pair_sum(x, None, log_x) + _trace(X.mat).real))


def phi_objective(X: PositiveDefiniteMatrix, A: PositiveDefiniteMatrix,
                  L: HermitianMatrix, H) -> float:
    """-S_{H*}(X|A) + Tr(X L + A), the variational objective whose maximum
    over X > 0 equals Tr exp(L + H* log(A) H).

    ``H`` is the contraction of :func:`trace_exp_functional`; its adjoint is
    applied inside the reduced relative entropy (and not checked again), so
    X lives in n-space and A in m-space.
    """
    H = _contraction_arg(H, A.dim, L.dim)
    if X.dim != L.dim:
        raise DimensionError(f"X must have the dimension of L ({L.dim}), got {X.dim}")
    value = -reduced_relative_entropy(X, A, H.adjoint())
    value += _real_trace(_trace(X.mat @ L.mat))
    value += _real_trace(_trace(A.mat))
    return value


# eval name -> (the name of its function here, looked up at call time so that
# a rebinding takes effect; its instance fields in argument order, see
# serialization.read_fields).
FUNCTIONALS = {
    "relative_entropy": ("relative_entropy", {"A": "pd", "B": "pd"}),
    "reduced_relative_entropy": ("reduced_relative_entropy",
                                 {"A": "pd", "B": "pd", "H": "matrix"}),
    "lieb_trace": ("lieb_trace", {"A": "pd", "B": "pd", "H": "matrix", "p": "float"}),
    "lieb_derivative": ("lieb_trace_derivative_at_zero", {"A": "pd", "B": "pd", "H": "matrix"}),
    "phi": ("trace_exp_functional", {"A": "pd", "L": "hermitian", "H": "matrix"}),
    "multi_phi": ("multi_trace_exp", {"inst": "multi"}),
    "gt_jensen_rhs": ("gt_jensen_rhs", {"inst": "multi"}),
    "gibbs_objective": ("gibbs_objective", {"X": "pd", "B": "pd"}),
}
