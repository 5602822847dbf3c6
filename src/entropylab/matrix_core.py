"""Dense complex Hermitian linear algebra.

Spectral decompositions, matrix functions defined through them (log, exp,
fractional powers), operator norms, and seeded random instance generation.
All matrix values are immutable after construction; every operation here is
a pure function, so values are safe to share across threads.  A Hermitian
value keeps its checked spectral decomposition once it has been computed,
so each value is decomposed at most once (two threads that race to compute
it store equal results).  A PD value whose spectrum is known when it is
built is never decomposed: it keeps that spectrum as its checked one.  So
exp(M) and A^p carry f(w) with the eigenvectors of their argument, a random
PD matrix its sorted drawn eigenvalues with its Haar eigenvectors, and a
positive multiple or a block diagonal of PD values the spectra of those
values.  The trace functionals read kept spectra directly: f of a value's
eigenvalues (``_on_eigenvalues``, which exp, log and powers reuse) and the
overlap U_A* H U_B of two eigenbases (``_basis_overlap``), with no matrix
function formed.

A value may be a stack: its entries have shape ``(..., n, n)`` (``(..., m,
n)`` for a contraction), and every check runs on each matrix of the stack,
raising if any fails.  A single value is the 2-d case, and a result that is
a number per matrix is a ``float`` for it and an array for a stack.
Stacked matrix operations run the same LAPACK and BLAS call per matrix, so
each entry of a stacked result has the bits of the single-value result.

The checked kernels, which every value passes through once:

- ``HermitianMatrix`` construction takes max |M_ij| per matrix in one
  reduction.  A NaN or inf fails its bound of half the largest double as
  an overflow does, and only then are the entries tested for finiteness,
  so the non-finite error still comes before the shape and overflow ones.
  The asymmetry max |M - M*| is bounded relative to it, and M + M* is
  halved in place with ``/= 2.0``: the bits of (M + M*) / 2.0.  Complex
  ``*= 0.5`` would differ in the sign of zero parts: -0.0 + 0j gives -0.0
  where the division gives +0.0.
- ``_checked_eigh`` runs one ``eigh`` and checks that U is unitary
  (max |U U* - I| <= 1e-10, ``_check_unitary``) and that U diag(w) U*
  reproduces the input to 1e-10 (1 + max |w|).
- ``_checked_eigvalsh`` runs one ``eigvalsh`` and checks sum(w) and
  sum(w^2) against the trace and the squared Frobenius norm; when every
  deviation is within a finite tolerance it returns at once.
- ``operator_norm`` is the first of the descending singular values of one
  gesdd call, the call and the bits of ``np.linalg.norm(a, 2)``.
  ``Contraction`` checks the norm of the array it has already coerced.

A residual that only feeds a check (U U* - I, U diag(w) U* - M, a Gram
sum minus I) is formed in place in the product it starts from, against
one read-only identity kept per order.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ConvergenceFailure, DimensionError, DomainError, NotAContraction

# Construction / validation tolerances.
HERMITIAN_TOL = 1e-12           # relative asymmetry allowed at construction
PD_FLOOR = 1e-10                # smallest admissible eigenvalue of a PD matrix
CONTRACTION_TOL = 1e-10         # slack on operator norm <= 1
IDENTITY_SUM_TOL = 1e-10        # slack on sum(H_i* H_i) == I for isometric tuples
# Eigenvalue window of random PD instances, kept away from zero so that
# logarithms stay well conditioned.
EIG_RANGE = (0.05, 5.0)
# Entries above this can overflow the symmetrization (M + M*)/2.
_HALF_MAX = np.finfo(np.float64).max / 2.0

SeedLike = Union[int, np.random.Generator]
_MATRIX_AXES = (-2, -1)


def as_complex_matrix(entries, name: str = "matrix") -> np.ndarray:
    """Coerce input to a finite complex128 matrix or stack of matrices
    (shape (..., rows, cols), rows and cols >= 1)."""
    if isinstance(entries, (HermitianMatrix, Contraction)):
        return entries.mat
    a = _complex_entries(entries, name)
    _check_finite(a, name)
    return a


def _complex_entries(entries, name: str) -> np.ndarray:
    """``entries`` as a complex128 matrix or stack, checked for its shape
    but not yet for finiteness; a checked value gives its ``.mat``."""
    if isinstance(entries, (HermitianMatrix, Contraction)):
        return entries.mat
    a = np.asarray(entries, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-2] < 1 or a.shape[-1] < 1:
        raise DimensionError(f"{name} must be 2-dimensional with positive shape, got {a.shape}")
    return a


def _check_finite(a: np.ndarray, name: str) -> None:
    if not np.isfinite(a).all():  # a complex entry is finite when both parts are
        raise DomainError(f"{name} contains non-finite entries")


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _trace(a: np.ndarray):
    """Trace of a matrix, or the traces of a stack."""
    return a.trace(axis1=-2, axis2=-1)


def _per_matrix(x):
    """A float for a single value's result, the array for a stack's."""
    return x if getattr(x, "ndim", 0) else float(x)


def _any(flags) -> bool:
    """Whether a check fails for the value, or for any matrix of a stack."""
    return bool(flags.any() if getattr(flags, "ndim", 0) else flags)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=32)
def _identity(n: int) -> np.ndarray:
    """The read-only n x n identity, made once per order."""
    return _frozen(np.eye(n))


class HermitianMatrix:
    """Square complex matrix kept exactly equal to its conjugate transpose.

    Construction rejects input whose asymmetry exceeds round-off scale, or
    with an entry above half the largest double (where M + M* could
    overflow), and stores the symmetrized form (M + M*)/2, so drift cannot
    accumulate across repeated functional compositions.  The spectral decomposition is
    computed and checked on first use by :func:`spectral_decompose` and
    kept with the value.
    """

    __slots__ = ("mat", "_spectrum")

    def __init__(self, entries):
        a = _complex_entries(entries, type(self).__name__)
        # A NaN or inf fails the bound too; only then are the entries tested
        # for finiteness, whose error comes first (see the module docstring).
        top = np.abs(a).max(axis=_MATRIX_AXES)
        unbounded = _any(~(top <= _HALF_MAX))
        if unbounded:
            _check_finite(a, type(self).__name__)
        if a.shape[-2] != a.shape[-1]:
            raise DimensionError(f"expected a square matrix, got shape {a.shape}")
        if unbounded:
            raise DomainError(f"matrix entry of modulus {np.max(top):.3e} overflows "
                              "the symmetrization (M + M*)/2")
        ah = _adjoint(a)
        asym = np.abs(a - ah).max(axis=_MATRIX_AXES)
        if _any(asym > HERMITIAN_TOL * (1.0 + top)):
            raise DomainError(f"matrix is not Hermitian: max |M - M*| = {np.max(asym):.3e}")
        mat = a + ah
        mat /= 2.0
        self.mat = _frozen(mat)
        self._spectrum = None

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]

    def trace(self):
        return _per_matrix(_trace(self.mat).real)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class PositiveDefiniteMatrix(HermitianMatrix):
    """Hermitian matrix with strictly positive spectrum.

    Construction computes the value's checked spectral decomposition (one
    ``eigh``), which later matrix functions of the value reuse, and takes
    ``min_eigenvalue`` from it; inputs with min eigenvalue <= ``PD_FLOOR``
    are rejected rather than regularized.  A value built inside the library
    from a known spectrum (see the module docstring) keeps that spectrum and
    runs no ``eigh``; its floor is ``PD_FLOOR`` too, and 0 for exp and power
    results.

    The kept spectrum, not ``.mat``, is what makes the value positive
    definite.  The ``.mat`` of exp(M) over a wide spectrum of M need not be
    numerically PD: its small eigenvalues are lost in the round-off of its
    large entries, and a new ``eigh`` of it can find them negative, while
    the carried exp(w) is accurate.  So no consumer may infer positivity
    from ``.mat`` alone (by a Cholesky, say); read ``min_eigenvalue`` or
    the spectrum.
    """

    __slots__ = ("min_eigenvalue",)

    def __init__(self, entries):
        super().__init__(entries)
        spectral_decompose(self)
        self._check_floor(PD_FLOOR)

    @classmethod
    def _with_spectrum(cls, entries, w: np.ndarray, u: np.ndarray,
                       pd_floor: float = PD_FLOOR) -> PositiveDefiniteMatrix:
        """``entries`` as a PD value whose spectrum the caller knows: the
        ascending eigenvalues ``w`` and unitary column eigenvectors ``u``,
        kept as the value's checked spectrum without an ``eigh``.  The
        entries are checked and symmetrized as by the constructor, and ``w``
        must be finite and above ``pd_floor``."""
        out = cls.__new__(cls)
        HermitianMatrix.__init__(out, entries)
        out._spectrum = SpectralDecomposition(eigenvalues=_frozen(w), eigenvectors=_frozen(u))
        out._check_floor(pd_floor)
        return out

    def _check_floor(self, pd_floor: float) -> None:
        w = self._spectrum.eigenvalues
        w0 = w[..., 0]
        if _any(w0 <= pd_floor) or not np.isfinite(w).all():
            raise DomainError(
                f"matrix is not positive definite above floor {pd_floor:.1e}: "
                f"min eigenvalue {np.min(w0):.3e}"
            )
        self.min_eigenvalue = _per_matrix(w0)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and a unitary matrix of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues[..., None, :]) @ _adjoint(u)


def _gram(blocks) -> np.ndarray:
    """sum(H_i* H_i), symmetrized."""
    shape = blocks[0].shape
    g = np.zeros(shape[:-2] + (shape[-1], shape[-1]), dtype=np.complex128)
    for b in blocks:
        g += _adjoint(b) @ b
    g = g + _adjoint(g)
    g /= 2.0
    return g


class ContractionTuple:
    """k rectangular blocks H_1..H_k of equal shape m x n with sum(H_i* H_i) <= I.

    When ``sum_is_identity`` is set the blocks must satisfy
    sum(H_i* H_i) = I_n up to round-off, which is checked at construction.
    A stack may give one flag per entry (an array of the stack's shape);
    then only the flagged entries are checked.  The flags are kept as one
    bool when the entries agree, and as that array when they differ.
    An entry of a block is at most the block's norm, so a tuple with an
    entry above 1 (up to ``CONTRACTION_TOL``) is rejected before the sum is
    formed, where its squares could overflow.
    """

    __slots__ = ("blocks", "k", "m", "n", "sum_is_identity")

    def __init__(self, blocks: Sequence[np.ndarray], sum_is_identity: bool | np.ndarray = False):
        mats = tuple(as_complex_matrix(b, name=f"block {i}") for i, b in enumerate(blocks))
        if not mats:
            raise DimensionError("a contraction tuple needs at least one block")
        shape = mats[0].shape
        for i, b in enumerate(mats):
            if b.shape != shape:
                raise DimensionError(f"block {i} has shape {b.shape}, expected {shape}")
        flags = _flag(sum_is_identity)
        if not isinstance(flags, bool) and flags.shape != shape[:-2]:
            raise DimensionError(f"sum_is_identity has shape {flags.shape}, "
                                 f"expected one flag per block stack entry {shape[:-2]}")
        for i, b in enumerate(mats):
            b.setflags(write=False)
            entry = np.abs(b).max()
            if entry > 1.0 + CONTRACTION_TOL:
                raise NotAContraction(f"block {i} has an entry of modulus {entry:.6e} > 1")
        m, n = shape[-2:]
        gram = _gram(mats)
        top = _checked_eigvalsh(gram)[..., -1]
        if _any(~(top <= 1.0 + CONTRACTION_TOL)):
            raise NotAContraction(
                f"largest eigenvalue of sum(H_i* H_i) is {float(np.max(top)):.12f} > 1")
        if flags is not False:
            gram -= _identity(n)
            dev = np.abs(gram).max(axis=_MATRIX_AXES)
            if flags is not True:
                dev = np.where(flags, dev, 0.0)  # the flagged entries only
            if _any(dev > IDENTITY_SUM_TOL):
                raise DomainError(
                    f"blocks do not sum to the identity: max deviation {np.max(dev):.3e}")
        self.blocks = mats
        self.k = len(mats)
        self.m = m
        self.n = n
        self.sum_is_identity = flags

    def gram(self) -> np.ndarray:
        return _gram(self.blocks)

    def __repr__(self) -> str:
        return (f"ContractionTuple(k={self.k}, m={self.m}, n={self.n}, "
                f"sum_is_identity={self.sum_is_identity})")


def _flag(flags):
    """A flag, or one flag per stack entry: a bool when every entry agrees,
    else the read-only bool array."""
    if not isinstance(flags, np.ndarray) or flags.ndim == 0:
        return bool(flags)
    raised = np.count_nonzero(flags)  # one C call, where .all() and .any() take two
    if raised == flags.size:
        return True
    if raised == 0:
        return False
    return _frozen(np.array(flags, dtype=bool))


class Contraction:
    """Matrix H of operator norm at most 1 (up to ``CONTRACTION_TOL``).

    The norm is checked once, at construction, so the functionals that take
    a contraction skip their own check for this type.  The entries are a
    read-only copy.
    """

    __slots__ = ("mat",)

    def __init__(self, entries, name: str = "H"):
        self.mat = _norm_checked(as_complex_matrix(entries, name=name), name)

    @classmethod
    def _bounded(cls, mat: np.ndarray) -> Contraction:
        """``mat`` as a Contraction, unchecked: its caller knows the bound."""
        h = cls.__new__(cls)
        h.mat = _frozen(mat)
        return h

    def adjoint(self) -> Contraction:
        """H*, which has the operator norm of H and so is not checked again."""
        return Contraction._bounded(_adjoint(self.mat))

    def __repr__(self) -> str:
        return f"Contraction(shape={self.mat.shape})"


def _norm_checked(a: np.ndarray, name: str) -> np.ndarray:
    """A read-only copy of ``a``, a matrix or stack that
    :func:`as_complex_matrix` has given, after checking its norm."""
    _check_norm(_top_singular_value(a), name)
    return _frozen(np.array(a))


def _check_norm(norm, name: str) -> None:
    """Raise NotAContraction unless each operator norm (one per matrix of a
    stack) is at most 1, up to ``CONTRACTION_TOL``; a NaN norm is not."""
    if _any(~(np.asarray(norm) <= 1.0 + CONTRACTION_TOL)):
        raise NotAContraction(f"{name} has operator norm {np.max(norm):.12f} > 1")


def spectral_decompose(M: HermitianMatrix) -> SpectralDecomposition:
    """Factor M = U diag(w) U* with ascending eigenvalues and unitary U.

    Raises ConvergenceFailure if the eigensolver fails or the factorization
    does not reproduce the input to round-off accuracy.  The checked result
    is kept with the value M and returned again on later calls.
    """
    if not isinstance(M, HermitianMatrix):
        M = HermitianMatrix(M)
    if M._spectrum is None:
        M._spectrum = _checked_eigh(M.mat)
    return M._spectrum


def _checked_eigh(a: np.ndarray) -> SpectralDecomposition:
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    residual = (u * w[..., None, :]) @ _check_unitary(u)
    residual -= a
    recon_dev = np.abs(residual).max(axis=_MATRIX_AXES)
    if _any(recon_dev > 1e-10 * (1.0 + _max_abs(w))):
        raise ConvergenceFailure(f"spectral reconstruction error {np.max(recon_dev):.3e}")
    return SpectralDecomposition(eigenvalues=_frozen(w), eigenvectors=_frozen(u))


def _max_abs(w: np.ndarray) -> np.ndarray:
    """max |w| of ascending eigenvalues, from their ends."""
    return np.maximum(-w[..., 0], w[..., -1])


def _check_unitary(u: np.ndarray) -> np.ndarray:
    """U*, after checking that U (or each matrix of a stack) is unitary."""
    uh = _adjoint(u)
    residual = u @ uh
    residual -= _identity(u.shape[-1])
    unit_dev = np.abs(residual).max(axis=_MATRIX_AXES)
    if _any(unit_dev > 1e-10):
        raise ConvergenceFailure(
            f"eigenvector matrix is not unitary: deviation {np.max(unit_dev):.3e}")
    return uh


def _checked_eigvalsh(a: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues of a Hermitian matrix (or of each matrix of
    a stack), without eigenvectors.  With no eigenvectors to test, the check
    is on the invariants: sum(w) against Tr a and sum(w^2) against the
    squared Frobenius norm of a, in the tolerance form of ``_checked_eigh``.
    Above about 1e154 the squares overflow, and inf - inf would pass any
    bound, so a matrix whose check is not finite is checked again as
    a / max|w|.  Raises ConvergenceFailure if the eigensolver fails or a
    check does."""
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        checks = _invariant_checks(w, a)
        trace_dev, frob_dev, trace_tol, frob_tol = checks
        # Every deviation within a finite tolerance: nothing to rescale or raise.
        if ((trace_dev <= trace_tol) & (frob_dev <= frob_tol) & (frob_tol < np.inf)).all():
            return w
        void = ~(np.isfinite(frob_dev) & np.isfinite(frob_tol))
        if _any(void):
            top = np.where(void, _max_abs(w), 1.0)
            checks = np.where(void, _invariant_checks(w / top[..., None], a / top[..., None, None]),
                              checks)
    trace_dev, frob_dev, trace_tol, frob_tol = checks
    if _any(trace_dev > trace_tol) or _any(frob_dev > frob_tol):
        raise ConvergenceFailure(
            f"eigenvalues do not match the trace and norm: deviations "
            f"{np.max(trace_dev):.3e}, {np.max(frob_dev):.3e}")
    return w


def _invariant_checks(w: np.ndarray, a: np.ndarray) -> tuple:
    """The deviations of sum(w) from Tr a and of sum(w^2) from the squared
    Frobenius norm of a, then their tolerances 1e-10 n (1 + max|w|) and
    1e-10 n (1 + max|w|)^2, per matrix."""
    n, scale = a.shape[-1], 1.0 + _max_abs(w)
    squares = a.real ** 2
    squares += a.imag ** 2
    return (np.abs(w.sum(axis=-1) - _trace(a).real),
            np.abs((w * w).sum(axis=-1) - squares.sum(axis=_MATRIX_AXES)),
            1e-10 * n * scale, 1e-10 * n * scale ** 2)


def matrix_function(M: HermitianMatrix, f: Callable[[np.ndarray], np.ndarray],
                    fname: str | None = None) -> HermitianMatrix:
    """Apply a real scalar function to a Hermitian matrix through its spectrum.

    ``f`` receives the eigenvalue vector and must return real values; a
    complex result (zero imaginary parts included), one that is not numeric
    or any non-finite result (eigenvalue outside the function's domain)
    raises DomainError.
    """
    return HermitianMatrix(_on_spectrum(M, f, fname)[0])


def _on_eigenvalues(M: HermitianMatrix, f: Callable[[np.ndarray], np.ndarray],
                    fname: str | None) -> tuple[np.ndarray, SpectralDecomposition]:
    """f(w) for the kept spectrum M = U diag(w) U* (decomposed on first
    use), with that decomposition.  f(w) must be real, of the shape of w
    and finite, as :func:`matrix_function` requires; otherwise this is a
    DomainError."""
    dec = spectral_decompose(M)
    label = fname or getattr(f, "__name__", "f")
    with np.errstate(all="ignore"):
        try:
            fw = f(dec.eigenvalues)
            if np.iscomplexobj(fw):  # a float64 cast would drop the imaginary parts
                raise TypeError("got complex values")
            fw = np.asarray(fw, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"{label} did not return real values: {exc}") from exc
    if fw.shape != dec.eigenvalues.shape or not np.isfinite(fw).all():
        raise DomainError(f"{label} is not finite on the spectrum {dec.eigenvalues}")
    return fw, dec


def _on_spectrum(M: HermitianMatrix, f: Callable[[np.ndarray], np.ndarray],
                 fname: str | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U diag(f(w)) U* for M = U diag(w) U*, as an array, with f(w) and U."""
    fw, dec = _on_eigenvalues(M, f, fname)
    u = dec.eigenvectors
    return (u * fw[..., None, :]) @ _adjoint(u), fw, u


def _power(p: float) -> Callable[[np.ndarray], np.ndarray]:
    """w -> w^p, for a power p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"power must lie in [0, 1], got {p}")
    return lambda w: w ** p


def _basis_overlap(A: HermitianMatrix, h: np.ndarray | None,
                   B: HermitianMatrix | None = None) -> np.ndarray | None:
    """U_A* h U_B for the kept eigenvectors U_A of A and U_B of B (each
    decomposed on first use): h in the eigenbasis of A on its left and of B
    on its right, or U_A* h when B is None.  With B given, ``h`` None stands
    for the identity; the overlap of a value with itself is then the identity
    exactly, and is returned as None.  Stack shapes broadcast."""
    if h is None and B is A:
        return None
    left = _adjoint(spectral_decompose(A).eigenvectors)
    if B is None:
        return left @ h
    right = spectral_decompose(B).eigenvectors
    return left @ (right if h is None else h @ right)


def matrix_log(A: PositiveDefiniteMatrix) -> HermitianMatrix:
    """Matrix logarithm of a positive definite matrix."""
    return matrix_function(A, np.log, fname="log")


def matrix_exp(M: HermitianMatrix) -> PositiveDefiniteMatrix:
    """Matrix exponential of a Hermitian matrix; always positive definite.

    The result keeps exp(w) with the eigenvectors of M as its spectrum (exp
    keeps the order of w), so it is not decomposed again, and it is
    rejected only where exp(w) underflows to zero."""
    return PositiveDefiniteMatrix._with_spectrum(*_on_spectrum(M, np.exp, "exp"), pd_floor=0.0)


def matrix_power(A: PositiveDefiniteMatrix, p: float) -> PositiveDefiniteMatrix:
    """Fractional power A^p for p in [0, 1], which keeps w^p with the
    eigenvectors of A as its spectrum, as :func:`matrix_exp` does."""
    return PositiveDefiniteMatrix._with_spectrum(*_on_spectrum(A, _power(p), "power"),
                                                 pd_floor=0.0)


def _scaled_pd(t, A: PositiveDefiniteMatrix) -> PositiveDefiniteMatrix:
    """t A for a weight t > 0, or the stack A times each entry of the
    weights t (weights first, as ``_per_entry`` shapes them), keeping t w
    with the eigenvectors of A as its spectrum."""
    dec = spectral_decompose(A)
    mat = _per_entry(t) * A.mat
    w = np.reshape(t, np.shape(t) + (1,)) * dec.eigenvalues
    return PositiveDefiniteMatrix._with_spectrum(
        mat, w, np.broadcast_to(dec.eigenvectors, mat.shape))


def _block_diagonal(values: Sequence[PositiveDefiniteMatrix],
                    batch: tuple) -> PositiveDefiniteMatrix:
    """The block diagonal of PD values of one order, broadcast to the stack
    shape ``batch``.  Its spectrum is the union of the values' kept spectra,
    sorted ascending, with block-diagonal eigenvectors."""
    m = values[0].dim
    size = len(values) * m
    mat = np.zeros(batch + (size, size), dtype=np.complex128)
    u = np.zeros_like(mat)
    w = np.empty(batch + (size,))
    for i, value in enumerate(values):
        block = slice(i * m, (i + 1) * m)
        dec = spectral_decompose(value)
        mat[..., block, block] = value.mat
        u[..., block, block] = dec.eigenvectors
        w[..., block] = dec.eigenvalues
    return PositiveDefiniteMatrix._with_spectrum(mat, *_sorted_spectrum(w, u))


def operator_norm(M):
    """Largest singular value of a (possibly rectangular) complex matrix."""
    return _per_matrix(_top_singular_value(as_complex_matrix(M, name="operator_norm argument")))


def _top_singular_value(a: np.ndarray) -> np.ndarray:
    """The largest singular value of each matrix of ``a``: the first of the
    descending singular values of the one gesdd call that
    ``np.linalg.norm(a, 2, axis=(-2, -1))`` makes, so the same bits."""
    try:
        return np.linalg.svd(a, compute_uv=False)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"singular value decomposition failed: {exc}") from exc


def stack(values: Sequence):
    """One stacked value of checked values of one type and shape, which are
    not checked again; their spectra are stacked when each value has one."""
    return _combined(values, np.stack)


def _joined(values: Sequence):
    """One value of stacked checked values of one type, joined along their
    leading axis and not checked again; a value alone is returned as is."""
    return values[0] if len(values) == 1 else _combined(values, np.concatenate)


def _combined(values: Sequence, join: Callable):
    """A value of the type of ``values[0]`` made of ``join`` of the values'
    arrays, slot by slot: the one list of the arrays of each checked type.
    Tuples keep their ``sum_is_identity`` as one bool where every value
    holds the same bool, and otherwise join it as one flag per entry."""
    first = values[0]
    out = type(first).__new__(type(first))
    if isinstance(first, ContractionTuple):
        out.blocks = tuple(_frozen(join(b)) for b in zip(*(v.blocks for v in values)))
        out.k, out.m, out.n = first.k, first.m, first.n
        flag = first.sum_is_identity
        if not (isinstance(flag, bool) and all(v.sum_is_identity is flag for v in values)):
            flag = _flag(join([np.broadcast_to(v.sum_is_identity, v.blocks[0].shape[:-2])
                               for v in values]))  # one flag per entry
        out.sum_is_identity = flag
        return out
    out.mat = _frozen(join([v.mat for v in values]))
    if isinstance(first, HermitianMatrix):
        spectra = [v._spectrum for v in values]
        out._spectrum = None if any(s is None for s in spectra) else SpectralDecomposition(
            eigenvalues=_frozen(join([s.eigenvalues for s in spectra])),
            eigenvectors=_frozen(join([s.eigenvectors for s in spectra])))
    if isinstance(first, PositiveDefiniteMatrix):
        out.min_eigenvalue = _per_matrix(join([v.min_eigenvalue for v in values]))
    return out


# ---------------------------------------------------------------------------
# Random instance generation.  Every generator accepts either a seed or an
# existing numpy Generator, so callers can derive deterministic substreams.
#
# Each generator is a draw and a build.  The draw makes the generator calls
# and nothing else, and keeps their raw output: a complex Gaussian is its
# (2, rows, cols) array of real and imaginary parts.  The build turns the
# drawn numbers into a checked value, assembles the complex Gaussians
# (``_complex``) and owns every check.  Builds are stack-generic: given draws
# stacked along a leading axis, a build makes the stacked value, each entry
# with the bits of building its draw alone, so a block of trials can draw one
# at a time (each from its own substream, which ``_substreams`` seeds) and
# build at once.
# ---------------------------------------------------------------------------

def checked_int(value, name: str, expected: str = "an integer") -> int:
    """``value`` as an int, if it is an int or a NumPy integer.  A boolean
    (``bool`` or ``np.bool_``) is no integer here, nor is an integral float."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be {expected}, got {type(value).__name__} {value!r}")
    return int(value)


def checked_tolerance(value, name: str):
    """``value``, a NumPy scalar as its Python number, if it is finite and
    positive and not a boolean."""
    if isinstance(value, (bool, np.bool_)) or not 0.0 < value < np.inf:
        raise DomainError(f"expected {name} finite and positive, got {name}={value!r}")
    return value.item() if isinstance(value, np.generic) else value


def make_rng(seed: SeedLike) -> np.random.Generator:
    """Build a Generator from a 64-bit unsigned seed, or pass one through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(checked_seed(seed, "an integer or Generator"))


def checked_seed(seed, expected: str = "an integer") -> int:
    """An integer seed as an int, if it fits in 64 unsigned bits."""
    seed = checked_int(seed, "seed", expected)
    if not 0 <= seed < 2 ** 64:
        raise DomainError(f"seed must fit in 64 unsigned bits, got {seed}")
    return seed


# Trials whose substreams one pass of ``_substreams`` seeds together.
SUBSTREAM_CHUNK = 1024
# Runs of at most this many trials seed each trial with ``default_rng`` itself:
# on a 2-core x86-64 host with numpy 2.4.6, direct seeding took 88/132 us for
# 16/24 trials (about 5.5 us each) and the chunked one 99/107 us (82 us fixed),
# so the two break even between 16 and 24 trials.
SUBSTREAM_DIRECT = 16
# NumPy's SeedSequence (NEP 19) and the PCG64 multiplier, for
# ``_substream_states``.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _checked_run(seed, first: int, count: int) -> int:
    """The seed as an int, if it and the ``count`` trials from ``first`` fit
    in 64 unsigned bits."""
    seed = checked_seed(seed)
    if first < 0 or first + count > 2 ** 64:
        raise DomainError(f"trials {first} to {first + count - 1} do not fit in 64 unsigned bits")
    return seed


def _substream_states(seed: int, first: int, count: int) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of ``np.random.default_rng([seed, t])`` for the
    ``count`` trials t from ``first``, seeded together.

    This is NumPy's SeedSequence on the entropy words of (seed, t): each
    number's 32-bit words, low first, one word for 0; with at most four
    words they all fit the pool of four, and a short entropy pads with
    zeros, so a trial below 2^32 reads its missing high word as 0.  The
    pool is hashed and mixed as uint32 arrays over the trials (every
    operand is an array, which wraps without a warning), four uint64 words
    are generated from it, and PCG64 is seeded from them (``pcg64_set_seed``:
    inc = 2 i + 1, state = (inc + s) * mult + inc, mod 2^128)."""
    seed = _checked_run(seed, first, count)
    t = np.arange(count, dtype=np.uint64) + np.uint64(first)
    words = [np.full(count, seed & _MASK32, dtype=np.uint32)]
    if seed >> 32:
        words.append(np.full(count, seed >> 32, dtype=np.uint32))
    words += [(t & _MASK32).astype(np.uint32), (t >> 32).astype(np.uint32)]
    words += [np.zeros(count, dtype=np.uint32)] * (4 - len(words))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ (value >> 16)

    pool = [hashmix(w) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * _MIX_L - hashmix(pool[src]) * _MIX_R
                pool[dst] = mixed ^ (mixed >> 16)
    const, out = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        out.append((value ^ (value >> 16)).astype(np.uint64))
    s_hi, s_lo, i_hi, i_lo = ((out[2 * j] | out[2 * j + 1] << 32).tolist() for j in range(4))
    states = []
    for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo):
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        states.append((((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _substreams(seed: int, first: int, count: int):
    """Yield (t, rng) for the ``count`` trials t from ``first``, in order, with
    rng at the state of ``np.random.default_rng([seed, t])``, the substream of
    ``verifiers.trial_rng``, bit for bit.  A run of at most SUBSTREAM_DIRECT
    trials yields ``default_rng([seed, t])`` itself for each trial.  A longer
    run reuses one Generator and sets it to each trial's state, seeded in
    chunks of SUBSTREAM_CHUNK trials; the first trial's state is compared
    with ``default_rng([seed, first])`` before it is yielded, so a NumPy whose
    seeding differs raises instead of drawing other numbers."""
    if count <= SUBSTREAM_DIRECT:
        seed = _checked_run(seed, first, count)
        for t in range(first, first + count):
            yield t, np.random.default_rng([seed, t])
        return
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    stop = first + count
    for start in range(first, stop, SUBSTREAM_CHUNK):
        states = _substream_states(seed, start, min(SUBSTREAM_CHUNK, stop - start))
        for t, (state, inc) in enumerate(states, start):
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            if t == first and bits.state != np.random.default_rng([seed, t]).bit_generator.state:
                raise RuntimeError("the substream seeding does not match numpy.random.default_rng "
                                   f"at seed {seed}, trial {t}")
            yield t, rng


def _per_entry(w) -> np.ndarray:
    """A weight, or one weight per stack entry, shaped to scale matrices."""
    return np.reshape(w, np.shape(w) + (1, 1))


def _complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """The numbers of a rows x cols complex Gaussian as drawn, from one
    generator call: a (2, rows, cols) array of the real parts, then the
    imaginary parts.  Builds assemble it with :func:`_complex`."""
    return rng.standard_normal((2, rows, cols))


def _complex(parts: np.ndarray) -> np.ndarray:
    """The complex Gaussian of drawn parts of shape (..., 2, rows, cols):
    one (..., rows, cols) array for a draw or a stack of draws."""
    g = np.empty(parts.shape[:-3] + parts.shape[-2:], dtype=np.complex128)
    g.real = parts[..., 0, :, :]
    g.imag = parts[..., 1, :, :]
    return g


def _build_haar(g: np.ndarray) -> np.ndarray:
    """Q of the QR of the complex Gaussian of drawn parts g with the
    R-diagonal phase fix, giving a well-defined (Haar) distribution and
    exact determinism under a seed."""
    q, r = np.linalg.qr(_complex(g))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _draw_pd(rng: np.random.Generator, dim: int, lo: float, hi: float) -> tuple:
    """The numbers of a random PD matrix: its eigenvalues, then the parts of
    a complex Gaussian."""
    return rng.uniform(lo, hi, size=dim), _complex_gaussian(rng, dim, dim)


def _build_pd(w: np.ndarray, g: np.ndarray) -> PositiveDefiniteMatrix:
    """U diag(w) U* for the Haar U of g, keeping w sorted ascending, with
    the columns of U in the same order, as its spectrum.  U comes from a QR
    and not from a checked eigensolver, so its unitarity is checked here."""
    u = _build_haar(g)
    mat = (u * w[..., None, :]) @ _check_unitary(u)
    return PositiveDefiniteMatrix._with_spectrum(mat, *_sorted_spectrum(w, u))


def _sorted_spectrum(w: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w sorted ascending (a stable sort) and the columns of the
    eigenvectors u in the same order."""
    order = np.argsort(w, axis=-1, kind="stable")
    return (np.take_along_axis(w, order, axis=-1),
            np.take_along_axis(u, order[..., None, :], axis=-1))


def random_pd(dim: int, eig_range: tuple[float, float] = EIG_RANGE,
              seed: SeedLike = 0) -> PositiveDefiniteMatrix:
    """Random positive definite matrix with eigenvalues uniform in ``eig_range``,
    conjugated by a Haar-random unitary."""
    dim = checked_int(dim, "dim")
    if dim < 1:
        raise DimensionError(f"dim must be >= 1, got {dim}")
    if not (isinstance(eig_range, (tuple, list, np.ndarray)) and len(eig_range) == 2
            and all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in eig_range)):
        raise DomainError(f"eig_range must be two numbers (lo, hi), got {eig_range!r}")
    lo, hi = float(eig_range[0]), float(eig_range[1])
    if not 0.0 < lo <= hi < np.inf:
        raise DomainError(f"eigenvalue range must satisfy 0 < lo <= hi < inf, got {eig_range}")
    return _build_pd(*_draw_pd(make_rng(seed), dim, lo, hi))


def _build_hermitian(g: np.ndarray, scale=1.0) -> HermitianMatrix:
    """The symmetrized complex Gaussian of drawn parts g, times ``scale``."""
    g = _complex(g)
    return HermitianMatrix(_per_entry(scale) * (g + _adjoint(g)) / 2.0)


def random_hermitian(dim: int, scale: float = 1.0, seed: SeedLike = 0) -> HermitianMatrix:
    """Random Hermitian matrix: symmetrized complex Gaussian times ``scale``.

    A non-finite ``scale``, or one whose product with the drawn entries
    overflows, is a DomainError naming it, with no RuntimeWarning."""
    dim = checked_int(dim, "dim")
    if dim < 1:
        raise DimensionError(f"dim must be >= 1, got {dim}")
    if not np.isfinite(scale):
        raise DomainError(f"scale must be finite, got {scale}")
    g = _complex_gaussian(make_rng(seed), dim, dim)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _build_hermitian(g, scale)
    except DomainError as exc:
        raise DomainError(f"scale {scale} overflows a {dim} x {dim} Hermitian draw: {exc}") from exc


def _draw_contraction(rng: np.random.Generator, rows: int, cols: int) -> tuple:
    """The numbers of a generic contraction: a complex Gaussian, then its norm."""
    return _complex_gaussian(rng, rows, cols), float(rng.uniform(0.2, 1.0))


def _build_contraction(g: np.ndarray, target) -> Contraction:
    """The Gaussian rescaled to its drawn norm < 1, checked once here rather
    than by every functional call of the trial.  The norm of c g is c times
    that of g, so the one SVD that finds the scale c also gives the norm
    that is checked."""
    g = _complex(g)
    norm = operator_norm(g)
    scale = target / norm
    _check_norm(scale * norm, "H")
    return Contraction._bounded(g * _per_entry(scale))


def _draw_tuple(rng: np.random.Generator, k: int, m: int, n: int,
                sum_is_identity: bool) -> tuple:
    """The numbers of a random contraction tuple, as (k, m, n, Gaussian,
    scale): the scale is drawn only for a strict tuple, in (0, 1), and is
    1.0 for an isometric one, so the two draw the same shapes."""
    g = _complex_gaussian(rng, k * m, n) if k * m >= n else _complex_gaussian(rng, n, k * m)
    u = 1.0
    if not sum_is_identity:
        u = rng.uniform()
        if u == 0.0:
            u = 0.5
    return k, m, n, g, u


def _build_tuple(k: int, m: int, n: int, g: np.ndarray, u) -> ContractionTuple:
    """The tuple of a draw, or the stacked tuple of a stack of draws: an
    entry of scale 1.0 is isometric and is not scaled, so it keeps the bits
    of its Haar blocks, and every other entry is scaled by its u."""
    stacked = _build_haar(g)
    if k * m < n:
        stacked = _adjoint(stacked)
    isometric = _flag(u == 1.0)
    if isometric is False:
        stacked = _per_entry(u) * stacked
    elif isometric is not True:
        stacked = np.where(_per_entry(isometric), stacked, _per_entry(u) * stacked)
    blocks = [stacked[..., i * m:(i + 1) * m, :] for i in range(k)]
    return ContractionTuple(blocks, sum_is_identity=isometric)


def random_contraction_tuple(k: int, m: int, n: int, sum_is_identity: bool,
                             seed: SeedLike = 0) -> ContractionTuple:
    """Random k-tuple of m x n blocks with sum(H_i* H_i) <= I_n.

    With ``sum_is_identity`` the stacked (k*m) x n matrix has orthonormal
    columns (QR of a complex Gaussian), so the blocks sum to the identity
    exactly up to round-off; this requires k*m >= n.  Without it, the same
    construction is scaled by a uniform factor in (0, 1); if k*m < n the
    stacked matrix is built with orthonormal rows instead.
    """
    k, m, n = (checked_int(size, name) for size, name in zip((k, m, n), "kmn"))
    if k < 1 or m < 1 or n < 1:
        raise DimensionError(f"k, m, n must all be >= 1, got {(k, m, n)}")
    if sum_is_identity and k * m < n:
        raise DimensionError(
            f"sum_is_identity requires k*m >= n (an isometry needs enough rows), "
            f"got k*m = {k * m} < n = {n}"
        )
    return _build_tuple(*_draw_tuple(make_rng(seed), k, m, n, sum_is_identity))
