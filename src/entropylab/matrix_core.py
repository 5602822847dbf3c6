"""Dense complex Hermitian linear algebra.

Spectral decompositions, matrix functions defined through them (log, exp,
fractional powers), operator norms, and seeded random instance generation.
All matrix values are immutable after construction; every operation here is
a pure function, so values are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ConvergenceFailure, DimensionError, DomainError, NotAContraction

# Construction / validation tolerances.
HERMITIAN_TOL = 1e-12           # relative asymmetry allowed at construction
PD_FLOOR = 1e-10                # smallest admissible eigenvalue of a PD matrix
CONTRACTION_TOL = 1e-10         # slack on operator norm <= 1
IDENTITY_SUM_TOL = 1e-10        # slack on sum(H_i* H_i) == I for isometric tuples

SeedLike = Union[int, np.random.Generator]


def as_complex_matrix(entries, name: str = "matrix") -> np.ndarray:
    """Coerce input to a finite 2-d complex128 array (rows, cols >= 1)."""
    if isinstance(entries, HermitianMatrix):
        return entries.mat
    a = np.asarray(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"{name} must be 2-dimensional with positive shape, got {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise DomainError(f"{name} contains non-finite entries")
    return a


class HermitianMatrix:
    """Square complex matrix kept exactly equal to its conjugate transpose.

    Construction rejects input whose asymmetry exceeds round-off scale and
    stores the symmetrized form (M + M*)/2, so drift cannot accumulate
    across repeated functional compositions.
    """

    __slots__ = ("mat",)

    def __init__(self, entries):
        a = as_complex_matrix(entries, name=type(self).__name__)
        if a.shape[0] != a.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {a.shape}")
        asym = np.abs(a - a.conj().T).max()
        if asym > HERMITIAN_TOL * (1.0 + np.abs(a).max()):
            raise DomainError(f"matrix is not Hermitian: max |M - M*| = {asym:.3e}")
        m = (a + a.conj().T) / 2.0
        m.setflags(write=False)
        self.mat = m

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class PositiveDefiniteMatrix(HermitianMatrix):
    """Hermitian matrix with strictly positive spectrum.

    The smallest eigenvalue is computed once at construction; inputs with
    min eigenvalue <= ``pd_floor`` are rejected rather than regularized.
    """

    __slots__ = ("min_eigenvalue",)

    def __init__(self, entries, pd_floor: float = PD_FLOOR):
        super().__init__(entries)
        w = np.linalg.eigvalsh(self.mat)
        if w[0] <= pd_floor:
            raise DomainError(
                f"matrix is not positive definite above floor {pd_floor:.1e}: "
                f"min eigenvalue {w[0]:.3e}"
            )
        self.min_eigenvalue = float(w[0])


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and a unitary matrix of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


def _gram(blocks, n: int) -> np.ndarray:
    """sum(H_i* H_i) over n x n, symmetrized."""
    g = np.zeros((n, n), dtype=np.complex128)
    for b in blocks:
        g += b.conj().T @ b
    return (g + g.conj().T) / 2.0


class ContractionTuple:
    """k rectangular blocks H_1..H_k of equal shape m x n with sum(H_i* H_i) <= I.

    When ``sum_is_identity`` is set the blocks must satisfy
    sum(H_i* H_i) = I_n up to round-off, which is checked at construction.
    """

    __slots__ = ("blocks", "k", "m", "n", "sum_is_identity")

    def __init__(self, blocks: Sequence[np.ndarray], sum_is_identity: bool = False):
        mats = tuple(as_complex_matrix(b, name=f"block {i}") for i, b in enumerate(blocks))
        if not mats:
            raise DimensionError("a contraction tuple needs at least one block")
        m, n = mats[0].shape
        for i, b in enumerate(mats):
            if b.shape != (m, n):
                raise DimensionError(f"block {i} has shape {b.shape}, expected {(m, n)}")
        for b in mats:
            b.setflags(write=False)
        gram = _gram(mats, n)
        top = float(np.linalg.eigvalsh(gram)[-1])
        if top > 1.0 + CONTRACTION_TOL:
            raise NotAContraction(f"largest eigenvalue of sum(H_i* H_i) is {top:.12f} > 1")
        if sum_is_identity:
            dev = np.abs(gram - np.eye(n)).max()
            if dev > IDENTITY_SUM_TOL:
                raise DomainError(f"blocks do not sum to the identity: max deviation {dev:.3e}")
        self.blocks = mats
        self.k = len(mats)
        self.m = m
        self.n = n
        self.sum_is_identity = bool(sum_is_identity)

    def gram(self) -> np.ndarray:
        return _gram(self.blocks, self.n)

    def __repr__(self) -> str:
        return (f"ContractionTuple(k={self.k}, m={self.m}, n={self.n}, "
                f"sum_is_identity={self.sum_is_identity})")


def spectral_decompose(M: HermitianMatrix) -> SpectralDecomposition:
    """Factor M = U diag(w) U* with ascending eigenvalues and unitary U.

    Raises ConvergenceFailure if the eigensolver fails or the factorization
    does not reproduce the input to round-off accuracy.
    """
    a = M.mat if isinstance(M, HermitianMatrix) else HermitianMatrix(M).mat
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    unit_dev = np.abs(u @ u.conj().T - np.eye(a.shape[0])).max()
    if unit_dev > 1e-10:
        raise ConvergenceFailure(f"eigenvector matrix is not unitary: deviation {unit_dev:.3e}")
    recon_dev = np.abs((u * w) @ u.conj().T - a).max()
    if recon_dev > 1e-10 * (1.0 + np.abs(w).max()):
        raise ConvergenceFailure(f"spectral reconstruction error {recon_dev:.3e}")
    return SpectralDecomposition(eigenvalues=w, eigenvectors=u)


def matrix_function(M: HermitianMatrix, f: Callable[[np.ndarray], np.ndarray],
                    fname: str | None = None) -> HermitianMatrix:
    """Apply a real scalar function to a Hermitian matrix through its spectrum.

    ``f`` receives the eigenvalue vector and must return real values; any
    non-finite result (eigenvalue outside the function's domain) raises
    DomainError.
    """
    dec = spectral_decompose(M)
    label = fname or getattr(f, "__name__", "f")
    with np.errstate(all="ignore"):
        try:
            fw = np.asarray(f(dec.eigenvalues), dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"{label} did not return real values: {exc}") from exc
    if fw.shape != dec.eigenvalues.shape or not np.all(np.isfinite(fw)):
        raise DomainError(f"{label} is not finite on the spectrum {dec.eigenvalues}")
    u = dec.eigenvectors
    return HermitianMatrix((u * fw) @ u.conj().T)


def matrix_log(A: PositiveDefiniteMatrix) -> HermitianMatrix:
    """Matrix logarithm of a positive definite matrix."""
    return matrix_function(A, np.log, fname="log")


def matrix_exp(M: HermitianMatrix) -> PositiveDefiniteMatrix:
    """Matrix exponential of a Hermitian matrix; always positive definite."""
    return PositiveDefiniteMatrix(matrix_function(M, np.exp, fname="exp").mat)


def matrix_power(A: PositiveDefiniteMatrix, p: float) -> PositiveDefiniteMatrix:
    """Fractional power A^p for p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"power must lie in [0, 1], got {p}")
    return PositiveDefiniteMatrix(matrix_function(A, lambda w: w ** p, fname="power").mat)


def operator_norm(M) -> float:
    """Largest singular value of a (possibly rectangular) complex matrix."""
    a = as_complex_matrix(M, name="operator_norm argument")
    return float(np.linalg.norm(a, 2))


# ---------------------------------------------------------------------------
# Random instance generation.  Every generator accepts either a seed or an
# existing numpy Generator, so callers can derive deterministic substreams.
# ---------------------------------------------------------------------------

def make_rng(seed: SeedLike) -> np.random.Generator:
    """Build a Generator from a 64-bit unsigned seed, or pass one through."""
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, (int, np.integer)):
        raise DomainError(f"seed must be an integer or Generator, got {type(seed).__name__}")
    if not 0 <= int(seed) < 2 ** 64:
        raise DomainError(f"seed must fit in 64 unsigned bits, got {seed}")
    return np.random.default_rng(int(seed))


def _complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """QR of a complex Gaussian with the R-diagonal phase fix, giving a
    well-defined (Haar) distribution and exact determinism under a seed."""
    q, r = np.linalg.qr(_complex_gaussian(rng, dim, dim))
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_pd(dim: int, eig_range: tuple[float, float] = (0.05, 5.0),
              seed: SeedLike = 0) -> PositiveDefiniteMatrix:
    """Random positive definite matrix with eigenvalues uniform in ``eig_range``,
    conjugated by a Haar-random unitary."""
    if dim < 1:
        raise DimensionError(f"dim must be >= 1, got {dim}")
    lo, hi = float(eig_range[0]), float(eig_range[1])
    if not 0.0 < lo <= hi:
        raise DomainError(f"eigenvalue range must satisfy 0 < lo <= hi, got {eig_range}")
    rng = make_rng(seed)
    w = rng.uniform(lo, hi, size=dim)
    u = _haar_unitary(rng, dim)
    return PositiveDefiniteMatrix((u * w) @ u.conj().T)


def random_hermitian(dim: int, scale: float = 1.0, seed: SeedLike = 0) -> HermitianMatrix:
    """Random Hermitian matrix: symmetrized complex Gaussian times ``scale``."""
    if dim < 1:
        raise DimensionError(f"dim must be >= 1, got {dim}")
    rng = make_rng(seed)
    g = _complex_gaussian(rng, dim, dim)
    return HermitianMatrix(scale * (g + g.conj().T) / 2.0)


def random_contraction_tuple(k: int, m: int, n: int, sum_is_identity: bool,
                             seed: SeedLike = 0) -> ContractionTuple:
    """Random k-tuple of m x n blocks with sum(H_i* H_i) <= I_n.

    With ``sum_is_identity`` the stacked (k*m) x n matrix has orthonormal
    columns (QR of a complex Gaussian), so the blocks sum to the identity
    exactly up to round-off; this requires k*m >= n.  Without it, the same
    construction is scaled by a uniform factor in (0, 1); if k*m < n the
    stacked matrix is built with orthonormal rows instead.
    """
    if k < 1 or m < 1 or n < 1:
        raise DimensionError(f"k, m, n must all be >= 1, got {(k, m, n)}")
    if sum_is_identity and k * m < n:
        raise DimensionError(
            f"sum_is_identity requires k*m >= n (an isometry needs enough rows), "
            f"got k*m = {k * m} < n = {n}"
        )
    rng = make_rng(seed)
    if k * m >= n:
        q, r = np.linalg.qr(_complex_gaussian(rng, k * m, n))
        d = np.diag(r)
        stacked = q * (d / np.abs(d))
    else:
        q, r = np.linalg.qr(_complex_gaussian(rng, n, k * m))
        d = np.diag(r)
        stacked = (q * (d / np.abs(d))).conj().T
    if not sum_is_identity:
        u = rng.uniform()
        if u == 0.0:
            u = 0.5
        stacked = u * stacked
    blocks = [stacked[i * m:(i + 1) * m, :] for i in range(k)]
    return ContractionTuple(blocks, sum_is_identity=sum_is_identity)
