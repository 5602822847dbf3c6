import ast
import inspect
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import sampling_reference as ref

from entropylab import matrix_core, verifiers
from entropylab.errors import ConvergenceFailure, DimensionError, DomainError, NotAContraction
from entropylab.matrix_core import (
    Contraction,
    ContractionTuple,
    HermitianMatrix,
    PositiveDefiniteMatrix,
    checked_seed,
    make_rng,
    matrix_exp,
    matrix_function,
    matrix_log,
    matrix_power,
    operator_norm,
    random_contraction_tuple,
    random_hermitian,
    random_pd,
    spectral_decompose,
    stack,
)
from entropylab.serialization import contraction_tuple_to_json


class TestConstruction:
    def test_hermitian_symmetrizes(self):
        a = np.array([[1.0, 1.0 + 1e-14j], [1.0 - 3e-14j, 2.0]])
        m = HermitianMatrix(a)
        assert np.array_equal(m.mat, m.mat.conj().T)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            HermitianMatrix(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            HermitianMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("entry", [1.0e308, -1.7e308, 1.2e308j])
    def test_rejects_entries_whose_symmetrization_overflows(self, entry):
        # (M + M*)/2 of such an entry was inf or NaN, with RuntimeWarnings.
        a = np.array([[1.0, entry], [np.conj(entry), 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows"):
                HermitianMatrix(a)
            with pytest.raises(DomainError, match="overflows"):
                HermitianMatrix(np.stack([np.eye(2), a]))

    def test_entries_up_to_half_the_largest_double_keep_their_bits(self):
        half = np.finfo(np.float64).max / 2.0
        a = np.array([[half, -half], [-half, half]], dtype=np.complex128)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = HermitianMatrix(a)
        assert m.mat.tobytes() == ((a + a.conj().T) / 2.0).tobytes()
        assert np.isfinite(m.mat).all()

    def test_random_pd_with_huge_eigenvalues_is_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows"):
                random_pd(3, (1e308, 1.7e308), 0)

    def test_pd_floor_rejects(self):
        with pytest.raises(DomainError):
            PositiveDefiniteMatrix(np.diag([1e-12, 1.0]))
        with pytest.raises(DomainError):
            PositiveDefiniteMatrix(np.diag([-1.0, 1.0]))

    def test_the_pd_floor_is_fixed(self):
        # A caller-set floor of -2.0 (or NaN) let eigenvalue -1 through.
        assert list(inspect.signature(PositiveDefiniteMatrix).parameters) == ["entries"]
        with pytest.raises(TypeError):
            PositiveDefiniteMatrix(np.diag([-1.0, 1.0]), pd_floor=-2.0)

    def test_pd_caches_min_eigenvalue(self):
        a = PositiveDefiniteMatrix(np.diag([0.5, 3.0]))
        assert a.min_eigenvalue == pytest.approx(0.5, abs=1e-14)

    def test_contraction_tuple_rejects_expansion(self):
        with pytest.raises(Exception):
            ContractionTuple([2.0 * np.eye(2)])

    @pytest.mark.parametrize("scale", [1e150, 1e200, 1e308])
    def test_a_tuple_with_huge_entries_is_not_a_contraction(self, scale):
        # Its Gram overflowed to inf and NaN, and the bound passed on NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotAContraction, match="entry of modulus"):
                ContractionTuple([scale * np.eye(2)])
            with pytest.raises(NotAContraction, match="block 1 has an entry"):
                ContractionTuple([np.stack([0.1 * np.eye(2)] * 2),
                                  np.stack([0.1 * np.eye(2), scale * np.eye(2)])])

    def test_an_entry_of_one_is_a_contraction(self):
        isometry = ContractionTuple([np.eye(2)], sum_is_identity=True)
        assert isometry.gram().tobytes() == np.eye(2, dtype=np.complex128).tobytes()
        ContractionTuple([np.array([[1.0 + 1e-11, 0.0]]), np.zeros((1, 2))])

    def test_contraction_tuple_identity_flag_checked(self):
        with pytest.raises(DomainError):
            ContractionTuple([0.5 * np.eye(2)], sum_is_identity=True)


class TestSpectralDecompose:
    def test_diagonal_input(self):
        dec = spectral_decompose(HermitianMatrix(np.diag([1.0, math.e])))
        assert np.allclose(dec.eigenvalues, [1.0, math.e], atol=1e-14)

    def test_identity(self):
        dec = spectral_decompose(HermitianMatrix(np.eye(3)))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0], atol=1e-14)

    def test_two_by_two_hand_computed(self):
        # [[2,1],[1,2]]: trace 4, det 3, so eigenvalues 1 and 3.
        dec = spectral_decompose(HermitianMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
        assert np.allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_eigenvalues_ascending(self):
        m = random_hermitian(6, 2.0, 5)
        dec = spectral_decompose(m)
        assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_reconstruction_property(self):
        # 1000 random instances across dims 1..8.
        rng = make_rng(123)
        for trial in range(1000):
            dim = int(rng.integers(1, 9))
            m = random_hermitian(dim, 1.5, rng)
            dec = spectral_decompose(m)
            err = np.abs(dec.reconstruct() - m.mat).max()
            assert err <= 1e-10 * (1.0 + np.abs(dec.eigenvalues).max())
            unit = np.abs(dec.eigenvectors @ dec.eigenvectors.conj().T - np.eye(dim)).max()
            assert unit <= 1e-10

    def test_trace_matches_eigenvalue_sum(self):
        rng = make_rng(77)
        for _ in range(50):
            dim = int(rng.integers(1, 9))
            m = random_hermitian(dim, 1.0, rng)
            dec = spectral_decompose(m)
            assert dec.eigenvalues.sum() == pytest.approx(
                m.trace(), rel=1e-10, abs=1e-12)


class TestMatrixFunctions:
    def test_identity_function(self):
        m = random_hermitian(4, 1.0, 3)
        out = matrix_function(m, lambda w: w)
        assert np.abs(out.mat - m.mat).max() <= 1e-10

    def test_log_of_diagonal(self):
        out = matrix_log(PositiveDefiniteMatrix(np.diag([1.0, math.e])))
        assert np.allclose(out.mat, np.diag([0.0, 1.0]), atol=1e-14)

    def test_exp_log_round_trip(self):
        a = random_pd(4, (0.1, 4.0), 11)
        back = matrix_exp(matrix_log(a))
        rel = np.linalg.norm(back.mat - a.mat, "fro") / np.linalg.norm(a.mat, "fro")
        assert rel <= 1e-9

    def test_exp_of_log_of_exp(self):
        rng = make_rng(19)
        for _ in range(25):
            dim = int(rng.integers(1, 7))
            m = random_hermitian(dim, 1.0, rng)
            em = matrix_exp(m)
            again = matrix_exp(matrix_log(em))
            rel = (np.linalg.norm(again.mat - em.mat, "fro")
                   / np.linalg.norm(em.mat, "fro"))
            assert rel <= 1e-9

    def test_log_rejects_nonpositive_spectrum(self):
        with pytest.raises(DomainError):
            matrix_function(HermitianMatrix(np.diag([-1.0, 1.0])), np.log)

    def test_power_endpoints(self):
        a = random_pd(3, (0.5, 2.0), 2)
        assert np.allclose(matrix_power(a, 0.0).mat, np.eye(3), atol=1e-12)
        assert np.abs(matrix_power(a, 1.0).mat - a.mat).max() <= 1e-12

    def test_power_scalar_square_roots(self):
        out = matrix_power(PositiveDefiniteMatrix(np.diag([4.0, 9.0])), 0.5)
        assert np.allclose(out.mat, np.diag([2.0, 3.0]), atol=1e-12)

    def test_power_rejects_outside_unit_interval(self):
        a = random_pd(2, (0.5, 2.0), 2)
        with pytest.raises(DomainError):
            matrix_power(a, 1.5)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self):
        assert operator_norm(np.zeros((3, 2))) == 0.0

    def test_column_vector(self):
        assert operator_norm(np.array([[3.0], [4.0]])) == pytest.approx(5.0, rel=1e-10)

    def test_svd_failure_is_a_convergence_failure(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(ConvergenceFailure, match="SVD did not converge"):
            operator_norm(np.eye(2))
        with pytest.raises(ConvergenceFailure, match="SVD did not converge"):
            Contraction(0.5 * np.eye(2))


def _bit_equal(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _edge_hermitian(rng, n: int) -> np.ndarray:
    """An exactly Hermitian n x n matrix of signed zeros, subnormals and
    entries near half the largest double, whose zero parts take either sign
    in the two halves, so that M + M* adds -0.0 and +0.0."""
    parts = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.5, 0.5 * matrix_core._HALF_MAX,
                      -0.999 * matrix_core._HALF_MAX])
    a = rng.choice(parts, (n, n)) + 1j * rng.choice(parts, (n, n))
    a = np.triu(a) + np.triu(a, 1).conj().T
    a.real[np.diag_indices(n)] = rng.choice(parts, n)
    a.imag[np.diag_indices(n)] = rng.choice([0.0, -0.0], n)
    zeros = (a == 0) & (rng.random((n, n)) < 0.5)
    a[zeros] = -a[zeros]  # -(±0 ± 0j) flips the signs of both zero parts
    return a


class TestThinnedKernels:
    """The checked kernels keep the bits of their plain numpy formulas and
    the type and text of the first error each input raises."""

    def test_symmetrization_keeps_the_bits_of_the_formula(self):
        rng = np.random.default_rng(29)
        stacked = np.stack([_edge_hermitian(rng, 4) for _ in range(6)])
        assert np.signbit(stacked.real).any() and (stacked == 0).any()
        # Halves of -0.0 + 0j, whose sum the division halves to +0.0.
        zeros = np.array([[complex(-0.0, 0.0), complex(-0.0, -0.0)],
                          [complex(-0.0, 0.0), complex(1.0, -0.0)]])
        assert not np.signbit(HermitianMatrix(zeros).mat[0, 0].real)
        for a in (*stacked, stacked, zeros):
            expected = (a + a.conj().swapaxes(-1, -2)) / 2.0
            assert _bit_equal(HermitianMatrix(a).mat, expected)

    @pytest.mark.parametrize("shape", [(4, 4), (8, 8), (12, 16), (16, 12), (28, 3, 3),
                                       (8, 32, 32), (2, 3, 5, 4)])
    def test_operator_norm_keeps_the_bits_of_numpy_norm(self, shape):
        rng = np.random.default_rng(list(shape))
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expected = np.linalg.norm(a, 2, axis=(-2, -1))
        assert _bit_equal(np.asarray(operator_norm(a)), expected)
        if a.ndim == 2:
            assert isinstance(operator_norm(a), float)

    @pytest.mark.parametrize("entries,error,text", [
        ([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0]], DomainError,
         "HermitianMatrix contains non-finite entries"),
        ([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]], DimensionError,
         "expected a square matrix, got shape (2, 3)"),
        ([[1.0, 1e308], [1e308, 1.0]], DomainError,
         "matrix entry of modulus 1.000e+308 overflows the symmetrization (M + M*)/2"),
        ([[1.0, 1e308, 0.0], [1e308, np.inf, 0.0]], DomainError,
         "HermitianMatrix contains non-finite entries"),
    ])
    def test_the_first_error_keeps_its_type_and_text(self, entries, error, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=f"^{re.escape(text)}$"):
                HermitianMatrix(np.array(entries))
            with pytest.raises(error, match=f"^{re.escape(text.replace('Hermitian', 'PositiveDefinite'))}$"):
                PositiveDefiniteMatrix(np.array(entries))

    @pytest.mark.parametrize("shift", [
        lambda w: w + np.where(np.arange(w.shape[-1]) == 0, 1e-6, 0.0),  # trace and norm
        lambda w: np.abs(w),  # -1 -> 1 moves the trace, not the sum of squares
        lambda w: w + np.array([-1e-6, 0.0, 1e-6]),  # the sum of squares, not the trace
    ])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_shifted_eigenvalues_fail_the_invariant_check(self, monkeypatch, shift, stacked):
        a = np.diag([-1.0, 0.5, 2.0]).astype(np.complex128)
        a = np.stack([np.eye(3, dtype=np.complex128), a]) if stacked else a
        original = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: shift(original(m)))
        with pytest.raises(ConvergenceFailure, match="^eigenvalues do not match the trace and norm"):
            matrix_core._checked_eigvalsh(a)

    def test_the_ci_phi_edge_file_gives_a_value(self, tmp_path, capsys):
        from entropylab import cli
        from entropylab.serialization import matrix_to_json

        path = tmp_path / "phi.json"
        path.write_text(json.dumps({
            "A": matrix_to_json(np.array([[2.0, 0.5], [0.5, 1.0]])),
            "L": matrix_to_json(np.array([[-1e160, 0.0], [0.0, 0.0]])),
            "H": matrix_to_json(np.array([[0.6, 0.0], [0.0, 0.6]]))}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["eval", "phi", str(path)]) == 0
        a = PositiveDefiniteMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
        expected = math.exp(0.36 * matrix_log(a).mat[1, 1].real)
        assert float(capsys.readouterr().out) == pytest.approx(expected, rel=1e-12)


class TestGenerators:
    def test_random_pd_eigenvalue_range(self):
        a = random_pd(3, (0.5, 2.0), 99)
        w = np.linalg.eigvalsh(a.mat)
        assert w[0] >= 0.5 - 1e-10 and w[-1] <= 2.0 + 1e-10

    def test_random_pd_deterministic(self):
        a = random_pd(4, (0.05, 5.0), 31415)
        b = random_pd(4, (0.05, 5.0), 31415)
        assert np.array_equal(a.mat, b.mat)

    def test_random_hermitian_deterministic(self):
        a = random_hermitian(5, 2.0, 8)
        b = random_hermitian(5, 2.0, 8)
        assert np.array_equal(a.mat, b.mat)

    def test_tuple_sum_is_identity(self):
        t = random_contraction_tuple(2, 2, 2, True, 4)
        dev = np.abs(t.gram() - np.eye(2)).max()
        assert dev <= 1e-12

    def test_tuple_contraction_invariant(self):
        rng = make_rng(5)
        for _ in range(30):
            k = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            t = random_contraction_tuple(k, m, n, False, rng)
            assert np.linalg.eigvalsh(t.gram())[-1] <= 1.0 + 1e-10

    def test_tuple_deterministic(self):
        t1 = random_contraction_tuple(3, 2, 4, True, 17)
        t2 = random_contraction_tuple(3, 2, 4, True, 17)
        assert all(np.array_equal(a, b) for a, b in zip(t1.blocks, t2.blocks))

    def test_isometry_needs_enough_rows(self):
        with pytest.raises(DimensionError):
            random_contraction_tuple(1, 2, 5, True, 0)

    def test_wide_tuple_without_identity_flag(self):
        t = random_contraction_tuple(1, 2, 5, False, 0)
        assert np.linalg.eigvalsh(t.gram())[-1] <= 1.0 + 1e-10

    def test_seed_validation(self):
        with pytest.raises(DomainError):
            make_rng(-1)
        with pytest.raises(DomainError):
            make_rng(2 ** 64)
        with pytest.raises(DomainError):
            random_pd(2, (0.0, 1.0), 3)

    @pytest.mark.parametrize("eig_range", [(0.05, float("inf")), (float("inf"), float("inf")),
                                           (0.05, float("nan")), (2.0, 1.0)])
    def test_random_pd_rejects_eig_range_outside_finite_positive_window(self, eig_range):
        # An infinite upper end used to reach the uniform draw and crash there
        # with numpy's OverflowError.
        with pytest.raises(DomainError, match="0 < lo <= hi < inf"):
            random_pd(3, eig_range, 1)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf"), 1e308, -1e308])
    def test_random_hermitian_rejects_a_non_finite_or_overflowing_scale(self, scale):
        # 1e308 times the drawn entries used to overflow with two RuntimeWarnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as exc:
                random_hermitian(3, scale, 3)
        assert "scale" in str(exc.value) and str(scale) in str(exc.value)

    @pytest.mark.parametrize("scale", [1e307, -1e-300, 0.0])
    def test_random_hermitian_keeps_its_bits_at_extreme_valid_scales(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref.assert_same(random_hermitian(3, scale, 3), ref.random_hermitian(3, scale, 3))

    def test_random_pd_defaults_to_the_check_eigenvalue_range(self):
        assert matrix_core.EIG_RANGE == (0.05, 5.0)
        assert random_pd(3, seed=4).mat.tobytes() == random_pd(3, (0.05, 5.0), 4).mat.tobytes()


class TestDrawThenBuild:
    """Each generator is a draw plus a stack-generic build; both keep the
    bits of the one-pass generator code, alone and stacked."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 16])
    @pytest.mark.parametrize("seed", range(5))
    def test_square_generators_equal_the_reference(self, seed, dim):
        ref.assert_same(random_pd(dim, (0.1, 3.0), seed), ref.random_pd(dim, (0.1, 3.0), seed))
        ref.assert_same(random_hermitian(dim, 2.5, seed), ref.random_hermitian(dim, 2.5, seed))
        u = matrix_core._build_haar(matrix_core._complex_gaussian(make_rng(seed), dim, dim))
        expected = ref.haar_unitary(make_rng(seed), dim)
        assert u.shape == expected.shape and u.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kmn,isometric", [
        ((2, 3, 4), False),   # tall: k*m > n
        ((1, 2, 5), False),   # wide: k*m < n, orthonormal rows
        ((3, 1, 5), False),
        ((3, 2, 4), True),    # isometric
        ((2, 4, 8), True),
        ((1, 16, 16), True),
    ])
    @pytest.mark.parametrize("seed", range(5))
    def test_tuples_equal_the_reference(self, seed, kmn, isometric):
        ref.assert_same(random_contraction_tuple(*kmn, isometric, seed),
                        ref.random_contraction_tuple(*kmn, isometric, seed))

    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_stacked_builds_equal_each_build_alone(self, dim):
        def stacked(column):
            if isinstance(column[0], np.ndarray):
                return np.stack(column)
            return np.array(column) if isinstance(column[0], float) else column[0]

        def each(draw, build):
            draws = [draw(make_rng(seed)) for seed in range(5)]
            stack_built = build(*map(stacked, zip(*draws)))
            for i, d in enumerate(draws):
                ref.assert_same(verifiers._slice(stack_built, i), build(*d))

        each(lambda rng: matrix_core._draw_pd(rng, dim, 0.1, 3.0), matrix_core._build_pd)
        each(lambda rng: (matrix_core._complex_gaussian(rng, dim, dim),),
             matrix_core._build_hermitian)
        for k, m, n, isometric in ((2, dim, dim, True), (2, dim, dim, False),
                                   (1, dim, dim + 2, False)):
            each(lambda rng: matrix_core._draw_tuple(rng, k, m, n, isometric),
                 matrix_core._build_tuple)


class TestContractionBuild:
    """The build scales a Gaussian to its drawn norm and checks the bound on
    the norm it scaled by, with no second SVD."""

    @pytest.mark.parametrize("count", [1, 4, 8])
    @pytest.mark.parametrize("rows,cols", [(2, 2), (3, 5), (16, 16), (28, 14), (32, 32)])
    def test_stacked_build_equals_the_checked_constructor(self, monkeypatch, rows, cols, count):
        draws = [matrix_core._draw_contraction(np.random.default_rng([rows, cols, i]), rows, cols)
                 for i in range(count)]

        norms = []
        operator_norm = matrix_core.operator_norm
        monkeypatch.setattr(matrix_core, "operator_norm",
                            lambda M: norms.append(M) or operator_norm(M))
        built = matrix_core._build_contraction(np.stack([g for g, _ in draws]),
                                               np.array([target for _, target in draws]))
        monkeypatch.undo()
        assert len(norms) == 1  # of the Gaussian, not again of the scaled matrix
        assert built.mat.shape == (count, rows, cols) and not built.mat.flags.writeable
        for i, (parts, target) in enumerate(draws):
            g = matrix_core._complex(parts)
            expected = Contraction(g * (target / np.linalg.norm(g, 2)))
            assert built.mat[i].tobytes() == expected.mat.tobytes()

    def test_a_norm_above_one_raises(self):
        g, _ = matrix_core._draw_contraction(make_rng(5), 3, 3)
        with pytest.raises(NotAContraction, match="1.500000000000 > 1"):
            matrix_core._build_contraction(g[None], np.array([1.5]))
        with pytest.raises(NotAContraction):
            matrix_core._build_contraction(np.stack([g, g]), np.array([0.5, 1.5]))


def _count_calls(monkeypatch, name: str) -> list:
    """Count calls of ``np.linalg.<name>``; returns the live counter."""
    calls = []
    original = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestSpectrumCache:
    def test_one_decomposition_per_value(self, monkeypatch):
        a = random_pd(4, seed=31)
        eigh = _count_calls(monkeypatch, "eigh")
        eigvalsh = _count_calls(monkeypatch, "eigvalsh")
        matrix_log(a)
        root = matrix_power(a, 0.5)
        spectral_decompose(a)
        # A itself is decomposed once, at construction (before counting);
        # A^(1/2) keeps w^(1/2) with the eigenvectors of A, so nothing here
        # is decomposed.
        assert eigh == []
        assert eigvalsh == []
        matrix_log(root)
        assert eigh == []
        assert np.array_equal(spectral_decompose(root).eigenvectors,
                              spectral_decompose(a).eigenvectors)

    def test_spectrum_is_kept_with_the_value(self):
        a = random_pd(3, seed=32)
        assert spectral_decompose(a) is spectral_decompose(a)
        m = random_hermitian(3, 1.0, seed=33)
        assert spectral_decompose(m) is spectral_decompose(m)

    def test_cached_spectrum_is_read_only(self):
        dec = spectral_decompose(random_pd(3, seed=34))
        with pytest.raises(ValueError):
            dec.eigenvalues[0] = 0.0
        with pytest.raises(ValueError):
            dec.eigenvectors[0, 0] = 0.0

    def test_non_unitary_eigenvectors_still_rejected_on_first_use(self, monkeypatch):
        original = np.linalg.eigh
        m = random_hermitian(3, 1.0, seed=35)
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (original(a)[0], 2.0 * original(a)[1]))
        with pytest.raises(ConvergenceFailure, match="not unitary"):
            spectral_decompose(m)
        with pytest.raises(ConvergenceFailure, match="not unitary"):
            PositiveDefiniteMatrix(np.diag([1.0, 2.0]))
        # A failed decomposition is not kept.
        monkeypatch.setattr(np.linalg, "eigh", original)
        assert np.allclose(spectral_decompose(m).reconstruct(), m.mat)


class TestEigensolverFailure:
    """A LinAlgError from LAPACK is a typed ConvergenceFailure, so a check
    records it as an error trial instead of aborting."""

    @staticmethod
    def _fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def test_pd_construction(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", self._fail)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            PositiveDefiniteMatrix(np.eye(2))

    def test_contraction_tuple_construction(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", self._fail)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            ContractionTuple([0.5 * np.eye(2)])

    def test_a_shifted_gram_eigenvalue_fails_the_check(self, monkeypatch):
        # The tuple bound reads the top eigenvalue only; the invariant check
        # catches a wrong lower one.
        original = np.linalg.eigvalsh

        def shifted(a):
            w = original(a).copy()
            w[..., 0] += 1e-6
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
        with pytest.raises(ConvergenceFailure, match="trace and norm"):
            ContractionTuple([0.5 * np.eye(2)])

    def test_numpy_eigensolvers_run_only_in_the_checked_routines(self):
        # Each np.linalg eigensolver call of the package, with the function
        # that makes it.
        calls = set()

        def visit(node, owner, path):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                calls.update((path, owner, alias.name) for alias in node.names)
            if (isinstance(node, ast.Attribute) and node.attr.startswith("eig")
                    and ast.unparse(node.value) in ("np.linalg", "numpy.linalg")):
                calls.add((path, owner, node.attr))
            for child in ast.iter_child_nodes(node):
                visit(child, owner, path)

        for path in sorted(Path(matrix_core.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text()), None, path.name)
        assert calls == {("matrix_core.py", "_checked_eigh", "eigh"),
                         ("matrix_core.py", "_checked_eigvalsh", "eigvalsh")}

    def test_the_one_svd_runs_in_the_norm_routine(self):
        # Each np.linalg call of the package that runs an SVD: svd itself, or
        # norm with ord 2 (or an ord that is not a constant).  A Frobenius
        # norm is no SVD.
        calls = set()

        def runs_svd(node) -> bool:
            name = ast.unparse(node.func)
            if name in ("np.linalg.svd", "numpy.linalg.svd"):
                return True
            if name not in ("np.linalg.norm", "numpy.linalg.norm"):
                return False
            ords = [kw.value for kw in node.keywords if kw.arg == "ord"] + node.args[1:2]
            return any(not isinstance(o, ast.Constant) or o.value in (2, -2) for o in ords)

        def visit(node, owner, path):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name
            if isinstance(node, ast.Call) and runs_svd(node):
                calls.add((path, owner, ast.unparse(node.func).rsplit(".", 1)[-1]))
            for child in ast.iter_child_nodes(node):
                visit(child, owner, path)

        for path in sorted(Path(matrix_core.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text()), None, path.name)
        assert calls == {("matrix_core.py", "_top_singular_value", "svd")}


class TestStacks:
    """Every check runs on each matrix of a stack; one bad matrix fails it."""

    @staticmethod
    def _with(good, bad, at=1):
        out = [good] * 3
        out[at] = bad
        return np.stack(out)

    def test_hermitian_asymmetry(self):
        m = HermitianMatrix(self._with(np.eye(2), np.eye(2)))
        assert m.mat.shape == (3, 2, 2) and m.dim == 2
        with pytest.raises(DomainError, match="not Hermitian"):
            HermitianMatrix(self._with(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])))

    def test_finiteness(self):
        with pytest.raises(DomainError, match="non-finite"):
            HermitianMatrix(self._with(np.eye(2), np.diag([np.inf, 1.0])))

    def test_pd_floor(self):
        a = PositiveDefiniteMatrix(self._with(np.eye(2), np.diag([0.5, 2.0]), at=2))
        assert a.min_eigenvalue.tolist() == pytest.approx([1.0, 1.0, 0.5])
        with pytest.raises(DomainError, match="positive definite"):
            PositiveDefiniteMatrix(self._with(np.eye(2), np.diag([1e-12, 1.0])))

    def test_unitarity(self, monkeypatch):
        original = np.linalg.eigh

        def one_bad(a):
            w, u = original(a)
            u = u.copy()
            u[1] *= 2.0
            return w, u

        monkeypatch.setattr(np.linalg, "eigh", one_bad)
        with pytest.raises(ConvergenceFailure, match="not unitary"):
            spectral_decompose(HermitianMatrix(self._with(np.eye(2), np.eye(2))))

    def test_contraction_norm(self):
        Contraction(self._with(0.5 * np.eye(2), np.eye(2)))
        with pytest.raises(NotAContraction):
            Contraction(self._with(0.5 * np.eye(2), 1.5 * np.eye(2)))

    def test_contraction_tuple_gram_bound(self):
        ok = ContractionTuple([self._with(0.5 * np.eye(2), 0.6 * np.eye(2))], sum_is_identity=False)
        assert ok.gram().shape == (3, 2, 2)
        with pytest.raises(NotAContraction):
            ContractionTuple([self._with(0.5 * np.eye(2), 1.5 * np.eye(2))])
        with pytest.raises(DomainError, match="identity"):
            ContractionTuple([self._with(np.eye(2), 0.5 * np.eye(2))], sum_is_identity=True)

    def test_single_values_give_floats(self):
        a = random_pd(3, seed=36)
        assert isinstance(a.min_eigenvalue, float) and isinstance(a.trace(), float)
        assert isinstance(operator_norm(a), float)
        stacked = stack([a, random_pd(3, seed=37)])
        assert stacked.trace().shape == (2,) and operator_norm(stacked).shape == (2,)

    def test_stack_keeps_values_and_spectra(self, monkeypatch):
        values = [random_pd(3, seed=s) for s in (38, 39)]
        eigh = _count_calls(monkeypatch, "eigh")
        stacked = stack(values)
        assert type(stacked) is PositiveDefiniteMatrix and eigh == []
        dec = spectral_decompose(stacked)
        assert eigh == []
        for i, v in enumerate(values):
            assert np.array_equal(stacked.mat[i], v.mat)
            assert np.array_equal(dec.eigenvectors[i], spectral_decompose(v).eigenvectors)
        assert np.array_equal(stacked.min_eigenvalue, [v.min_eigenvalue for v in values])
        with pytest.raises(ValueError):
            stacked.mat[0, 0, 0] = 0.0
        tuples = [random_contraction_tuple(2, 2, 3, True, s) for s in (40, 41)]
        t = stack(tuples)
        assert (t.k, t.m, t.n, t.sum_is_identity) == (2, 2, 3, True)
        assert t.blocks[1].shape == (2, 2, 3)

    @pytest.mark.parametrize("order", [(True, False), (False, True)])
    def test_a_stack_of_tuples_keeps_each_tuple_flag(self, order):
        tuples = [random_contraction_tuple(2, 2, 3, flag, s) for flag, s in zip(order, (40, 41))]
        t = stack(tuples)
        assert t.sum_is_identity.tolist() == list(order)
        for i, alone in enumerate(tuples):
            entry = verifiers._slice(t, i)
            assert entry.sum_is_identity is alone.sum_is_identity
            ref.assert_same(entry, alone)
            assert contraction_tuple_to_json(entry) == contraction_tuple_to_json(alone)
            assert contraction_tuple_to_json(entry)["sum_is_identity"] is order[i]
        again = stack([t, t])  # per-entry flags join along the stack
        assert again.sum_is_identity.shape == (2, 2)
        assert again.sum_is_identity.tolist() == [list(order)] * 2

    def test_only_the_flagged_entries_must_sum_to_the_identity(self):
        blocks = self._with(np.eye(2), 0.5 * np.eye(2))
        # The unflagged entry sums to I / 4, and the flagged ones to I.
        t = ContractionTuple([blocks], sum_is_identity=np.array([True, False, True]))
        assert t.sum_is_identity.tolist() == [True, False, True]
        assert not t.sum_is_identity.flags.writeable
        same = ContractionTuple([blocks[[0, 2]]], sum_is_identity=np.array([True, True]))
        assert same.sum_is_identity is True
        # A flagged entry that does not sum to I raises the error of its tuple alone.
        with pytest.raises(DomainError) as alone:
            ContractionTuple([blocks[1]], sum_is_identity=True)
        with pytest.raises(DomainError) as stacked:
            ContractionTuple([self._with(4.0 * np.eye(2) / 5.0, 0.5 * np.eye(2))],
                             sum_is_identity=np.array([False, True, False]))
        assert str(stacked.value) == str(alone.value)
        with pytest.raises(DimensionError, match="one flag per"):
            ContractionTuple([blocks], sum_is_identity=np.array([True, False]))

    def test_build_scales_only_the_strict_entries(self):
        # A stack of an isometric and a strict draw builds each entry with
        # the bits of its tuple built alone.
        draws = [matrix_core._draw_tuple(make_rng(s), 2, 2, 3, flag)
                 for s, flag in ((40, True), (41, False), (42, True))]
        assert [d[-1] == 1.0 for d in draws] == [True, False, True]
        built = matrix_core._build_tuple(*verifiers._stacked(draws))
        assert built.sum_is_identity.tolist() == [True, False, True]
        for i, d in enumerate(draws):
            ref.assert_same(verifiers._slice(built, i), matrix_core._build_tuple(*d))


class TestRealFunctionValues:
    """``f`` must return real values: a complex or non-numeric result is a
    DomainError that names ``f``, never a result with its imaginary parts
    dropped."""

    @pytest.mark.parametrize("f", [lambda w: np.sqrt(-w + 0j), lambda w: w + 0j],
                             ids=["sqrt-of-negative", "zero-imaginary-parts"])
    def test_complex_result(self, f):
        a = random_pd(3, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="root did not return real values"):
                matrix_function(a, f, fname="root")

    def test_non_numeric_result(self):
        def words(w):
            return ["x"] * len(w)

        with pytest.raises(DomainError, match="words did not return real values"):
            matrix_function(random_pd(3, seed=1), words)


class TestReconstructionCheck:
    @pytest.mark.parametrize("shift", [1e-6, -1e-6])
    def test_a_shifted_eigenvalue_fails_the_check(self, shift, monkeypatch):
        # Unitary eigenvectors, so only the reconstruction check can fail.
        m = random_hermitian(3, 1.0, seed=35)
        original = np.linalg.eigh

        def shifted(a):
            w, u = original(a)
            w = w.copy()
            w[..., 1] += shift * (1.0 + np.abs(w).max())
            return w, u

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        with pytest.raises(ConvergenceFailure, match="spectral reconstruction error"):
            spectral_decompose(m)
        with pytest.raises(ConvergenceFailure, match="spectral reconstruction error"):
            PositiveDefiniteMatrix(np.diag([1.0, 2.0]))


class TestTypedErrors:
    """Each shape, size and seed check raises its typed error and names the
    cause."""

    @pytest.mark.parametrize("entries,shape", [(np.ones(3), "(3,)"), (np.ones((0, 2)), "(0, 2)"),
                                               (1.0, "()")])
    def test_a_matrix_is_2_dimensional_with_positive_shape(self, entries, shape):
        message = f"must be 2-dimensional with positive shape, got {shape}"
        with pytest.raises(DimensionError, match=re.escape(message)):
            HermitianMatrix(entries)

    def test_a_tuple_needs_a_block(self):
        with pytest.raises(DimensionError, match="needs at least one block"):
            ContractionTuple([])

    def test_tuple_blocks_share_one_shape(self):
        with pytest.raises(DimensionError, match=r"block 1 has shape \(3, 2\), expected \(2, 2\)"):
            ContractionTuple([0.1 * np.eye(2), 0.1 * np.ones((3, 2))])

    @pytest.mark.parametrize("seed", ["7", 7.0, None])
    def test_seed_is_an_integer_or_generator(self, seed):
        with pytest.raises(DomainError, match="seed must be an integer or Generator, got"):
            make_rng(seed)

    @pytest.mark.parametrize("seed", [True, False, np.True_])
    def test_a_boolean_is_no_seed(self, seed):
        # random_pd(2, seed=True) drew the instance of seed 1.
        with pytest.raises(DomainError, match="seed must be an integer or Generator, got"):
            random_pd(2, seed=seed)
        with pytest.raises(DomainError, match="seed must be an integer, got"):
            checked_seed(seed)

    @pytest.mark.parametrize("seed", [7, np.int64(7), np.uint8(7)])
    def test_an_integer_seed_is_an_int(self, seed):
        assert checked_seed(seed) == 7 and type(checked_seed(seed)) is int
        assert np.array_equal(random_pd(2, seed=seed).mat, random_pd(2, seed=7).mat)

    @pytest.mark.parametrize("make,match", [
        (lambda: random_pd(0), "dim must be >= 1, got 0"),
        (lambda: random_hermitian(-1), "dim must be >= 1, got -1"),
        (lambda: random_contraction_tuple(2, 0, 2, False),
         r"k, m, n must all be >= 1, got \(2, 0, 2\)"),
    ])
    def test_generator_sizes_are_positive(self, make, match):
        with pytest.raises(DimensionError, match=match):
            make()

    @pytest.mark.parametrize("make,match", [
        (lambda: random_pd(2.5), "dim must be an integer, got float 2.5"),
        (lambda: random_pd(True), "dim must be an integer, got bool True"),
        (lambda: random_hermitian(2.5), "dim must be an integer, got float 2.5"),
        (lambda: random_contraction_tuple(1, 2.5, 2, False), "m must be an integer, got float"),
        (lambda: random_contraction_tuple(np.True_, 2, 2, False), "k must be an integer, got"),
        (lambda: random_pd(2, (1,)), r"eig_range must be two numbers \(lo, hi\), got \(1,\)"),
        (lambda: random_pd(2, (1.0, "2")), "eig_range must be two numbers"),
        (lambda: random_pd(2, (True, 2.0)), "eig_range must be two numbers"),
        (lambda: random_pd(2, 3.0), "eig_range must be two numbers"),
    ])
    def test_generator_arguments_are_typed(self, make, match):
        # Each raised NumPy's TypeError or an IndexError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=match):
                make()

    def test_numpy_integer_sizes_draw_the_int_instances(self):
        three = np.int64(3)
        assert random_pd(three, seed=4).mat.tobytes() == random_pd(3, seed=4).mat.tobytes()
        assert (random_pd(2, np.array([0.5, 2.0]), seed=4).mat.tobytes()
                == random_pd(2, (0.5, 2.0), seed=4).mat.tobytes())
        assert (random_hermitian(three, seed=4).mat.tobytes()
                == random_hermitian(3, seed=4).mat.tobytes())
        tup = random_contraction_tuple(np.int64(2), three, np.uint8(4), True, seed=4)
        assert (tup.k, tup.m, tup.n) == (2, 3, 4) and type(tup.m) is int
        assert all(a.tobytes() == b.tobytes() for a, b in
                   zip(tup.blocks, random_contraction_tuple(2, 3, 4, True, seed=4).blocks))
