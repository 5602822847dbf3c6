import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from entropylab import functionals
from entropylab.errors import (
    DimensionError,
    DomainError,
    EntropyLabError,
    NonFiniteObjective,
    NotAContraction,
    NumericalInconsistency,
)
from entropylab.functionals import (
    FUNCTIONALS,
    MultiInstance,
    _real_trace,
    block_lift,
    gibbs_objective,
    gt_jensen_lhs,
    gt_jensen_rhs,
    lieb_trace,
    lieb_trace_derivative_at_zero,
    multi_trace_exp,
    phi_objective,
    reduced_relative_entropy,
    relative_entropy,
    trace_exp_functional,
)
from entropylab import matrix_core
from entropylab.matrix_core import (
    Contraction,
    ContractionTuple,
    HermitianMatrix,
    PositiveDefiniteMatrix,
    make_rng,
    matrix_exp,
    matrix_log,
    random_contraction_tuple,
    random_hermitian,
    random_pd,
    stack,
)
from entropylab.serialization import instance_to_json, matrix_to_json


def scalar(x):
    return np.array([[float(x)]])


def pd(x):
    return PositiveDefiniteMatrix(np.asarray(x, dtype=float))


class TestRelativeEntropy:
    def test_zero_at_equal_arguments(self):
        a = random_pd(4, (0.05, 5.0), 1)
        assert abs(relative_entropy(a, a)) <= 1e-10

    def test_scalar_value(self):
        # a log a - a log b - a + b at a=2, b=1: 2 ln 2 - 1.
        assert relative_entropy(pd(scalar(2)), pd(scalar(1))) == pytest.approx(
            2.0 * math.log(2.0) - 1.0, abs=1e-14)

    def test_klein_nonnegativity(self):
        rng = make_rng(2)
        for _ in range(100):
            a = random_pd(4, (0.05, 5.0), rng)
            b = random_pd(4, (0.05, 5.0), rng)
            assert relative_entropy(a, b) >= -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            relative_entropy(random_pd(2, (0.5, 2.0), 0), random_pd(3, (0.5, 2.0), 0))


class TestReducedRelativeEntropy:
    def test_identity_contraction_recovers_relative_entropy(self):
        rng = make_rng(3)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            a = random_pd(d, (0.05, 5.0), rng)
            b = random_pd(d, (0.05, 5.0), rng)
            assert reduced_relative_entropy(a, b, np.eye(d)) == relative_entropy(a, b)

    def test_zero_contraction_drops_cross_term(self):
        a = random_pd(3, (0.1, 3.0), 4)
        b = random_pd(3, (0.1, 3.0), 5)
        wa = np.linalg.eigvalsh(a.mat)
        expected = float(np.sum(wa * np.log(wa)) - wa.sum() + np.trace(b.mat).real)
        got = reduced_relative_entropy(a, b, np.zeros((3, 3)))
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_scalar_value(self):
        # A = B = [e], H = [1/2]: e - e/4.
        val = reduced_relative_entropy(pd(scalar(math.e)), pd(scalar(math.e)), scalar(0.5))
        assert val == pytest.approx(0.75 * math.e, abs=1e-12)

    def test_rejects_expansion(self):
        a = random_pd(2, (0.5, 2.0), 6)
        with pytest.raises(NotAContraction):
            reduced_relative_entropy(a, a, 1.5 * np.eye(2))

    def test_rejects_bad_shape(self):
        a = random_pd(2, (0.5, 2.0), 6)
        with pytest.raises(DimensionError):
            reduced_relative_entropy(a, a, np.eye(3))


class TestLiebTrace:
    def test_p_zero_identity_contraction(self):
        a = random_pd(3, (0.5, 2.0), 7)
        b = random_pd(3, (0.5, 2.0), 8)
        assert lieb_trace(a, b, np.eye(3), 0.0) == pytest.approx(a.trace(), rel=1e-12)

    def test_p_one_equal_arguments(self):
        b = random_pd(3, (0.5, 2.0), 9)
        assert lieb_trace(b, b, np.eye(3), 1.0) == pytest.approx(b.trace(), rel=1e-12)

    def test_scalar_value(self):
        # b^p a^(1-p) at a=2, b=3, p=0.3.
        val = lieb_trace(pd(scalar(2)), pd(scalar(3)), scalar(1), 0.3)
        assert val == pytest.approx(3.0 ** 0.3 * 2.0 ** 0.7, rel=1e-14)

    def test_rejects_p_outside_unit_interval(self):
        a = random_pd(2, (0.5, 2.0), 10)
        with pytest.raises(DomainError):
            lieb_trace(a, a, np.eye(2), -0.1)


class TestLiebDerivative:
    def test_zero_at_equal_arguments_identity(self):
        b = random_pd(4, (0.1, 4.0), 11)
        assert abs(lieb_trace_derivative_at_zero(b, b, np.eye(4))) <= 1e-10

    def test_scalar_closed_form(self):
        # d/dp b^p a^(1-p) at p=0 is a ln(b/a).
        a_val, b_val = 2.0, 5.0
        val = lieb_trace_derivative_at_zero(pd(scalar(a_val)), pd(scalar(b_val)), scalar(1))
        assert val == pytest.approx(a_val * math.log(b_val / a_val), rel=1e-14)

    def test_matches_finite_difference(self):
        rng = make_rng(12)
        a = random_pd(3, (0.05, 5.0), rng)
        b = random_pd(3, (0.05, 5.0), rng)
        h = 0.7 * np.eye(3)
        p = 1e-4
        fd = (lieb_trace(a, b, h, p) - lieb_trace(a, b, h, 0.0)) / p
        assert fd == pytest.approx(lieb_trace_derivative_at_zero(a, b, h), abs=1e-3)

    def test_error_shrinks_with_p(self):
        rng = make_rng(13)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            a = random_pd(d, (0.05, 5.0), rng)
            b = random_pd(d, (0.05, 5.0), rng)
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = 0.8 * g / np.linalg.norm(g, 2)
            g0 = lieb_trace(a, b, h, 0.0)
            d0 = lieb_trace_derivative_at_zero(a, b, h)
            errs = [abs((lieb_trace(a, b, h, p) - g0) / p - d0)
                    for p in (1e-2, 1e-3, 1e-4)]
            assert errs[1] < errs[0]
            assert errs[2] < 10.0 * errs[1]


class TestTraceExpFunctional:
    def test_zero_l_identity_contraction(self):
        a = random_pd(3, (0.5, 2.0), 14)
        val = trace_exp_functional(a, HermitianMatrix(np.zeros((3, 3))), np.eye(3))
        assert val == pytest.approx(a.trace(), rel=1e-12)

    def test_scalar_fourth_root(self):
        # exp(0 + 0.25 log 4) = sqrt(2).
        val = trace_exp_functional(pd(scalar(4)), HermitianMatrix(scalar(0)), scalar(0.5))
        assert val == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_always_positive(self):
        rng = make_rng(15)
        for _ in range(20):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            a = random_pd(m, (0.05, 5.0), rng)
            L = random_hermitian(n, 1.0, rng)
            g = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            h = 0.9 * g / np.linalg.norm(g, 2)
            assert trace_exp_functional(a, L, h) > 0.0

    def test_rejects_expansion(self):
        a = random_pd(2, (0.5, 2.0), 16)
        with pytest.raises(NotAContraction):
            trace_exp_functional(a, HermitianMatrix(np.zeros((2, 2))), 2.0 * np.eye(2))

    def test_overflow_raises_non_finite_objective(self):
        eye = PositiveDefiniteMatrix(np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning may leak either
            with pytest.raises(NonFiniteObjective, match="top eigenvalue 800"):
                trace_exp_functional(eye, HermitianMatrix(np.diag([800.0, 0.0])), np.eye(2))
        # Just below overflow the value is finite and exact.
        val = trace_exp_functional(eye, HermitianMatrix(np.diag([700.0, 0.0])), np.eye(2))
        assert val == math.exp(700.0) + 1.0


def _k2_scalar_instance():
    h = 1.0 / math.sqrt(2.0)
    tup = ContractionTuple([scalar(h), scalar(h)], sum_is_identity=True)
    return MultiInstance(
        L=HermitianMatrix(scalar(0)), H=tup,
        a_list=[pd(scalar(4)), pd(scalar(9))])


class TestMultiTraceExp:
    def test_k1_reduces_to_single_variable(self):
        rng = make_rng(17)
        a = random_pd(3, (0.05, 5.0), rng)
        L = random_hermitian(2, 1.0, rng)
        tup = random_contraction_tuple(1, 3, 2, False, rng)
        inst = MultiInstance(L=L, H=tup, a_list=[a])
        direct = trace_exp_functional(a, L, tup.blocks[0])
        assert multi_trace_exp(inst) == pytest.approx(direct, abs=1e-12)

    def test_k2_scalar_geometric_mean(self):
        # exp((log 4 + log 9)/2) = 6.
        assert multi_trace_exp(_k2_scalar_instance()) == pytest.approx(6.0, rel=1e-12)

    def test_homogeneous_under_isometric_tuple(self):
        rng = make_rng(18)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, k * m + 1))
            tup = random_contraction_tuple(k, m, n, True, rng)
            L = random_hermitian(n, 1.0, rng)
            a_list = [random_pd(m, (0.05, 5.0), rng) for _ in range(k)]
            inst = MultiInstance(L=L, H=tup, a_list=a_list)
            base = multi_trace_exp(inst)
            for t in (0.5, 2.0, 10.0):
                scaled = MultiInstance(
                    L=L, H=tup,
                    a_list=[PositiveDefiniteMatrix(t * a.mat) for a in a_list])
                assert abs(multi_trace_exp(scaled) - t * base) <= 1e-9 * t * abs(base)

    def test_requires_a_list(self):
        inst = MultiInstance(
            L=HermitianMatrix(scalar(0)),
            H=ContractionTuple([scalar(1)], sum_is_identity=True),
            b_list=[HermitianMatrix(scalar(1))])
        with pytest.raises(DimensionError):
            multi_trace_exp(inst)

    def test_instance_validation(self):
        tup = ContractionTuple([scalar(1)], sum_is_identity=True)
        with pytest.raises(DimensionError):
            MultiInstance(L=HermitianMatrix(scalar(0)), H=tup)
        with pytest.raises(DimensionError):
            MultiInstance(L=HermitianMatrix(np.zeros((2, 2))), H=tup,
                          a_list=[pd(scalar(1))])
        with pytest.raises(DimensionError):
            MultiInstance(L=HermitianMatrix(scalar(0)), H=tup,
                          a_list=[pd(scalar(1)), pd(scalar(2))])


class TestBlockLift:
    def test_k1_is_the_instance_itself(self):
        rng = make_rng(19)
        a = random_pd(2, (0.05, 5.0), rng)
        L = random_hermitian(2, 1.0, rng)
        tup = random_contraction_tuple(1, 2, 2, False, rng)
        inst = MultiInstance(L=L, H=tup, a_list=[a])
        lift = block_lift(inst)
        assert np.array_equal(lift.a_hat.mat, a.mat)
        assert np.array_equal(lift.l_hat.mat, L.mat)
        assert np.array_equal(lift.h_hat.mat, tup.blocks[0])
        assert lift.lifted_value() == pytest.approx(multi_trace_exp(inst), abs=1e-12)

    def test_k2_scalar_lift_adds_one(self):
        # lifted trace = 6 + (2-1)*1 = 7.
        lift = block_lift(_k2_scalar_instance())
        assert lift.lifted_value() == pytest.approx(7.0, rel=1e-12)

    def test_block_structure_is_exact(self):
        rng = make_rng(20)
        tup = random_contraction_tuple(3, 2, 2, True, rng)
        L = random_hermitian(2, 1.0, rng)
        a_list = [random_pd(2, (0.05, 5.0), rng) for _ in range(3)]
        lift = block_lift(MultiInstance(L=L, H=tup, a_list=a_list))
        for i in range(3):
            blk = lift.a_hat.mat[2 * i:2 * i + 2, 2 * i:2 * i + 2]
            assert np.array_equal(blk, a_list[i].mat)
        off = lift.a_hat.mat.copy()
        for i in range(3):
            off[2 * i:2 * i + 2, 2 * i:2 * i + 2] = 0.0
        assert np.all(off == 0.0)
        assert np.all(lift.l_hat.mat[2:, :] == 0.0)
        assert np.all(lift.l_hat.mat[:, 2:] == 0.0)
        assert np.all(lift.h_hat.mat[:, 2:] == 0.0)

    def test_identity_random_instance(self):
        rng = make_rng(21)
        tup = random_contraction_tuple(3, 2, 2, True, rng)
        L = random_hermitian(2, 1.0, rng)
        inst = MultiInstance(L=L, H=tup,
                             a_list=[random_pd(2, (0.05, 5.0), rng) for _ in range(3)])
        direct = multi_trace_exp(inst)
        lifted = block_lift(inst).lifted_value()
        assert abs(lifted - (direct + 2 * 2)) <= 1e-9 * (1.0 + abs(direct))

    def test_identity_across_shapes(self):
        # 200 instances, k in 1..4, m, n in 1..4.
        rng = make_rng(22)
        for _ in range(200):
            k = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            sum_id = bool(rng.integers(2)) and k * m >= n
            tup = random_contraction_tuple(k, m, n, sum_id, rng)
            L = random_hermitian(n, 1.0, rng)
            inst = MultiInstance(
                L=L, H=tup,
                a_list=[random_pd(m, (0.05, 5.0), rng) for _ in range(k)])
            direct = multi_trace_exp(inst)
            lifted = block_lift(inst).lifted_value()
            assert abs(lifted - (direct + (k - 1) * n)) <= 1e-9 * (1.0 + abs(direct))


class TestGtJensen:
    def test_scalar_commuting_equality(self):
        tup = ContractionTuple([scalar(1)], sum_is_identity=True)
        inst = MultiInstance(L=HermitianMatrix(scalar(0.4)), H=tup,
                             b_list=[HermitianMatrix(scalar(0.9))])
        rhs = gt_jensen_rhs(inst)
        lhs = gt_jensen_lhs(inst)
        assert rhs == pytest.approx(math.exp(1.3), rel=1e-12)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_zero_l_identity_contraction(self):
        b = random_hermitian(3, 1.0, 23)
        tup = ContractionTuple([np.eye(3)], sum_is_identity=True)
        inst = MultiInstance(L=HermitianMatrix(np.zeros((3, 3))), H=tup, b_list=[b])
        assert gt_jensen_rhs(inst) == pytest.approx(matrix_exp(b).trace(), rel=1e-12)

    def test_inequality_on_random_isometric_instances(self):
        rng = make_rng(24)
        for _ in range(50):
            k = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, k * m + 1))
            tup = random_contraction_tuple(k, m, n, True, rng)
            L = random_hermitian(n, 1.0, rng)
            bs = [random_hermitian(m, 1.0, rng) for _ in range(k)]
            inst = MultiInstance(L=L, H=tup, b_list=bs)
            lhs, rhs = gt_jensen_lhs(inst), gt_jensen_rhs(inst)
            assert lhs <= rhs + 1e-9 * (1.0 + max(abs(lhs), abs(rhs)))


class TestVariationalObjectives:
    def test_gibbs_at_maximizer(self):
        b = random_pd(3, (0.05, 5.0), 25)
        assert gibbs_objective(b, b) == pytest.approx(b.trace(), rel=1e-12)

    def test_gibbs_upper_bound(self):
        rng = make_rng(26)
        b = random_pd(3, (0.05, 5.0), rng)
        for _ in range(100):
            x = random_pd(3, (0.05, 5.0), rng)
            assert gibbs_objective(x, b) <= b.trace() + 1e-10

    def test_gibbs_scalar_calculus_oracle(self):
        # max over x > 0 of x ln b - x ln x + x sits at x = b: grid search.
        b_val = 2.7
        b = pd(scalar(b_val))
        grid = np.linspace(0.05, 8.0, 3000)
        vals = grid * math.log(b_val) - grid * np.log(grid) + grid
        assert grid[np.argmax(vals)] == pytest.approx(b_val, abs=0.01)
        assert float(vals.max()) <= gibbs_objective(b, b) + 1e-9

    def test_phi_objective_at_closed_form_maximizer(self):
        rng = make_rng(27)
        for _ in range(10):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            a = random_pd(m, (0.05, 5.0), rng)
            L = random_hermitian(n, 1.0, rng)
            g = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            h = 0.9 * g / np.linalg.norm(g, 2)
            arg = HermitianMatrix(L.mat + h.conj().T @ matrix_log(a).mat @ h)
            x_star = matrix_exp(arg)
            val = phi_objective(x_star, a, L, h)
            target = trace_exp_functional(a, L, h)
            assert abs(val - target) <= 1e-9 * (1.0 + abs(target))

    def test_phi_objective_never_exceeds_max(self):
        rng = make_rng(28)
        a = random_pd(3, (0.05, 5.0), rng)
        L = random_hermitian(3, 1.0, rng)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = 0.8 * g / np.linalg.norm(g, 2)
        target = trace_exp_functional(a, L, h)
        for _ in range(50):
            x = random_pd(3, (0.05, 5.0), rng)
            assert phi_objective(x, a, L, h) <= target + 1e-9 * (1.0 + abs(target))


class TestRealTraceGuard:
    def test_rejects_complex_trace(self):
        with pytest.raises(NumericalInconsistency):
            _real_trace(1.0 + 1e-3j)

    def test_accepts_round_off_imaginary(self):
        assert _real_trace(2.0 + 1e-14j) == 2.0


def _h_instance(seed: int, m: int = 3, n: int = 2):
    rng = make_rng(seed)
    g = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    h = 0.9 * g / np.linalg.norm(g, 2)
    return {"A": random_pd(m, (0.1, 4.0), rng), "B": random_pd(n, (0.1, 4.0), rng),
            "L": random_hermitian(n, 1.0, rng), "X": random_pd(n, (0.1, 4.0), rng), "H": h}


# Every functional that takes a single contraction H, on one instance.
H_FUNCTIONALS = {
    "reduced_relative_entropy": lambda d, h: reduced_relative_entropy(d["A"], d["B"], h),
    "trace_exp_functional": lambda d, h: trace_exp_functional(d["A"], d["L"], h),
    "phi_objective": lambda d, h: phi_objective(d["X"], d["A"], d["L"], h),
    "lieb_trace": lambda d, h: lieb_trace(d["A"], d["B"], h, 0.3),
    "lieb_trace_derivative_at_zero":
        lambda d, h: lieb_trace_derivative_at_zero(d["A"], d["B"], h),
}
CHECKED_H_FUNCTIONALS = ("reduced_relative_entropy", "trace_exp_functional", "phi_objective")


def _svd_norm_calls(monkeypatch) -> list:
    """Count operator-norm evaluations: the package's SVD calls."""
    calls = []
    original = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


class TestValidatedContraction:
    @pytest.mark.parametrize("name", sorted(H_FUNCTIONALS))
    def test_bit_equal_to_raw_array(self, name):
        d = _h_instance(41)
        f = H_FUNCTIONALS[name]
        assert f(d, Contraction(d["H"])) == f(d, d["H"])

    @pytest.mark.parametrize("name", CHECKED_H_FUNCTIONALS)
    def test_raw_array_just_above_norm_one_rejected(self, name):
        d = _h_instance(42)
        h = d["H"] * ((1.0 + 2e-10) / np.linalg.norm(d["H"], 2))
        with pytest.raises(NotAContraction, match="operator norm 1.0000000002"):
            H_FUNCTIONALS[name](d, h)

    def test_rejected_at_construction(self):
        h = _h_instance(43)["H"]
        with pytest.raises(NotAContraction, match="operator norm 1.0000000002"):
            Contraction(h * ((1.0 + 2e-10) / np.linalg.norm(h, 2)))

    def test_shape_checked_before_norm(self):
        d = _h_instance(44)
        with pytest.raises(DimensionError):
            reduced_relative_entropy(d["A"], d["B"], 5.0 * np.ones((2, 2)))
        with pytest.raises(DimensionError):
            reduced_relative_entropy(d["A"], d["B"], Contraction(d["H"].T))

    def test_entries_are_a_read_only_copy(self):
        h = _h_instance(45)["H"]
        c = Contraction(h)
        h[0, 0] = 10.0  # the caller's array stays writable and is not shared
        assert c.mat[0, 0] != 10.0
        with pytest.raises(ValueError):
            c.mat[0, 0] = 0.0
        assert np.array_equal(c.adjoint().mat, c.mat.conj().T)

    def test_phi_objective_makes_at_most_one_svd(self, monkeypatch):
        d = _h_instance(46)
        h = Contraction(d["H"])
        calls = _svd_norm_calls(monkeypatch)
        phi_objective(d["X"], d["A"], d["L"], d["H"])
        assert len(calls) == 1  # the raw H, not its adjoint again
        phi_objective(d["X"], d["A"], d["L"], h)
        assert len(calls) == 1  # a validated H is not checked again

    def test_record_dump_is_byte_equal(self):
        d = _h_instance(47)
        raw = instance_to_json(H=d["H"], A1=d["A"], lam=0.5)
        validated = instance_to_json(H=Contraction(d["H"]), A1=d["A"], lam=0.5)
        assert json.dumps(validated, sort_keys=True) == json.dumps(raw, sort_keys=True)
        assert matrix_to_json(Contraction(d["H"])) == matrix_to_json(d["H"])


class TestCheckedBlockLift:
    def test_lifted_value_checks_no_norm_and_equals_raw_route(self, monkeypatch):
        rng = make_rng(48)
        tup = random_contraction_tuple(3, 2, 3, False, rng)
        inst = MultiInstance(L=random_hermitian(3, 1.0, rng), H=tup,
                             a_list=[random_pd(2, (0.05, 5.0), rng) for _ in range(3)])
        lift = block_lift(inst)
        calls = _svd_norm_calls(monkeypatch)
        value = lift.lifted_value()
        assert calls == []
        assert isinstance(lift.h_hat, Contraction)
        assert value == trace_exp_functional(lift.a_hat, lift.l_hat, lift.h_hat.mat)
        assert len(calls) == 1  # the raw-array route checks its norm


def _stacked_instances(seed: int, count: int = 3) -> list:
    rng = make_rng(seed)
    out = []
    for _ in range(count):
        tup = random_contraction_tuple(2, 3, 2, True, rng)
        out.append({
            "A": random_pd(3, (0.05, 5.0), rng), "B": random_pd(2, (0.05, 5.0), rng),
            "X": random_pd(2, (0.05, 5.0), rng), "L": random_hermitian(2, 1.0, rng),
            "H": Contraction(0.9 * tup.blocks[0] / np.linalg.norm(tup.blocks[0], 2)),
            "multi_a": MultiInstance(L=random_hermitian(2, 1.0, rng), H=tup,
                                     a_list=[random_pd(3, (0.05, 5.0), rng) for _ in range(2)]),
            "multi_b": MultiInstance(L=random_hermitian(2, 1.0, rng), H=tup,
                                     b_list=[random_hermitian(3, 1.0, rng) for _ in range(2)]),
        })
    return out


def _stack_instances(instances: list) -> dict:
    out = {}
    for key, first in instances[0].items():
        column = [inst[key] for inst in instances]
        if isinstance(first, MultiInstance):
            lists = "a_list" if first.a_list is not None else "b_list"
            out[key] = MultiInstance(
                L=stack([m.L for m in column]), H=stack([m.H for m in column]),
                **{lists: [stack(list(c)) for c in zip(*(getattr(m, lists) for m in column))]})
        else:
            out[key] = stack(column)
    return out


def _square(d):
    # A 3 x 3 contraction: H H* has norm at most that of H.
    h = d["H"].mat
    return Contraction(h @ h.conj().swapaxes(-1, -2))


STACKED_FUNCTIONALS = {
    "relative_entropy": lambda d: relative_entropy(d["X"], d["B"]),
    "reduced_relative_entropy": lambda d: reduced_relative_entropy(d["A"], d["A"], _square(d)),
    "lieb_trace": lambda d: lieb_trace(d["A"], d["B"], d["H"], 0.3),
    "lieb_derivative": lambda d: lieb_trace_derivative_at_zero(d["A"], d["B"], d["H"]),
    "phi": lambda d: trace_exp_functional(d["A"], d["L"], d["H"]),
    "phi_objective": lambda d: phi_objective(d["X"], d["A"], d["L"], d["H"]),
    "multi_phi": lambda d: multi_trace_exp(d["multi_a"]),
    "gt_jensen_lhs": lambda d: gt_jensen_lhs(d["multi_b"]),
    "gt_jensen_rhs": lambda d: gt_jensen_rhs(d["multi_b"]),
    "gibbs_objective": lambda d: gibbs_objective(d["X"], d["B"]),
    "block_lift": lambda d: block_lift(d["multi_a"]).lifted_value(),
}


class TestStackedValues:
    """A stack of arguments gives each entry the bits of its own 2-d call."""

    @pytest.mark.parametrize("name", sorted(STACKED_FUNCTIONALS))
    def test_stacked_values_bit_equal_to_single(self, name):
        f = STACKED_FUNCTIONALS[name]
        singles = _stacked_instances(50)
        values = f(_stack_instances(singles))
        assert isinstance(values, np.ndarray) and values.shape == (len(singles),)
        expected = [f(d) for d in singles]
        assert all(isinstance(v, float) for v in expected)
        assert values.tolist() == expected

    def test_block_lift_of_a_point_stack_shares_l_hat_and_h_hat(self):
        # A (P, T) stack of points of the A_i against one (T,) stack of L
        # and H: l_hat and h_hat keep the stack shape of L and H, and each
        # lifted value has the bits of lifting its point alone.
        singles = _stacked_instances(61)
        rng = make_rng(62)
        points = [[[random_pd(3, (0.05, 5.0), rng) for _ in range(2)] for _ in singles]
                  for _ in range(4)]
        base = _stack_instances(singles)["multi_a"]
        lift = block_lift(MultiInstance(
            L=base.L, H=base.H,
            a_list=[stack([stack([a[i] for a in per_t]) for per_t in points]) for i in range(2)]))
        assert lift.a_hat.mat.shape == (4, 3, 6, 6)
        assert lift.l_hat.mat.shape == (3, 4, 4) and lift.h_hat.mat.shape == (3, 6, 4)
        values = lift.lifted_value()
        assert values.shape == (4, 3)
        assert values.tolist() == [
            [block_lift(MultiInstance(L=d["multi_a"].L, H=d["multi_a"].H, a_list=a)).lifted_value()
             for d, a in zip(singles, per_t)] for per_t in points]

    def test_imaginary_trace_in_one_entry_raises(self):
        with pytest.raises(NumericalInconsistency):
            _real_trace(np.array([1.0 + 0j, 2.0 + 1e-3j, 3.0 + 0j]))
        assert _real_trace(np.array([1.0 + 0j, 2.0 + 1e-14j])).tolist() == [1.0, 2.0]

    def test_overflow_in_one_entry_raises(self):
        L = HermitianMatrix(np.stack([np.zeros((2, 2)), np.diag([800.0, 0.0])]))
        a = PositiveDefiniteMatrix(np.stack([np.eye(2), np.eye(2)]))
        with pytest.raises(NonFiniteObjective):
            trace_exp_functional(a, L, np.eye(2))


def _instance(family: str = "a", m: int = 2, n: int = 2) -> MultiInstance:
    tup = random_contraction_tuple(1, m, n, False, 50)
    mats = {"a_list": [random_pd(m, seed=51)]} if family == "a" else \
        {"b_list": [random_hermitian(m, 1.0, 51)]}
    return MultiInstance(L=random_hermitian(n, 1.0, 52), H=tup, **mats)


class TestTypedErrors:
    """Each argument check raises its typed error and names the cause."""

    def test_lieb_overlap_rejects_an_h_of_the_wrong_shape(self):
        a, b = random_pd(2, seed=53), random_pd(3, seed=54)
        for f in (lambda h: lieb_trace(a, b, h, 0.5),
                  lambda h: lieb_trace_derivative_at_zero(a, b, h)):
            with pytest.raises(DimensionError, match=r"H must have shape \(2, 3\), got \(3, 3\)"):
                f(np.eye(3))

    @pytest.mark.parametrize("family,entries,match", [
        ("a_list", lambda: [HermitianMatrix(np.eye(2))],
         "a_list entries must be PositiveDefiniteMatrix"),
        ("b_list", lambda: [np.eye(2)], "b_list entries must be HermitianMatrix"),
        ("a_list", lambda: [random_pd(3, seed=55)], "matrix 0 has dim 3, blocks act on dim 2"),
        ("b_list", lambda: [random_hermitian(3, 1.0, 55)],
         "matrix 0 has dim 3, blocks act on dim 2"),
    ])
    def test_multi_instance_entries_are_checked(self, family, entries, match):
        tup = random_contraction_tuple(1, 2, 2, False, 50)
        with pytest.raises(DimensionError, match=match):
            MultiInstance(L=random_hermitian(2, 1.0, 52), H=tup, **{family: entries()})

    @pytest.mark.parametrize("f,needs", [(gt_jensen_lhs, "b_list"), (gt_jensen_rhs, "b_list"),
                                         (block_lift, "a_list")])
    def test_functional_of_the_other_family_is_rejected(self, f, needs):
        with pytest.raises(DimensionError, match=f"{f.__name__} needs an instance with {needs}"):
            f(_instance("a" if needs == "b_list" else "b"))

    def test_gibbs_objective_needs_equal_dimensions(self):
        with pytest.raises(DimensionError, match="X and B must have equal dimension, got 2 and 3"):
            gibbs_objective(random_pd(2, seed=56), random_pd(3, seed=57))

    def test_phi_objective_needs_x_of_the_dimension_of_l(self):
        a, L = random_pd(3, seed=58), random_hermitian(2, 1.0, 59)
        h = 0.5 * np.ones((3, 2)) / 3.0
        with pytest.raises(DimensionError, match=r"X must have the dimension of L \(2\), got 3"):
            phi_objective(random_pd(3, seed=60), a, L, h)


# Exponents k of the scales t = 10^k: every seventh decade from 1e-300, then
# each decade above 1e300 up to 1e308, where the trace sums start to overflow.
SCALE_EXPONENTS = [*range(-300, 301, 7), *range(301, 309)]


def _scaling_instances(seed: int, n: int) -> dict:
    """eval name -> arguments whose scaling law is exact: the H of S_H and
    phi unitary, and the tuple of multi_phi isometric."""
    rng = make_rng(seed)
    a, b = random_pd(n, seed=rng), random_pd(n, seed=rng)
    u = random_contraction_tuple(1, n, n, True, rng).blocks[0]
    m = (n + 1) // 2
    tup = random_contraction_tuple(2, m, n, True, rng)
    inst = MultiInstance(L=random_hermitian(n, 1.0, rng), H=tup,
                         a_list=[random_pd(m, seed=rng) for _ in range(2)])
    return {"relative_entropy": (a, b), "reduced_relative_entropy": (a, b, u),
            "lieb_trace": (a, b, 0.5 * u, float(rng.uniform())), "lieb_derivative": (a, b, u),
            "gibbs_objective": (a, b), "phi": (a, random_hermitian(n, 1.0, rng), u),
            "multi_phi": (inst,)}


def _scaled(t: float, value):
    """t times a PD value, through the checked constructor, or an instance
    with its A_i scaled; anything else as it is.  An entry of t A that
    overflows is left infinite for the constructor to refuse."""
    if isinstance(value, MultiInstance):
        return replace(value, a_list=[_scaled(t, a) for a in value.a_list])
    if isinstance(value, PositiveDefiniteMatrix):
        with np.errstate(over="ignore"):
            return PositiveDefiniteMatrix(t * value.mat)
    return value


@pytest.fixture(scope="module")
def scaling_cases() -> list:
    """(name, arguments, value at t = 1, scale of the bound) for instances at
    n = 1 to 6; the scale is the larger of |value| and the summed traces of
    the PD arguments."""
    cases = []
    for seed, n in enumerate((1, 2, 4, 6)):
        for name, args in _scaling_instances(seed, n).items():
            value = getattr(functionals, FUNCTIONALS[name][0])(*args)
            pds = [a for arg in args for a in (arg.a_list if isinstance(arg, MultiInstance)
                                               else [arg])
                   if isinstance(a, PositiveDefiniteMatrix)]
            cases.append((name, args, value, max(abs(value), sum(a.trace() for a in pds))))
    return cases


class TestScalingLaws:
    """Scaling every PD argument by t > 0 scales each eval functional by t
    (S_H and phi with a unitary H, multi_phi with sum H_i* H_i = I).  At each
    t from 1e-300 to 1e308 a functional gives t times its value or a typed
    error, with no warning: below t ~ 1e-10 the PD floor refuses the
    arguments, and near the largest double the trace sums overflow."""

    @pytest.mark.parametrize("k", SCALE_EXPONENTS)
    def test_values_scale_with_the_pd_arguments(self, scaling_cases, k):
        t = 10.0 ** k
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, args, value, scale in scaling_cases:
                try:
                    scaled = getattr(functionals, FUNCTIONALS[name][0])(
                        *(_scaled(t, arg) for arg in args))
                except EntropyLabError:
                    # Between these scales every value is representable.
                    assert not -6 <= k <= 300, name
                    continue
                assert abs(scaled / t - value) <= 1e-9 * scale, name
