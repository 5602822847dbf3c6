import json

import numpy as np
import pytest

from entropylab import functionals as fn
from entropylab.errors import DomainError
from entropylab.serialization import matrix_from_json
from entropylab.verifiers import (
    CHECKS,
    CheckConfig,
    check_derivative_limit,
    check_gibbs_identity,
    check_gt_jensen,
    check_homogeneity,
    check_multi_concavity,
    check_phi_concavity,
    check_sh_convexity,
    gt_route_value,
    re_evaluate,
    run_all,
    run_check,
    search_gt_route_gap,
    trial_rng,
)

FAST = CheckConfig(trials=25, seed=7)


class TestConfig:
    def test_defaults_valid(self):
        cfg = CheckConfig()
        assert cfg.trials >= 1 and cfg.tol_abs > 0

    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            CheckConfig(trials=0)
        with pytest.raises(DomainError):
            CheckConfig(lambda_samples=(0.0, 0.5))
        with pytest.raises(DomainError):
            CheckConfig(dims=())
        with pytest.raises(DomainError):
            CheckConfig(eig_range=(0.0, 1.0))

    def test_trial_rng_is_pure_function_of_seed_and_index(self):
        a = trial_rng(7, 3).standard_normal(4)
        b = trial_rng(7, 3).standard_normal(4)
        c = trial_rng(7, 4).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestChecksPass:
    @pytest.mark.parametrize("name", list(CHECKS))
    def test_check_passes_on_fast_config(self, name):
        report = run_check(name, FAST)
        assert report.passed, report.violations[:2]
        assert report.trials_run == FAST.trials
        if report.semantics == "violations":
            assert report.violations == []
        else:
            assert report.violations  # witness search passes by finding some

    def test_run_all_order_and_names(self):
        reports = run_all(CheckConfig(trials=5, seed=1))
        assert [r.check_name for r in reports] == list(CHECKS)

    def test_unknown_check_rejected(self):
        with pytest.raises(DomainError):
            run_check("nope", FAST)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["sh_convexity", "gt_route_gap"])
    def test_reports_byte_identical(self, name):
        cfg = CheckConfig(trials=15, seed=42)
        first = run_check(name, cfg).to_json()
        second = run_check(name, cfg).to_json()
        assert first == second

    def test_different_seeds_differ(self):
        a = run_check("sh_convexity", CheckConfig(trials=10, seed=1)).to_json()
        b = run_check("sh_convexity", CheckConfig(trials=10, seed=2)).to_json()
        assert a != b


class TestHarnessSelfTest:
    """Each check must report violations when its functional is corrupted;
    otherwise the suite could pass vacuously."""

    def test_sh_convexity_catches_sign_flip(self):
        flipped = lambda a, b, h: -fn.reduced_relative_entropy(a, b, h)
        report = check_sh_convexity(FAST, entropy_fn=flipped)
        assert not report.passed and report.violations

    def test_phi_concavity_catches_sign_flip(self):
        flipped = lambda a, l, h: -fn.trace_exp_functional(a, l, h)
        report = check_phi_concavity(FAST, phi_fn=flipped)
        assert not report.passed and report.violations

    def test_multi_concavity_catches_sign_flip(self):
        flipped = lambda inst: -fn.multi_trace_exp(inst)
        report = check_multi_concavity(FAST, phi_fn=flipped)
        assert not report.passed and report.violations

    def test_gt_jensen_catches_sign_flip(self):
        flipped = lambda inst: -fn.gt_jensen_rhs(inst)
        report = check_gt_jensen(FAST, rhs_fn=flipped)
        assert not report.passed and report.violations

    def test_gibbs_identity_catches_sign_flip(self):
        flipped = lambda x, b: -fn.gibbs_objective(x, b)
        report = check_gibbs_identity(FAST, objective_fn=flipped)
        assert not report.passed and report.violations

    def test_derivative_limit_catches_sign_flip(self):
        flipped = lambda a, b, h: -fn.lieb_trace_derivative_at_zero(a, b, h)
        report = check_derivative_limit(FAST, derivative_fn=flipped)
        assert not report.passed and report.violations

    def test_gt_route_gap_corruption_kills_witnesses(self):
        flipped = lambda inst: -gt_route_value(inst)
        report = search_gt_route_gap(FAST, route_fn=flipped)
        assert not report.passed and not report.violations
        assert "inconclusive" in report.note

    def test_homogeneity_catches_offset(self):
        # A sign flip cannot break an identity that is linear in the
        # functional, so corrupt with a constant offset instead.
        shifted = lambda inst: fn.multi_trace_exp(inst) + 1.0
        report = check_homogeneity(FAST, phi_fn=shifted)
        assert not report.passed and report.violations


class TestErrorPropagation:
    def test_functional_errors_become_trial_failures(self):
        # Eigenvalues at 5e-11 sit below the PD construction floor, so every
        # trial fails inside the functional and is recorded with context.
        cfg = CheckConfig(trials=3, seed=0, eig_range=(5e-11, 6e-11))
        report = check_gibbs_identity(cfg)
        assert not report.passed
        assert all(v["kind"] == "error" for v in report.violations)
        assert "positive definite" in report.violations[0]["error"]

    def test_route_gap_needs_multiblock_dims(self):
        with pytest.raises(DomainError):
            search_gt_route_gap(CheckConfig(trials=5, seed=0, dims=((1, 2, 2),)))

    def test_scalar_instances_never_witness(self):
        report = search_gt_route_gap(CheckConfig(trials=50, seed=3, dims=((2, 1, 1),)))
        assert not report.passed and not report.violations


class TestWitnessSearch:
    def test_finds_reverified_witnesses(self):
        report = search_gt_route_gap(CheckConfig(trials=100, seed=7))
        assert report.passed
        assert report.semantics == "witness_search"
        for w in report.violations:
            assert w["gap"] > 0
            assert w["reverified"]
            assert abs(w["reverified_gap"] - w["gap"]) <= 1e-12

    def test_witness_records_reevaluate_exactly(self):
        report = search_gt_route_gap(CheckConfig(trials=60, seed=11))
        assert report.violations
        for w in report.violations[:5]:
            redo = re_evaluate("gt_route_gap", w)
            assert abs(redo["gap"] - w["gap"]) <= 1e-12
            assert redo["lhs"] == pytest.approx(w["lhs"], abs=1e-12)


class TestViolationDumps:
    def test_dump_round_trips_through_json(self):
        flipped = lambda a, b, h: -fn.reduced_relative_entropy(a, b, h)
        report = check_sh_convexity(CheckConfig(trials=5, seed=9), entropy_fn=flipped)
        assert report.violations
        record = report.violations[0]
        wire = json.loads(json.dumps(record))
        a1 = matrix_from_json(record["instance"]["A1"])
        a1_wire = matrix_from_json(wire["instance"]["A1"])
        assert np.array_equal(a1, a1_wire)
        # Re-evaluating with the genuine functional reproduces the gap the
        # genuine functional would have produced, bit for bit.
        redo1 = re_evaluate("sh_convexity", record)
        redo2 = re_evaluate("sh_convexity", wire)
        assert redo1["gap"] == redo2["gap"]

    @pytest.mark.parametrize("name,corrupt_kw", [
        ("sh_convexity", "entropy_fn"),
        ("phi_concavity", "phi_fn"),
        ("multi_concavity", "phi_fn"),
        ("gt_jensen", "rhs_fn"),
        ("gibbs_identity", "objective_fn"),
        ("derivative_limit", "derivative_fn"),
        ("homogeneity", "phi_fn"),
    ])
    def test_reevaluate_matches_across_checks(self, name, corrupt_kw):
        corrupted = {
            "entropy_fn": {
                "sh_convexity": lambda a, b, h: -fn.reduced_relative_entropy(a, b, h),
            },
            "phi_fn": {
                "phi_concavity": lambda a, l, h: -fn.trace_exp_functional(a, l, h),
                "multi_concavity": lambda inst: -fn.multi_trace_exp(inst),
                "homogeneity": lambda inst: fn.multi_trace_exp(inst) + 1.0,
            },
            "rhs_fn": {
                "gt_jensen": lambda inst: -fn.gt_jensen_rhs(inst),
            },
            "objective_fn": {
                "gibbs_identity": lambda x, b: -fn.gibbs_objective(x, b),
            },
            "derivative_fn": {
                "derivative_limit": lambda a, b, h: -fn.lieb_trace_derivative_at_zero(a, b, h),
            },
        }[corrupt_kw][name]
        report = CHECKS[name](CheckConfig(trials=5, seed=13), **{corrupt_kw: corrupted})
        assert report.violations
        for record in report.violations[:3]:
            if record["kind"] == "error":
                continue
            wire = json.loads(json.dumps(record))
            redo1 = re_evaluate(name, record)
            redo2 = re_evaluate(name, wire)
            assert set(redo1) == {"lhs", "rhs", "gap"}
            assert redo1["gap"] == redo2["gap"]

    def test_unknown_record_kind_rejected(self):
        report = check_gibbs_identity(CheckConfig(trials=2, seed=1),
                                      objective_fn=lambda x, b: -fn.gibbs_objective(x, b))
        record = {**report.violations[0], "kind": "bogus"}
        with pytest.raises(DomainError, match="bogus"):
            re_evaluate("gibbs_identity", record)
        with pytest.raises(DomainError, match="error"):
            re_evaluate("gibbs_identity", {"kind": "error", "trial": 0, "error": "x"})

    def test_unknown_check_rejected(self):
        with pytest.raises(DomainError, match="nope"):
            re_evaluate("nope", {"kind": "segment", "instance": {}})


class TestWitnessSearchErrors:
    def test_trial_error_becomes_record_and_fails_the_search(self):
        # At n = 8, exp of a very negative spectrum falls below the PD floor
        # in trial 19; the search records it and goes on.
        report = search_gt_route_gap(CheckConfig(trials=20, seed=7, dims=((2, 8, 8),)))
        errors = [v for v in report.violations if v["kind"] == "error"]
        witnesses = [v for v in report.violations if v["kind"] == "witness"]
        assert [e["trial"] for e in errors] == [19]
        assert "positive definite" in errors[0]["error"]
        assert witnesses and all(w["reverified"] for w in witnesses)
        assert not report.passed
        assert report.note == f"found {len(witnesses)} witnesses, 1 error records"


class TestHomogeneityCounterexample:
    def test_strict_contraction_break_is_recorded(self):
        report = check_homogeneity(CheckConfig(trials=10, seed=5))
        assert report.passed
        ce = report.extra["strict_contraction_counterexample"]
        assert ce is not None
        assert ce["gap"] > 1e-3
        redo = re_evaluate("homogeneity", ce)
        assert redo["gap"] == pytest.approx(ce["gap"], abs=1e-12)


class TestGtJensenFamilies:
    def test_families_cycle(self):
        report = check_gt_jensen(CheckConfig(trials=8, seed=21))
        assert report.passed


class TestEqualPairEndpoints:
    def test_no_violation_when_endpoints_pair_equal_arguments(self):
        # With A_i = B_i at both endpoints the mixed pair also has equal
        # arguments, so the segment inequality reduces to convexity at
        # equal arguments and can never trip.
        import numpy as np

        from entropylab.matrix_core import PositiveDefiniteMatrix, make_rng, random_pd

        rng = make_rng(33)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = 0.8 * g / np.linalg.norm(g, 2)
            a1 = random_pd(d, (0.05, 5.0), rng)
            a2 = random_pd(d, (0.05, 5.0), rng)
            s1 = fn.reduced_relative_entropy(a1, a1, h)
            s2 = fn.reduced_relative_entropy(a2, a2, h)
            for lam in (0.25, 0.5, 0.75):
                mid = PositiveDefiniteMatrix(lam * a1.mat + (1 - lam) * a2.mat)
                s_mid = fn.reduced_relative_entropy(mid, mid, h)
                combo = lam * s1 + (1 - lam) * s2
                assert s_mid <= combo + 1e-9 * (1.0 + max(abs(s_mid), abs(combo)))
