import ast
import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest
import sampling_reference as ref

from entropylab import functionals as fn
from entropylab import verifiers
from entropylab.errors import DimensionError, DomainError, NumericalInconsistency, ParseError
from entropylab.matrix_core import (
    EIG_RANGE,
    _complex,
    random_contraction_tuple,
    random_hermitian,
    random_pd,
)
from entropylab.serialization import matrix_from_json, matrix_to_json, multi_instance_to_json
from entropylab.verifiers import (
    CHECKS,
    DEFAULT_DIMS,
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
# The dims of the large check benchmark, one per run.
LARGE_DIMS = ((1, 16, 16), (2, 10, 20), (1, 24, 24), (2, 14, 28), (1, 32, 32))


class TestConfig:
    def test_defaults_valid(self):
        cfg = CheckConfig()
        assert cfg.trials >= 1 and cfg.tol_abs > 0

    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            CheckConfig(trials=0)
        with pytest.raises(DomainError):
            CheckConfig(dims=())

    def test_fixed_distribution_is_recorded_from_the_constants(self):
        # Five settings; the eigenvalue range and the mixing weights are
        # constants, and every report still records both.
        assert [f.name for f in fields(CheckConfig)] == ["trials", "seed", "dims",
                                                         "tol_abs", "tol_rel"]
        config = CheckConfig().to_dict()
        assert config["eig_range"] == [0.05, 5.0] == list(EIG_RANGE)
        assert config["lambda_samples"] == [0.25, 0.5, 0.75] == list(verifiers.LAMBDA_SAMPLES)

    def test_every_tolerance_comes_from_tol(self):
        # Each function of verifiers.py that reads a tolerance setting, by
        # attribute or by name: only _tol forms a comparison's tolerance, and
        # CheckConfig's own methods check and record the settings.
        readers = set()

        def visit(node, owner):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = f"{owner}.{node.name}" if owner else node.name
            if (isinstance(node, ast.Attribute) and node.attr in ("tol_abs", "tol_rel")
                    or isinstance(node, ast.Constant) and node.value in ("tol_abs", "tol_rel")):
                readers.add(owner)
            for child in ast.iter_child_nodes(node):
                visit(child, owner)

        with open(verifiers.__file__, encoding="utf-8") as source:
            visit(ast.parse(source.read()), None)
        assert "_tol" in readers
        assert all(r == "_tol" or r.startswith("CheckConfig.") for r in readers), readers

    def test_trial_rng_is_pure_function_of_seed_and_index(self):
        a = trial_rng(7, 3).standard_normal(4)
        b = trial_rng(7, 3).standard_normal(4)
        c = trial_rng(7, 4).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
    def test_rejects_tolerances_that_are_not_finite_and_positive(self, tol):
        # A NaN tolerance would make every comparison pass.
        with pytest.raises(DomainError, match="finite and positive"):
            CheckConfig(tol_abs=tol)
        with pytest.raises(DomainError, match="finite and positive"):
            CheckConfig(tol_rel=tol)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_rejects_seeds_outside_64_unsigned_bits(self, seed):
        with pytest.raises(DomainError, match="64 unsigned bits"):
            CheckConfig(seed=seed)
        assert CheckConfig(seed=2 ** 64 - 1, trials=1).seed == 2 ** 64 - 1


    @pytest.mark.parametrize("kwargs,field", [
        ({"trials": True}, "trials"), ({"trials": np.True_}, "trials"),
        ({"trials": 2.5}, "trials"), ({"trials": 3.0}, "trials"),
        ({"seed": True}, "seed"), ({"seed": np.False_}, "seed"), ({"seed": 1.5}, "seed"),
        ({"dims": ((1, 2.7, 2),)}, "dims entry"), ({"dims": ((1, True, 2),)}, "dims entry"),
    ])
    def test_counts_and_seeds_are_integers(self, kwargs, field):
        # A boolean counted as 0 or 1 and a float was truncated or failed
        # inside NumPy; each is now refused up front, by name.
        with pytest.raises(DomainError, match=f"{field} must be an integer, got"):
            CheckConfig(**kwargs)

    @pytest.mark.parametrize("field", ["tol_abs", "tol_rel"])
    @pytest.mark.parametrize("value", [True, np.True_])
    def test_tolerances_are_not_booleans(self, field, value):
        with pytest.raises(DomainError, match=f"{field}={value!r}"):
            CheckConfig(**{field: value})

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        # A NumPy integer setting made the report's to_json raise a TypeError.
        cfg = CheckConfig(trials=np.int64(3), seed=np.uint64(7),
                          dims=np.array([[1, 2, 2]], dtype=np.int32),
                          tol_abs=np.float64(1e-9), tol_rel=np.int64(1))
        assert (cfg.trials, cfg.seed, cfg.dims) == (3, 7, ((1, 2, 2),))
        assert {type(cfg.trials), type(cfg.seed), *map(type, cfg.dims[0])} == {int}
        assert (type(cfg.tol_abs), type(cfg.tol_rel)) == (float, int)
        report = run_check("gibbs_identity", cfg)
        assert report.to_json() == run_check("gibbs_identity", CheckConfig(
            trials=3, seed=7, dims=((1, 2, 2),), tol_rel=1)).to_json()


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

    def test_run_all_rejects_dims_before_any_check_runs(self, monkeypatch):
        # The route search, the seventh check, needs k >= 2; no group runs.
        groups = []
        genuine = verifiers._run_group
        monkeypatch.setattr(verifiers, "_run_group",
                            lambda *args: groups.append(1) or genuine(*args))
        with pytest.raises(DomainError, match="search_gt_route_gap needs .* k >= 2"):
            run_all(CheckConfig(trials=200, dims=((1, 1, 1),)))
        assert groups == []

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

    @pytest.mark.parametrize("name", list(CHECKS))
    def test_reports_do_not_depend_on_the_byte_budget(self, name, monkeypatch):
        # The budget sets only how trials and points are grouped: at 4 KiB
        # every group at n >= 16 is one trial, and at 4 MiB one group holds
        # every trial of a key and one pass every point.  The route search
        # takes only the dims with k >= 2.
        configs = [CheckConfig(trials=200, seed=7)] + [
            CheckConfig(trials=8, seed=7, dims=(kmn,)) for kmn in LARGE_DIMS
            if name != "gt_route_gap" or kmn[0] >= 2]
        reports = {}
        for budget in (1 << 12, verifiers.BLOCK_BYTES, 1 << 22):
            monkeypatch.setattr(verifiers, "BLOCK_BYTES", budget)
            reports[budget] = [run_check(name, cfg).to_json() for cfg in configs]
        first, *rest = reports.values()
        assert all(r == first for r in rest)

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
    def test_functional_errors_become_trial_failures(self, monkeypatch):
        # Eigenvalues at 5e-11 sit below the PD construction floor, so every
        # trial fails inside the functional and is recorded with context.
        monkeypatch.setattr(verifiers, "EIG_RANGE", (5e-11, 6e-11))
        report = check_gibbs_identity(CheckConfig(trials=3, seed=0))
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

    @pytest.mark.parametrize("record", [[], "segment", None, 3.5])
    def test_record_that_is_not_an_object_is_a_parse_error(self, record):
        with pytest.raises(ParseError, match="record: expected a JSON object"):
            re_evaluate("sh_convexity", record)

    def test_instance_that_is_a_list_is_a_parse_error(self):
        record = check_gibbs_identity(CheckConfig(trials=2, seed=1),
                                      objective_fn=lambda x, b: -fn.gibbs_objective(x, b)
                                      ).violations[0]
        with pytest.raises(ParseError, match="^instance: expected a JSON object, got list$"):
            re_evaluate("gibbs_identity", {**record, "instance": [record["instance"]] * 2})

    def test_record_without_instance_is_a_parse_error(self):
        with pytest.raises(ParseError, match="record: missing required key 'instance'"):
            re_evaluate("sh_convexity", {"kind": "segment", "trial": 0})

    @pytest.mark.parametrize("name,kind,missing", [
        ("sh_convexity", "segment", "H"),
        ("phi_concavity", "segment", "L"),
        ("gibbs_identity", "bound", "B"),
        ("derivative_limit", "above_scale", "A"),
    ])
    def test_instance_without_a_compared_key_is_a_parse_error(self, name, kind, missing):
        with pytest.raises(ParseError, match=f"missing key '{missing}'"):
            re_evaluate(name, {"kind": kind, "instance": {}})

    def test_dump_missing_one_compared_key_is_a_parse_error(self):
        record = check_sh_convexity(CheckConfig(trials=2, seed=1),
                                    entropy_fn=lambda a, b, h: -fn.reduced_relative_entropy(
                                        a, b, h)).violations[0]
        assert set(re_evaluate("sh_convexity", record)) == {"lhs", "rhs", "gap"}
        instance = {k: v for k, v in record["instance"].items() if k != "B2"}
        with pytest.raises(ParseError, match="missing key 'B2'"):
            re_evaluate("sh_convexity", {**record, "instance": instance})


    @staticmethod
    def _segment_record(name):
        negated = {
            "sh_convexity": {"entropy_fn": lambda a, b, h: -fn.reduced_relative_entropy(a, b, h)},
            "phi_concavity": {"phi_fn": lambda a, l, h: -fn.trace_exp_functional(a, l, h)},
            "multi_concavity": {"phi_fn": lambda inst: -fn.multi_trace_exp(inst)},
        }[name]
        report = CHECKS[name](CheckConfig(trials=2, seed=1), **negated)
        return next(r for r in report.violations if r["kind"] == "segment")

    @pytest.mark.parametrize("name,key,value,shapes", [
        ("sh_convexity", "B1", lambda inst: matrix_to_json(random_pd(3, seed=0)),
         "B1 (3, 3), B2 (2, 2)"),
        ("phi_concavity", "A2", lambda inst: matrix_to_json(random_pd(5, seed=0)),
         "A1 (2, 2), A2 (5, 5)"),
        ("multi_concavity", "A2", lambda inst: inst["A2"][:1],
         "A [(2, 2), (2, 2)], A2 [(2, 2)]"),
    ])
    def test_segment_ends_of_different_shapes_are_a_dimension_error(self, name, key, value,
                                                                    shapes):
        record = self._segment_record(name)
        assert set(re_evaluate(name, record)) == {"lhs", "rhs", "gap"}
        instance = {**record["instance"], key: value(record["instance"])}
        with pytest.raises(DimensionError,
                           match=re.escape(f"segment ends differ in shape: {shapes}")):
            re_evaluate(name, {**record, "instance": instance})

    @pytest.mark.parametrize("name", ["sh_convexity", "phi_concavity", "multi_concavity"])
    @pytest.mark.parametrize("lam", [2.0, 0.0, 1.0, -0.5, [0.5, 1.5], "nan"])
    def test_segment_weight_outside_the_unit_interval_is_a_parse_error(self, name, lam):
        record = self._segment_record(name)
        with pytest.raises(ParseError, match="key 'lam': weights must lie in"):
            re_evaluate(name, {**record, "instance": {**record["instance"], "lam": lam}})


class TestWitnessSearchErrors:
    def test_trial_error_becomes_record_and_fails_the_search(self):
        # The route hook raises in trial 19; the search records it and goes on.
        cfg = CheckConfig(trials=20, seed=7, dims=((2, 8, 8),))
        report = search_gt_route_gap(cfg, route_fn=ref.route_raising_on(cfg, [19]))
        errors = [v for v in report.violations if v["kind"] == "error"]
        witnesses = [v for v in report.violations if v["kind"] == "witness"]
        assert [e["trial"] for e in errors] == [19]
        assert errors[0]["error"] == "a chosen trial"
        assert witnesses and all(w["reverified"] for w in witnesses)
        assert not report.passed
        assert report.note == f"found {len(witnesses)} witnesses, 1 error records"


def _lapack_failing_on(monkeypatch, name, chosen):
    """Patch ``np.linalg.<name>`` to raise LAPACK's LinAlgError on any
    stack that holds the matrix ``chosen``."""
    genuine = getattr(np.linalg, name)

    def patched(a, *args, **kwargs):
        mats = np.reshape(a, (-1,) + np.shape(a)[-2:])
        if any(np.array_equal(m, chosen) for m in mats):
            raise np.linalg.LinAlgError("did not converge")
        return genuine(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, patched)


class TestLapackFailures:
    """A LinAlgError from an unguarded LAPACK call of a build is a
    ConvergenceFailure: it becomes the error record of the trials whose
    stack raised, and the other trials' results do not change."""

    _ROUTE_CFG = CheckConfig(trials=20, seed=7, dims=((2, 4, 4),))

    @staticmethod
    def _probe_input(monkeypatch, cfg) -> np.ndarray:
        """The matrix whose top eigenvector is trial 5's probe direction, as
        the reference sampler symmetrizes it: HermitianMatrix gives the
        checked eigh of _build_route the same bits."""
        spec = verifiers._SPECS["gt_route_gap"]
        seen = []
        genuine = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(a) or genuine(a))
        ref.sample(spec, trial_rng(cfg.seed, 5), spec.dims(cfg), 5)
        monkeypatch.setattr(np.linalg, "eigh", genuine)
        return seen[-1]

    def _assert_only_trial_5_fails(self, base, report, error):
        assert [r for r in report.violations if r["trial"] == 5] == [
            {"kind": "error", "trial": 5, "error": error}]
        assert [r for r in report.violations if r["trial"] != 5] == [
            r for r in base.violations if r["trial"] != 5]
        assert base.passed and not report.passed

    def test_route_probe_eigh(self, monkeypatch):
        cfg = self._ROUTE_CFG
        base = search_gt_route_gap(cfg)
        _lapack_failing_on(monkeypatch, "eigh", self._probe_input(monkeypatch, cfg))
        self._assert_only_trial_5_fails(base, search_gt_route_gap(cfg),
                                        "eigensolver failed: did not converge")

    def test_route_probe_eigenvectors_are_checked(self, monkeypatch):
        # The probe runs the unitarity check of every other decomposition.
        cfg = self._ROUTE_CFG
        base = search_gt_route_gap(cfg)
        chosen = self._probe_input(monkeypatch, cfg)
        genuine = np.linalg.eigh

        def doubled(a):
            w, u = genuine(a)
            mats = np.reshape(a, (-1,) + a.shape[-2:])
            return (w, 2.0 * u) if any(np.array_equal(m, chosen) for m in mats) else (w, u)

        monkeypatch.setattr(np.linalg, "eigh", doubled)
        self._assert_only_trial_5_fails(base, search_gt_route_gap(cfg),
                                        "eigenvector matrix is not unitary: deviation 3.000e+00")

    def test_contraction_norm_svd(self, monkeypatch):
        cfg = CheckConfig(trials=30, seed=5)
        spec = verifiers._SPECS["sh_convexity"]
        gaussian = _complex(_draws(spec, cfg)[7]["H"][0])
        # Only operator_norm runs the SVD of this Gaussian.
        _lapack_failing_on(monkeypatch, "svd", gaussian)
        report = check_sh_convexity(cfg)
        assert report.violations == [{
            "kind": "error", "trial": 7,
            "error": "singular value decomposition failed: did not converge"}]
        funcs = spec.functionals()
        others = [ref.trial_alone(spec, cfg, funcs, t) for t in range(cfg.trials) if t != 7]
        assert all(records == [] for records, _ in others)
        assert report.worst_gap == max(g for _, gaps in others for g in gaps)


class TestHomogeneityCounterexample:
    def test_strict_contraction_break_is_recorded(self):
        report = check_homogeneity(CheckConfig(trials=10, seed=5))
        assert report.passed
        ce = report.extra["strict_contraction_counterexample"]
        assert ce is not None
        assert ce["gap"] > 1e-3
        redo = re_evaluate("homogeneity", ce)
        assert redo["gap"] == pytest.approx(ce["gap"], abs=1e-12)

    @pytest.mark.parametrize("dims", [None, *LARGE_DIMS])
    @pytest.mark.parametrize("seed", [7, 1, 5])
    def test_counterexample_equals_the_reference_search(self, seed, dims):
        # The search runs through the run loop, one attempt at a time, and
        # finds what sampling each attempt alone finds, to the bit.
        cfg = (CheckConfig(trials=200, seed=seed) if dims is None
               else CheckConfig(trials=8, seed=seed, dims=(dims,)))
        extra = check_homogeneity(cfg).extra
        expected = ref.strict_contraction_break(cfg, fn.multi_trace_exp,
                                                verifiers._isometric_dims(cfg))
        assert extra["strict_contraction_counterexample"] is not None
        assert json.dumps(extra, sort_keys=True) == json.dumps(
            {"strict_contraction_counterexample": expected}, sort_keys=True)

    def test_an_attempt_that_raises_leaves_an_error_record(self):
        # The hook raises on attempt 0's instance; the search records it,
        # takes its counterexample from attempt 1, and the check fails.
        cfg = CheckConfig(trials=10, seed=5)
        spec = verifiers._SPECS["homogeneity"]
        chosen = ref.sample(spec, trial_rng(cfg.seed, cfg.trials), spec.dims(cfg),
                            cfg.trials)["inst"].L.mat

        def phi(inst):
            mats = inst.L.mat.reshape((-1,) + inst.L.mat.shape[-2:])
            if any(np.array_equal(m, chosen) for m in mats):
                raise NumericalInconsistency("attempt 0")
            return fn.multi_trace_exp(inst)

        report = check_homogeneity(cfg, phi_fn=phi)
        assert report.violations == [{"kind": "error", "trial": cfg.trials, "error": "attempt 0"}]
        ce = report.extra["strict_contraction_counterexample"]
        assert ce["attempt"] == 1 and ce["gap"] > verifiers.HOMOGENEITY_BREAK_MIN
        assert ce == ref.strict_contraction_break(cfg, phi, spec.dims(cfg))
        assert report.passed is False

    def test_a_break_below_the_minimum_is_no_counterexample(self):
        # For the strict tuples the hook returns Tr A + 1e-5, which breaks
        # homogeneity by 1e-5 |1 - t|: beyond the check's tolerance, but not
        # by HOMOGENEITY_BREAK_MIN, so every attempt runs and none counts.
        def phi(inst):
            if inst.H.sum_is_identity:
                return fn.multi_trace_exp(inst)
            return np.trace(inst.a_list[0].mat, axis1=-2, axis2=-1).real + 1e-5

        report = check_homogeneity(CheckConfig(trials=10, seed=5), phi_fn=phi)
        assert [v["kind"] for v in report.violations] == ["counterexample_missing"]
        assert report.extra == {"strict_contraction_counterexample": None}
        assert not report.passed

    @pytest.mark.parametrize("dims", [(2, 2, 2), (1, 32, 32)])
    def test_a_breaking_attempt_dumps_one_record(self, dims):
        # Its comparisons end at its first break, so the search dumps the
        # instance once, not once per breaking scale.
        cfg = CheckConfig(trials=1, seed=7, dims=(dims,))
        records = verifiers._run(verifiers._STRICT_BREAK, cfg, first=8).violations
        assert [r["kind"] for r in records] == ["identity"]
        assert records[0]["gap"] > verifiers.HOMOGENEITY_BREAK_MIN

    def test_the_hook_gets_point_by_trial_stacks_only(self):
        # In the check's trials and in the search alike, phi_fn receives A_i
        # as (P, T, m, m) stacks of the points of each trial.
        seen = []

        def phi(inst):
            seen.append((inst.H.sum_is_identity, {a.mat.ndim for a in inst.a_list}))
            return fn.multi_trace_exp(inst)

        assert check_homogeneity(CheckConfig(trials=10, seed=5), phi_fn=phi).passed
        assert {identity for identity, _ in seen} == {True, False}
        assert all(ndims == {4} for _, ndims in seen)


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


def _count_substreams(monkeypatch) -> list:
    """The trial index of every substream that a check draws from, in the
    order drawn: each trial that the run loop's seeding yields, and each
    ``trial_rng`` call."""
    calls = []
    substreams = verifiers._substreams

    def counted(seed, first, count):
        for t, rng in substreams(seed, first, count):
            calls.append(t)
            yield t, rng

    monkeypatch.setattr(verifiers, "_substreams", counted)
    monkeypatch.setattr(verifiers, "trial_rng",
                        lambda seed, t: calls.append(t) or trial_rng(seed, t))
    return calls


class TestBatchedEngine:
    """Same-signature groups of trials run as stacks, and the report keeps
    the bytes of running every trial alone through the 2-d comparisons."""

    @pytest.mark.parametrize("size", ["small", "large", "two_word_seed"])
    @pytest.mark.parametrize("name", list(CHECKS))
    def test_report_equals_every_trial_alone(self, name, size, monkeypatch):
        if size == "small":
            cfg = CheckConfig(trials=40, seed=5)
        elif size == "two_word_seed":  # the seed's entropy takes two 32-bit words
            cfg = CheckConfig(trials=40, seed=2 ** 64 - 1)
        else:
            cfg = CheckConfig(trials=4, seed=5,
                              dims=((2, 8, 8),) if name == "gt_route_gap" else ((2, 14, 28),))
        drawn = _count_substreams(monkeypatch)
        batched = run_check(name, cfg)
        # Each trial is drawn once (homogeneity's counterexample search draws
        # its attempts after the trials).
        assert [t for t in drawn if t < cfg.trials] == list(range(cfg.trials))
        monkeypatch.setattr(verifiers, "_run_group", ref.every_trial_alone)
        assert run_check(name, cfg).to_json() == batched.to_json()

    def test_error_in_one_stack_entry_stays_with_its_trial(self):
        cfg = CheckConfig(trials=30, seed=5)
        spec = verifiers._SPECS["phi_concavity"]
        dims = spec.dims(cfg)
        chosen = ref.sample(spec, trial_rng(cfg.seed, 7), dims, 7)["L"].mat

        def phi(a, L, h):
            if L.mat.shape[-2:] == chosen.shape and np.all(L.mat == chosen, axis=(-2, -1)).any():
                raise NumericalInconsistency("the chosen trial")
            return fn.trace_exp_functional(a, L, h)

        report = check_phi_concavity(cfg, phi_fn=phi)
        assert report.violations == [{"kind": "error", "trial": 7, "error": "the chosen trial"}]
        funcs = spec.functionals()
        others = [ref.trial_alone(spec, cfg, funcs, t) for t in range(cfg.trials) if t != 7]
        assert all(records == [] for records, _ in others)
        assert report.worst_gap == max(g for _, gaps in others for g in gaps)

    def test_raise_after_a_breach_keeps_the_trial_records(self, monkeypatch):
        # Every trial breaches the bound, the chosen one by the most; its
        # hook raises on its later equality comparison.  The trial keeps its
        # bound record and gap, then gets its error record, as it does alone.
        cfg = CheckConfig(trials=30, seed=5)
        spec = verifiers._SPECS["gibbs_identity"]
        chosen = ref.sample(spec, trial_rng(cfg.seed, 7), spec.dims(cfg), 7)["B"].mat

        def objective(x, b):
            mine = (np.all(b.mat == chosen, axis=(-2, -1))
                    if b.mat.shape[-2:] == chosen.shape else False)
            if x is b and np.any(mine):
                raise NumericalInconsistency("the chosen trial")
            return fn.gibbs_objective(x, b) + 1e6 * (1.0 + mine)

        report = check_gibbs_identity(cfg, objective_fn=objective)
        kinds = [(r["trial"], r["kind"]) for r in report.violations]
        assert kinds == [(t, kind) for t in range(cfg.trials)
                         for kind in (("bound", "error") if t == 7 else ("bound", "equality"))]
        assert report.violations[15]["error"] == "the chosen trial"
        assert report.worst_gap == report.violations[14]["gap"] > 1.5e6
        monkeypatch.setattr(verifiers, "_run_group", ref.every_trial_alone)
        assert check_gibbs_identity(cfg, objective_fn=objective).to_json() == report.to_json()

    def test_stacks_stay_within_the_byte_budget(self, monkeypatch):
        seen = []
        eigh = np.linalg.eigh

        def sized(a):
            seen.append(a.nbytes)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", sized)
        report = check_phi_concavity(CheckConfig(trials=400, dims=((1, 32, 32),)))
        assert report.passed
        assert 32 * 32 * 16 < max(seen) <= verifiers.BLOCK_BYTES


class TestPointPasses:
    """A segment check evaluates its functional once per pass over the
    points of a group (the ends and then each weight, or the base and then
    each scale), with every stack of a pass within the byte budget."""

    @pytest.mark.parametrize("name", ["sh_convexity", "multi_concavity", "homogeneity"])
    def test_point_passes_stay_within_the_byte_budget(self, name, monkeypatch):
        # A multiple of the group cap at n = 32, plus one, leaves a group of
        # one trial, whose passes hold several points.  The mixes of a
        # segment are decomposed (eigh); the scales of homogeneity keep their
        # spectra, and its passes show in the eigenvalues of each Tr exp
        # argument (eigvalsh).
        seen = []
        lapack = "eigvalsh" if name == "homogeneity" else "eigh"
        solver = getattr(np.linalg, lapack)

        def sized(a):
            seen.append(a.shape)
            return solver(a)

        monkeypatch.setattr(np.linalg, lapack, sized)
        trials = 5 * verifiers._group_cap(verifiers._SPECS[name], (1, 32, 32)) + 1
        report = run_check(name, CheckConfig(trials=trials, dims=((1, 32, 32),)))
        assert report.passed
        itemsize = np.dtype(np.complex128).itemsize
        assert 32 * 32 * itemsize < max(np.prod(s) * itemsize for s in seen) <= verifiers.BLOCK_BYTES
        assert any(len(s) == 4 and s[0] > 1 for s in seen)

    def test_few_passes_per_group_at_small_dims(self, monkeypatch):
        # One pass per point made 84 multi_trace_exp calls (six per group)
        # and 18 reduced_relative_entropy calls here.
        cfg = CheckConfig(trials=200, seed=7)
        counts = {"multi_trace_exp": 0, "reduced_relative_entropy": 0}
        for name in counts:
            def counting(*args, _f=getattr(fn, name), _name=name):
                counts[_name] += 1
                return _f(*args)
            monkeypatch.setattr(fn, name, counting)
        assert check_multi_concavity(cfg).passed and check_sh_convexity(cfg).passed
        groups = _groups(verifiers._SPECS["multi_concavity"], cfg)
        assert counts["multi_trace_exp"] <= 2 * len(groups) == 14
        assert counts["reduced_relative_entropy"] <= 9

    @pytest.mark.parametrize("name,corrupt_kw,corrupted", [
        ("sh_convexity", "entropy_fn", lambda a, b, h: -fn.reduced_relative_entropy(a, b, h)),
        ("phi_concavity", "phi_fn", lambda a, l, h: -fn.trace_exp_functional(a, l, h)),
        ("multi_concavity", "phi_fn", lambda inst: -fn.multi_trace_exp(inst)),
        ("homogeneity", "phi_fn", lambda inst: fn.multi_trace_exp(inst) + 1.0),
    ])
    def test_reevaluate_of_a_segment_record_returns_floats(self, name, corrupt_kw, corrupted):
        report = CHECKS[name](CheckConfig(trials=5, seed=13), **{corrupt_kw: corrupted})
        records = [r for r in report.violations if r["kind"] != "error"]
        assert {r["kind"] for r in records} == set(verifiers._SPECS[name].kinds)
        for record in records:
            redo = re_evaluate(name, json.loads(json.dumps(record)))
            assert [type(v) for v in redo.values()] == [float] * 3

    def test_raise_in_a_point_pass_leaves_the_trial_its_error_record(self, monkeypatch):
        # The hook raises on the chosen trial's mix at its third weight.  That
        # pass also holds the trial's ends and other weights, so the trial
        # keeps no gap and gets only its error record, as it does alone.
        cfg = CheckConfig(trials=30, seed=5)
        spec = verifiers._SPECS["phi_concavity"]
        chosen = ref.sample(spec, trial_rng(cfg.seed, 7), spec.dims(cfg), 7)
        mix = verifiers._mix(chosen["lam"][2], chosen["A1"], chosen["A2"]).mat

        def phi(a, L, h):
            if a.mat.shape[-2:] == mix.shape and np.all(a.mat == mix, axis=(-2, -1)).any():
                raise NumericalInconsistency("the chosen point")
            return fn.trace_exp_functional(a, L, h)

        error = {"kind": "error", "trial": 7, "error": "the chosen point"}
        report = check_phi_concavity(cfg, phi_fn=phi)
        assert report.violations == [error]
        assert ref.trial_alone(spec, cfg, {"phi": phi}, 7) == ([error], [])
        others = [ref.trial_alone(spec, cfg, spec.functionals(), t)
                  for t in range(cfg.trials) if t != 7]
        assert report.worst_gap == max(g for _, gaps in others for g in gaps)
        monkeypatch.setattr(verifiers, "_run_group", ref.every_trial_alone)
        assert check_phi_concavity(cfg, phi_fn=phi).to_json() == report.to_json()


def _sizes(name: str) -> dict:
    return {"small": CheckConfig(trials=40, seed=5),
            "large": CheckConfig(trials=4, seed=5,
                                 dims=((2, 8, 8),) if name == "gt_route_gap" else ((2, 14, 28),))}


def _draws(spec, cfg: CheckConfig) -> dict:
    """{trial: draw} for every trial of a run, drawn as the run loop draws."""
    dims = spec.dims(cfg)
    draws = {}
    for t in range(cfg.trials):
        rng = trial_rng(cfg.seed, t)
        draws[t] = spec.draw(rng, verifiers._pick_dims(rng, dims), t)
    return draws


def _groups(spec, cfg: CheckConfig) -> dict:
    """{key: trials} of the draws of a run, keyed as the run loop keys them."""
    dims = spec.dims(cfg)
    groups = {}
    for t in range(cfg.trials):
        rng = trial_rng(cfg.seed, t)
        kmn = verifiers._pick_dims(rng, dims)
        groups.setdefault(spec.key(kmn, spec.draw(rng, kmn, t)), []).append(t)
    return groups


class TestStackedSampling:
    """Each trial is drawn alone and each same-signature group is built as
    one stack; every entry keeps the bits of sampling its trial alone."""

    @pytest.mark.parametrize("size", ["small", "large"])
    @pytest.mark.parametrize("name", list(CHECKS))
    def test_built_stacks_slice_to_each_sample(self, name, size):
        cfg = _sizes(name)[size]
        spec = verifiers._SPECS[name]
        dims = spec.dims(cfg)
        draws = _draws(spec, cfg)
        groups = _groups(spec, cfg)
        if size == "small":
            assert max(map(len, groups.values())) > 1
        for group in groups.values():
            built = spec.build(verifiers._stacked([draws[t] for t in group]))
            for i, t in enumerate(group):
                alone = ref.sample(spec, trial_rng(cfg.seed, t), dims, t)
                ref.assert_same(alone, ref.SAMPLERS[name](trial_rng(cfg.seed, t), dims, t))
                ref.assert_same(verifiers._slice(built, i), alone)

    @pytest.mark.parametrize("size", ["small", "large", "mixed"])
    @pytest.mark.parametrize("name", list(CHECKS))
    def test_keys_group_as_the_shape_walk(self, name, size):
        # A draw's key (its dims and family) splits a run into the groups of
        # the shapes of every array and field of the draws.
        mixed = CheckConfig(trials=120, seed=3,
                            dims=((1, 2, 2), (2, 2, 2), (1, 3, 3), (2, 2, 4), (3, 2, 4), (1, 4, 2)))
        cfg = {**_sizes(name), "mixed": mixed}[size]
        spec = verifiers._SPECS[name]
        by_shape = {}
        for t, d in _draws(spec, cfg).items():
            by_shape.setdefault(ref.signature(d), []).append(t)
        assert sorted(_groups(spec, cfg).values()) == sorted(by_shape.values())

    def test_failing_group_splits_in_halves(self, monkeypatch):
        # Trials 19, 20 and 30 raise in their group's stack (a hook on the
        # route value); the group is split in halves down to stacks of one,
        # and no trial is drawn again.
        cfg = CheckConfig(trials=200, seed=7, dims=((2, 8, 8),))
        route = ref.route_raising_on(cfg, [19, 20, 30])
        spec = verifiers._SPECS["gt_route_gap"]
        built = []

        def build(draws):
            built.append(len(draws["alpha"]))
            return spec.build(draws)

        monkeypatch.setitem(verifiers._SPECS, "gt_route_gap", replace(spec, build=build))
        drawn = _count_substreams(monkeypatch)
        report = search_gt_route_gap(cfg, route_fn=route)
        errors = [v["trial"] for v in report.violations if v["kind"] == "error"]
        witnesses = [v["trial"] for v in report.violations if v["kind"] == "witness"]
        assert errors == [19, 20, 30] and len(witnesses) == 113
        assert drawn == list(range(200))
        # Groups of as many trials as fill the byte budget at n = 8; only a
        # part that holds a raising trial is split again, into its halves.
        cap = verifiers._group_cap(spec, (2, 8, 8))
        expected, parts = [], [list(range(t, min(t + cap, 200))) for t in range(0, 200, cap)]
        while parts:
            part = parts.pop()
            expected.append(len(part))
            if len(part) > 1 and {19, 20, 30} & set(part):
                parts += [part[:len(part) // 2], part[len(part) // 2:]]
        assert cap == verifiers.BLOCK_BYTES // (8 * 8 * 16) and sorted(built) == sorted(expected)


def _field_by_field(build, fields, *args):
    """``verifiers._fused`` as one builder call per field."""
    return [build(*(f if isinstance(f, tuple) else (f,)), *args) for f in fields]


class TestFusedBuilds:
    """A build makes one builder call per shape: a group's same-shape fields
    are built as one stack within the byte budget, and each value is the
    one that its own build makes."""

    @pytest.mark.parametrize("budget", ["default", "4KiB"])
    @pytest.mark.parametrize("size", ["small", "large"])
    @pytest.mark.parametrize("name", list(CHECKS))
    def test_fused_build_equals_the_builds_field_by_field(self, name, size, budget,
                                                          monkeypatch):
        if budget == "4KiB":
            monkeypatch.setattr(verifiers, "BLOCK_BYTES", 1 << 12)
        cfg = _sizes(name)[size]
        spec = verifiers._SPECS[name]
        draws = _draws(spec, cfg)
        groups = list(_groups(spec, cfg).values())
        fused = [spec.build(verifiers._stacked([draws[t] for t in g])) for g in groups]
        monkeypatch.setattr(verifiers, "_fused", _field_by_field)
        for g, built in zip(groups, fused):
            alone = spec.build(verifiers._stacked([draws[t] for t in g]))
            for i in range(len(g)):
                # mat, kept spectrum or its absence and min_eigenvalue, bit for bit
                ref.assert_same(verifiers._slice(built, i), verifiers._slice(alone, i))

    @pytest.mark.parametrize("budget", [None, 1 << 12])
    def test_fused_stacks_stay_within_the_byte_budget(self, budget, monkeypatch):
        if budget:
            monkeypatch.setattr(verifiers, "BLOCK_BYTES", budget)
        fused = []  # (fields, bytes) of each fused builder call

        def recording(build, arg):
            def recorded(*args):
                value = args[arg]
                a = getattr(value, "mat", value)
                if a.ndim == (4 if a is not value else 5):  # a field axis before the trials
                    fused.append((a.shape[0], a.nbytes))
                return build(*args)
            return recorded

        monkeypatch.setattr(verifiers, "_build_pd", recording(verifiers._build_pd, 1))
        monkeypatch.setattr(verifiers, "_build_hermitian",
                            recording(verifiers._build_hermitian, 0))
        monkeypatch.setattr(verifiers, "matrix_exp", recording(verifiers.matrix_exp, 0))
        for name in CHECKS:
            assert run_check(name, CheckConfig(trials=200, seed=7)).passed
        for dims in LARGE_DIMS:
            cfg = CheckConfig(trials=8, seed=7, dims=(dims,))
            for name in CHECKS:
                if name != "gt_route_gap":
                    run_check(name, cfg)
        assert fused and all(n > 1 for n, _ in fused)
        assert max(size for _, size in fused) <= verifiers.BLOCK_BYTES

    def test_no_field_fuses_where_one_fills_the_budget(self, monkeypatch):
        calls = []
        genuine = verifiers._stacked
        monkeypatch.setattr(verifiers, "_stacked",
                            lambda values, *join: calls.append(len(values)) or genuine(values, *join))
        for name in ("sh_convexity", "gibbs_identity", "homogeneity"):
            run_check(name, CheckConfig(trials=8, seed=7, dims=((1, 32, 32),)))
        # Only the draws of each group, and the points of each pass, are stacked.
        assert set(calls) <= {1, 8}

    def test_a_failing_field_is_rebuilt_field_by_field(self, monkeypatch):
        # The third field of trial 7 (its A2) fails to build: the fused call
        # of the four PD fields raises, and the fields are built one by one,
        # so the error is the one that the failing field's own build raises.
        cfg = CheckConfig(trials=30, seed=5)
        spec = verifiers._SPECS["sh_convexity"]
        draws = _draws(spec, cfg)
        chosen = draws[7]["A2"][1]
        built = []
        genuine = verifiers._build_pd

        def build_pd(w, g):
            built.append(g.size // chosen.size)
            if g.shape[-3:] == chosen.shape and np.all(g == chosen, axis=(-3, -2, -1)).any():
                raise DomainError(f"a stack of {g.size // chosen.size} matrices holds the draw")
            return genuine(w, g)

        monkeypatch.setattr(verifiers, "_build_pd", build_pd)
        group = next(g for g in _groups(spec, cfg).values() if 7 in g)
        with pytest.raises(DomainError, match=f"^a stack of {len(group)} matrices"):
            spec.build(verifiers._stacked([draws[t] for t in group]))
        assert built == [4 * len(group)] + [len(group)] * 3
        report = check_sh_convexity(cfg)
        assert report.violations == [
            {"kind": "error", "trial": 7, "error": "a stack of 1 matrices holds the draw"}]
        monkeypatch.setattr(verifiers, "_run_group", ref.every_trial_alone)
        assert check_sh_convexity(cfg).to_json() == report.to_json()


class TestWholeRunGroups:
    """Each signature is built and compared once per run, within the byte
    budget of its own dims, and witnesses are re-verified in stacks."""

    def _count_compares(self, monkeypatch, name: str) -> list:
        spec = verifiers._SPECS[name]
        calls = []

        def counting(inst, cfg, funcs):
            calls.append(inst)
            return spec.compare(inst, cfg, funcs)

        monkeypatch.setitem(verifiers._SPECS, name, replace(spec, compare=counting))
        return calls

    def test_one_stacked_compare_per_signature(self, monkeypatch):
        cfg = CheckConfig(trials=200, seed=7)
        calls = self._count_compares(monkeypatch, "multi_concavity")
        report = check_multi_concavity(cfg)
        assert report.passed
        assert len(calls) == len(_groups(verifiers._SPECS["multi_concavity"], cfg)) == 7

    @pytest.mark.parametrize("seed", [7, 1])
    @pytest.mark.parametrize("name,hook", [
        ("multi_concavity", {"phi_fn": lambda inst: fn.multi_trace_exp(inst) ** 1.5}),
        ("gt_jensen", {"rhs_fn": lambda inst: 0.5 * fn.gt_jensen_rhs(inst)}),
    ])
    def test_mixed_groups_record_as_every_trial_alone(self, name, hook, seed, monkeypatch):
        # One group holds isometric and strict tuples (multi_concavity), or
        # the general and Jensen families (gt_jensen); a corrupted hook makes
        # records of both, each with its own kind and sum_is_identity.
        cfg = CheckConfig(trials=200, seed=seed)
        spec = verifiers._SPECS[name]
        draws = _draws(spec, cfg)
        labels = ({t: d["H"][-1] == 1.0 for t, d in draws.items()} if name == "multi_concavity"
                  else {t: d["kind"] for t, d in draws.items()})
        assert any(len({labels[t] for t in g}) > 1 for g in _groups(spec, cfg).values())
        batched = CHECKS[name](cfg, **hook)
        records = [r for r in batched.violations if r["kind"] != "error"]
        if name == "multi_concavity":
            assert {r["instance"]["sum_is_identity"] for r in records} == {True, False}
        else:
            assert {"general", "jensen"} <= {r["kind"] for r in records}
        monkeypatch.setattr(verifiers, "_run_group", ref.every_trial_alone)
        alone = CHECKS[name](cfg, **hook)
        assert alone.violations == batched.violations  # record for record
        assert alone.to_json() == batched.to_json()

    def test_one_overlap_per_derivative_group(self, monkeypatch):
        # U_A* H U_B is computed once for the Lieb traces at p = 0 and at
        # each step of P_GRID, and once by the derivative under test.
        cfg = CheckConfig(trials=200, seed=7)
        groups = _groups(verifiers._SPECS["derivative_limit"], cfg)
        calls = []
        overlap = fn._basis_overlap
        monkeypatch.setattr(fn, "_basis_overlap",
                            lambda *args: calls.append(args) or overlap(*args))
        assert check_derivative_limit(cfg).passed
        assert len(calls) == 2 * len(groups) == 6

    def test_route_search_runs_no_trial_alone(self, monkeypatch):
        # One pass per signature, plus one stacked re-verification per
        # group that holds witnesses; each trial is drawn once.
        cfg = CheckConfig(trials=200, seed=7)
        spec = verifiers._SPECS["gt_route_gap"]
        groups = _groups(spec, cfg)
        calls = self._count_compares(monkeypatch, "gt_route_gap")
        drawn = _count_substreams(monkeypatch)
        report = search_gt_route_gap(cfg)
        witnesses = {w["trial"] for w in report.violations}
        assert report.passed and len(witnesses) == 44 and drawn == list(range(cfg.trials))
        with_witnesses = sum(bool(witnesses & set(g)) for g in groups.values())
        assert len(calls) == len(groups) + with_witnesses == 7

    def test_each_group_stacks_up_to_its_own_cap(self, monkeypatch):
        seen = []
        eigh = np.linalg.eigh

        def sized(a):
            seen.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", sized)
        report = check_phi_concavity(CheckConfig(trials=60, seed=3, dims=((1, 2, 2), (1, 32, 32))))
        assert report.passed
        itemsize = np.dtype(np.complex128).itemsize
        assert max(np.prod(s) * itemsize for s in seen) <= verifiers.BLOCK_BYTES
        cap_at_32 = verifiers.BLOCK_BYTES // (32 * 32 * itemsize)
        largest_at_2 = max(int(np.prod(s[:-2])) for s in seen if s[-2:] == (2, 2))
        assert largest_at_2 > cap_at_32

    def test_reverified_gap_is_the_replayed_gap(self):
        report = search_gt_route_gap(CheckConfig(trials=100, seed=7))
        assert report.violations
        for w in report.violations:
            assert w["reverified"]
            redo = re_evaluate("gt_route_gap", w)
            assert float(w["reverified_gap"]).hex() == float(redo["gap"]).hex()

    @pytest.mark.parametrize("seed", [7, 1])
    @pytest.mark.parametrize("dims", [DEFAULT_DIMS, ((2, 8, 8),)])
    def test_stacked_read_back_reverifies_each_record(self, seed, dims):
        report = search_gt_route_gap(CheckConfig(trials=200, seed=seed, dims=dims))
        assert report.passed
        for w in report.violations:
            redo = re_evaluate("gt_route_gap", w)
            assert float(w["reverified_gap"]).hex() == float(redo["gap"]).hex()

    def test_reverification_uses_the_genuine_functionals(self):
        scaled = lambda inst: gt_route_value(inst) * (1.0 + 1e-6)
        report = search_gt_route_gap(CheckConfig(trials=100, seed=7), route_fn=scaled)
        assert report.violations
        for w in report.violations:
            assert w["kind"] == "witness" and w["reverified"] is False
            assert w["reverified_gap"] < w["gap"]

    def test_first_breach_ends_a_witness_trial(self, monkeypatch):
        # Both candidates of every trial breach: each trial keeps its first
        # witness and the gaps up to it, as it does alone.
        shifted = lambda inst: fn.gt_jensen_rhs(inst) + 1.0
        cfg = CheckConfig(trials=30, seed=5)
        batched = search_gt_route_gap(cfg, route_fn=shifted)
        assert [w["candidate"] for w in batched.violations] == ["random"] * cfg.trials
        monkeypatch.setattr(verifiers, "_run_group", ref.every_trial_alone)
        assert search_gt_route_gap(cfg, route_fn=shifted).to_json() == batched.to_json()

    def test_search_stops_once_every_trial_has_a_witness(self, monkeypatch):
        # Every trial breaches on its random candidate and the rank-one probe
        # candidate raises; no trial reaches its probe, in a stack or alone.
        def shifted(inst):
            if (np.abs(np.linalg.eigvalsh(inst.L.mat)[..., :-1]).max(axis=-1) < 1e-6).any():
                raise NumericalInconsistency("a probe candidate")
            return fn.gt_jensen_rhs(inst) + 1.0

        cfg = CheckConfig(trials=30, seed=5)
        report = search_gt_route_gap(cfg, route_fn=shifted)
        assert report.passed
        assert [w["candidate"] for w in report.violations] == ["random"] * cfg.trials
        monkeypatch.setattr(verifiers, "_run_group", ref.every_trial_alone)
        assert search_gt_route_gap(cfg, route_fn=shifted).to_json() == report.to_json()

    def test_reverification_error_stays_with_its_trial(self, monkeypatch):
        # The replay of one witness raises: that trial becomes an error
        # record, as it does alone, and the other witnesses keep theirs.
        cfg = CheckConfig(trials=40, seed=5)
        found = search_gt_route_gap(cfg).violations
        chosen = found[3]
        L = matrix_from_json(chosen["instance"]["L"])

        def replayed(inst):
            if inst.L.mat.shape[-2:] == L.shape and np.all(inst.L.mat == L, axis=(-2, -1)).any():
                raise NumericalInconsistency("the chosen witness")
            return gt_route_value(inst)

        monkeypatch.setattr(verifiers, "gt_route_value", replayed)
        report = search_gt_route_gap(cfg, route_fn=gt_route_value)
        error = {"kind": "error", "trial": chosen["trial"], "error": "the chosen witness"}
        assert report.violations == [error if w is chosen else w for w in found]
        monkeypatch.setattr(verifiers, "_run_group", ref.every_trial_alone)
        assert search_gt_route_gap(cfg, route_fn=gt_route_value).to_json() == report.to_json()


class TestReplayErrors:
    @staticmethod
    def _a_instance():
        return fn.MultiInstance(L=random_hermitian(2, 1.0, 70),
                                H=random_contraction_tuple(1, 2, 2, True, 71),
                                a_list=[random_pd(2, seed=72)])

    def test_instance_that_yields_no_comparison_of_the_record_kind(self):
        # Without A2 and lam a multi_concavity instance is one point: its
        # block_lift comparison, and no segment.
        record = {"kind": "segment", "instance": multi_instance_to_json(self._a_instance())}
        assert set(re_evaluate("multi_concavity", {**record, "kind": "block_lift"})) == {
            "lhs", "rhs", "gap"}
        with pytest.raises(DomainError, match="yields no 'segment' comparison"):
            re_evaluate("multi_concavity", record)

    def test_route_value_needs_the_b_family(self):
        with pytest.raises(DomainError, match="gt_route_value needs an instance with b_list"):
            gt_route_value(self._a_instance())
