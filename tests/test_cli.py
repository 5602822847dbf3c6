import argparse
import json
import math
import warnings

import numpy as np
import pytest
import sampling_reference as ref

from entropylab import cli, functionals, variational, verifiers
from entropylab.cli import main
from entropylab.errors import DomainError, NonFiniteObjective
from entropylab.functionals import MultiInstance
from entropylab.matrix_core import (
    EIG_RANGE,
    make_rng,
    random_contraction_tuple,
    random_hermitian,
    random_pd,
)
from entropylab.variational import SolverConfig
from entropylab.verifiers import DEFAULT_DIMS, CheckConfig
from entropylab.serialization import (
    dump_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    multi_instance_to_json,
    pd_from_json,
    read_fields,
)


def write_instance(tmp_path, name, obj):
    path = tmp_path / name
    dump_json(obj, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_relative_entropy_equal_arguments(self, tmp_path, capsys):
        a = matrix_to_json(np.diag([2.0, 3.0]))
        path = write_instance(tmp_path, "inst.json", {"A": a, "B": a})
        code, out, _ = run(capsys, "eval", "relative_entropy", path)
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.0, abs=1e-12)

    def test_phi_scalar_prints_value(self, tmp_path, capsys):
        path = write_instance(tmp_path, "inst.json", {
            "A": matrix_to_json(np.array([[4.0]])),
            "L": matrix_to_json(np.array([[0.0]])),
            "H": matrix_to_json(np.array([[0.5]])),
        })
        code, out, _ = run(capsys, "eval", "phi", path)
        assert code == 0
        assert float(out.strip()) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_multi_phi_scalar(self, tmp_path, capsys):
        h = 1.0 / math.sqrt(2.0)
        path = write_instance(tmp_path, "inst.json", {
            "L": matrix_to_json(np.array([[0.0]])),
            "H": [matrix_to_json(np.array([[h]])), matrix_to_json(np.array([[h]]))],
            "A": [matrix_to_json(np.array([[4.0]])), matrix_to_json(np.array([[9.0]]))],
            "sum_is_identity": True,
        })
        code, out, _ = run(capsys, "eval", "multi_phi", path)
        assert code == 0
        assert float(out.strip()) == pytest.approx(6.0, rel=1e-12)

    def test_out_record(self, tmp_path, capsys):
        a = matrix_to_json(np.diag([1.5]))
        path = write_instance(tmp_path, "inst.json", {"A": a, "B": a})
        out_path = tmp_path / "record.json"
        code, _, _ = run(capsys, "eval", "relative_entropy", path, "--out", str(out_path))
        assert code == 0
        record = load_json(out_path)
        assert record["functional"] == "relative_entropy"
        assert record["value"] == pytest.approx(0.0, abs=1e-12)

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "eval", "relative_entropy", str(tmp_path / "nope.json"))
        assert code == 2 and err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        code, _, _ = run(capsys, "eval", "relative_entropy", str(path))
        assert code == 2

    def test_deeply_nested_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, "eval", "relative_entropy", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: invalid JSON: nested too deeply\n"

    def test_non_utf8_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{")
        code, _, err = run(capsys, "eval", "relative_entropy", str(path))
        assert code == 2
        assert err.startswith(f"error: cannot read {path}: ")

    def test_unwritable_out_exits_2_after_the_value(self, tmp_path, capsys):
        a = matrix_to_json(np.diag([1.5]))
        path = write_instance(tmp_path, "inst.json", {"A": a, "B": a})
        out_path = tmp_path / "absent" / "record.json"
        code, out, err = run(capsys, "eval", "relative_entropy", path, "--out", str(out_path))
        assert code == 2
        assert float(out.strip()) == pytest.approx(0.0, abs=1e-12)
        assert err.startswith(f"error: cannot write {out_path}: ")

    def test_non_contraction_exits_2(self, tmp_path, capsys):
        a = matrix_to_json(np.diag([2.0]))
        path = write_instance(tmp_path, "inst.json", {
            "A": a, "B": a, "H": matrix_to_json(np.array([[3.0]]))})
        code, _, err = run(capsys, "eval", "reduced_relative_entropy", path)
        assert code == 2 and "norm" in err

    def test_failed_norm_svd_of_a_raw_contraction_exits_3(self, tmp_path, capsys, monkeypatch):
        a = matrix_to_json(np.diag([2.0]))
        path = write_instance(tmp_path, "inst.json", {
            "A": a, "B": a, "H": matrix_to_json(np.array([[0.5]]))})

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        code, out, err = run(capsys, "eval", "reduced_relative_entropy", path)
        assert code == 3 and not out
        assert err == "numerical error: singular value decomposition failed: SVD did not converge\n"

    def test_overflowing_commuting_bound_exits_3(self, tmp_path, capsys):
        # e^700 is finite and e^700 e^700 is not: a numerical error, not inf.
        wide = matrix_to_json(np.diag([700.0, 0.0]))
        path = write_instance(tmp_path, "inst.json", {
            "L": wide, "H": [matrix_to_json(np.eye(2))], "sum_is_identity": True, "B": [wide]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "eval", "gt_jensen_rhs", path)
        assert code == 3 and out == ""
        assert "Tr(e^L sum H_i* e^(B_i) H_i) is not finite" in err

    def test_overflowing_exp_of_an_eigenvalue_exits_3(self, tmp_path, capsys):
        # e^800 is not finite: a numerical error (exit 3), not an input error.
        path = write_instance(tmp_path, "inst.json", {
            "L": matrix_to_json(np.diag([800.0, 0.0])), "H": [matrix_to_json(np.eye(2))],
            "sum_is_identity": True, "B": [matrix_to_json(np.zeros((2, 2)))]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "eval", "gt_jensen_rhs", path)
        assert code == 3 and out == ""
        assert "Tr(e^L sum H_i* e^(B_i) H_i) is not finite" in err

    @pytest.mark.parametrize("entry", ["x", None, pytest.param(10 ** 400, id="400-digit"), True])
    def test_non_number_matrix_entry_exits_2(self, tmp_path, capsys, entry):
        a = matrix_to_json(np.diag([2.0]))
        path = write_instance(tmp_path, "inst.json", {
            "A": a, "B": {"rows": 1, "cols": 1, "data": [[entry, 0.0]]}})
        code, out, err = run(capsys, "eval", "relative_entropy", path)
        assert code == 2 and not out
        assert "key 'B'" in err and "Traceback" not in err

    @pytest.mark.parametrize("key,value", [("sum_is_identity", "false"),
                                           ("rows", 2.9), ("rows", True)])
    def test_loosely_typed_field_exits_2(self, tmp_path, capsys, key, value):
        obj = {
            "L": matrix_to_json(np.array([[0.0]])),
            "H": [matrix_to_json(np.array([[0.5]]))],
            "A": [matrix_to_json(np.array([[4.0]]))],
        }
        if key == "sum_is_identity":
            obj[key] = value
        else:
            obj["A"][0][key] = value
        code, out, err = run(capsys, "eval", "multi_phi", write_instance(tmp_path, "inst.json", obj))
        assert code == 2 and not out
        assert f"'{key}'" in err and "Traceback" not in err

    @pytest.mark.parametrize("p", ["half", None, pytest.param(10 ** 400, id="400-digit"), True])
    def test_malformed_scalar_exits_2(self, tmp_path, capsys, p):
        a = matrix_to_json(np.diag([2.0]))
        path = write_instance(tmp_path, "inst.json", {
            "A": a, "B": a, "H": matrix_to_json(np.array([[0.5]])), "p": p})
        code, out, err = run(capsys, "eval", "lieb_trace", path)
        assert code == 2 and not out
        assert "'p'" in err and "expected a number" in err

    @pytest.mark.parametrize("command", ["eval relative_entropy", "optimize gibbs"])
    def test_a_list_of_instances_exits_2(self, tmp_path, capsys, command):
        obj = {"A": matrix_to_json(np.eye(2)), "B": matrix_to_json(np.eye(2)),
               "X": matrix_to_json(np.eye(2))}
        path = write_instance(tmp_path, "list.json", [obj, obj])
        code, out, err = run(capsys, *command.split(), path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: expected a JSON object, got list\n"

    def test_unknown_functional_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "nonsense", "x.json"])
        assert exc.value.code == 2


class TestOverflowEdges:
    """Inputs whose checks overflowed: each gives its value or its typed
    error, with no RuntimeWarning."""

    def test_a_huge_phi_eigenvalue_gives_the_value(self, tmp_path, capsys):
        path = write_instance(tmp_path, "inst.json", {
            "A": matrix_to_json(np.array([[2.0, 0.5], [0.5, 1.0]])),
            "L": matrix_to_json(np.diag([-1e160, 0.0])),
            "H": matrix_to_json(0.6 * np.eye(2))})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "eval", "phi", path)
        assert (code, err) == (0, "")
        assert float(out) == pytest.approx(0.970861786431368, rel=1e-12)

    @pytest.mark.parametrize("name,weights", [("multi_phi", "A"), ("gt_jensen_rhs", "B")])
    def test_a_tuple_with_huge_entries_is_not_a_contraction(self, tmp_path, capsys,
                                                            name, weights):
        path = write_instance(tmp_path, "inst.json", {
            "L": matrix_to_json(np.zeros((2, 2))), "H": [matrix_to_json(1e200 * np.eye(2))],
            weights: [matrix_to_json(np.eye(2))], "sum_is_identity": False})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "eval", name, path)
        assert (code, out) == (2, "")
        assert "block 0 has an entry of modulus 1.000000e+200 > 1" in err

    @pytest.mark.parametrize("command,name,fields,what", [
        ("eval", "relative_entropy", ("A", "B"), "Tr(A log A - H* A H log B - A + B)"),
        ("eval", "gibbs_objective", ("X", "B"), "Tr(X log B - X log X + X)"),
        ("optimize", "gibbs", ("B",), "Tr(X log B - X log X + X)"),
    ])
    def test_an_overflowing_pair_sum_exits_3(self, tmp_path, capsys, command, name, fields,
                                             what):
        # The terms a log a at 2e305 overflow before the sum cancels: a
        # numerical error, where the value was NaN with RuntimeWarnings.
        big, scale = np.diag([2e305, 1e305]), 1e305 * np.eye(2)
        path = write_instance(tmp_path, "inst.json", {
            key: matrix_to_json(m) for key, m in zip(fields, (big, scale))})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, command, name, path)
        assert (code, out) == (3, "")
        assert err == f"numerical error: {what} is not finite: it overflows\n"

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1.7e308])
    @pytest.mark.parametrize("name,what", [
        ("lieb_trace", "Tr(H B^p H* A^(1-p))"),
        ("lieb_derivative", "d/dp Tr(H B^p H* A^(1-p)) at p = 0"),
    ])
    def test_a_huge_lieb_h_exits_3(self, tmp_path, capsys, name, what, scale):
        # The Lieb functionals do not bound the norm of H: the weights
        # |U_A* H U_B|^2 overflow (and at 1.7e308 so does the overlap, to
        # inf - inf), and the sum is a numerical error with no RuntimeWarning.
        path = write_instance(tmp_path, "inst.json", {
            "A": matrix_to_json(np.array([[2.0, 0.5], [0.5, 1.0]])),
            "B": matrix_to_json(np.array([[1.0, 0.5], [0.5, 3.0]])),
            "H": matrix_to_json(np.full((2, 2), scale)), "p": 0.3})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "eval", name, path)
        assert (code, out) == (3, "")
        assert err == f"numerical error: {what} is not finite: it overflows\n"


class TestCheck:
    def test_single_check_passes(self, tmp_path, capsys):
        code, out, _ = run(capsys, "check", "gibbs_identity",
                           "--trials", "10", "--seed", "7",
                           "--out-dir", str(tmp_path / "r"))
        assert code == 0
        assert "gibbs_identity: PASS" in out
        report = load_json(tmp_path / "r" / "gibbs_identity.json")
        assert report["passed"] is True

    def test_reports_byte_identical_across_runs(self, tmp_path, capsys):
        for d in ("r1", "r2"):
            code, _, _ = run(capsys, "check", "sh_convexity",
                             "--trials", "15", "--seed", "7",
                             "--out-dir", str(tmp_path / d))
            assert code == 0
        first = (tmp_path / "r1" / "sh_convexity.json").read_bytes()
        second = (tmp_path / "r2" / "sh_convexity.json").read_bytes()
        assert first == second
        s1 = (tmp_path / "r1" / "summary.json").read_bytes()
        s2 = (tmp_path / "r2" / "summary.json").read_bytes()
        assert s1 == s2

    def test_route_gap_witness_found(self, tmp_path, capsys):
        code, out, _ = run(capsys, "check", "gt_route_gap",
                           "--trials", "40", "--seed", "7",
                           "--dims", "2,2,2",
                           "--out-dir", str(tmp_path / "r"))
        assert code == 0
        assert "gt_route_gap: PASS" in out

    def test_route_gap_inconclusive_on_scalars(self, tmp_path, capsys):
        code, out, _ = run(capsys, "check", "gt_route_gap",
                           "--trials", "20", "--seed", "7",
                           "--dims", "2,1,1",
                           "--out-dir", str(tmp_path / "r"))
        assert code == 1
        assert "INCONCLUSIVE" in out

    def test_route_gap_trial_error_exits_1(self, tmp_path, capsys, monkeypatch):
        # Trial 19 raises (a hook on the route value); the search records
        # it, goes on, and fails.
        monkeypatch.setattr(verifiers, "gt_route_value", ref.route_raising_on(
            CheckConfig(trials=20, seed=7, dims=((2, 8, 8),)), [19]))
        code, out, _ = run(capsys, "check", "gt_route_gap",
                           "--trials", "20", "--seed", "7",
                           "--dims", "2,8,8",
                           "--out-dir", str(tmp_path / "r"))
        assert code == 1
        assert "gt_route_gap: FAIL" in out
        report = load_json(tmp_path / "r" / "gt_route_gap.json")
        assert [v["trial"] for v in report["violations"] if v["kind"] == "error"] == [19]

    def test_route_gap_errors_stay_with_their_trials(self, tmp_path, capsys, monkeypatch):
        # Error trials sit in blocks of stacked trials; each becomes its own
        # error record and every other trial is judged as before.
        cfg = CheckConfig(trials=200, seed=7, dims=((2, 8, 8),))
        monkeypatch.setattr(verifiers, "gt_route_value", ref.route_raising_on(cfg, [19, 20, 30]))
        code, out, _ = run(capsys, "check", "gt_route_gap", "--trials", "200",
                           "--seed", "7", "--dims", "2,8,8", "--out-dir", str(tmp_path / "r"))
        assert code == 1
        report = load_json(tmp_path / "r" / "gt_route_gap.json")
        assert [v["trial"] for v in report["violations"] if v["kind"] == "error"] == [19, 20, 30]
        assert {v["error"] for v in report["violations"] if v["kind"] == "error"} == {
            "a chosen trial"}
        assert report["note"] == "found 113 witnesses, 3 error records"

    def test_route_gap_passes_at_n_8(self, tmp_path, capsys):
        # exp over the wide spectra at n = 8 keeps its exact spectrum, so no
        # trial falls below the PD floor and every witness re-verifies.
        code, out, _ = run(capsys, "check", "gt_route_gap", "--trials", "200",
                           "--seed", "7", "--dims", "2,8,8", "--out-dir", str(tmp_path / "r"))
        assert code == 0
        assert "gt_route_gap: PASS" in out
        report = load_json(tmp_path / "r" / "gt_route_gap.json")
        assert report["note"] == "found 115 witnesses"
        assert len(report["violations"]) == 115
        assert all(v["kind"] == "witness" and v["reverified"] for v in report["violations"])

    def test_rerun_over_longer_reports_equals_a_fresh_run(self, tmp_path, capsys):
        for d, trials in (("again", "12"), ("again", "3"), ("fresh", "3")):
            code, _, _ = run(capsys, "check", "gibbs_identity", "--trials", trials,
                             "--seed", "7", "--out-dir", str(tmp_path / d))
            assert code == 0
        for name in ("gibbs_identity.json", "summary.json"):
            assert ((tmp_path / "again" / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes())

    def test_out_dir_that_is_a_file_exits_2(self, tmp_path, capsys):
        out_dir = tmp_path / "taken"
        out_dir.write_text("")
        code, out, err = run(capsys, "check", "gibbs_identity", "--trials", "2",
                             "--out-dir", str(out_dir))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot create {out_dir}: ")

    def test_dims_that_a_later_check_cannot_use_exit_2_before_any_report(self, tmp_path,
                                                                          capsys):
        # Every check but gt_route_gap can run at k = 1; the route search's
        # dims are resolved, with every other check's, before any check runs.
        out_dir = tmp_path / "reports"
        code, out, err = run(capsys, "check", "all", "--trials", "2", "--dims", "1,1,1",
                             "--out-dir", str(out_dir))
        assert (code, out) == (2, "")
        assert err == "error: search_gt_route_gap needs at least one dims triple with k >= 2\n"
        assert not out_dir.exists()

    def test_bad_dims_exits_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "check", "gibbs_identity",
                         "--dims", "2x2", "--out-dir", str(tmp_path / "r"))
        assert code == 2

    def test_unknown_suite_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_tolerance_not_finite_and_positive_exits_2(self, tmp_path, capsys, tol):
        # A NaN tolerance would pass every comparison, so it is refused.
        code, out, err = run(capsys, "check", "gibbs_identity", "--trials", "2",
                             "--tol-abs", tol, "--out-dir", str(tmp_path / "r"))
        assert code == 2 and not out
        assert "finite and positive" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("how", ["flag", "env"])
    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_outside_64_unsigned_bits_exits_2(self, tmp_path, capsys, monkeypatch,
                                                    how, seed):
        argv = ["check", "gibbs_identity", "--trials", "2", "--out-dir", str(tmp_path / "r")]
        if how == "flag":
            argv += ["--seed", seed]
        else:
            monkeypatch.setenv("ENTROPYLAB_SEED", seed)
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert "64 unsigned bits" in err

    @pytest.mark.parametrize("how", ["flag", "env"])
    @pytest.mark.parametrize("text", ["0xC0FFEE", "12648430", "0012648430", "0o60177756",
                                      "0b110000001111111111101110"])
    def test_seed_forms_write_the_default_run(self, tmp_path, capsys, monkeypatch, how, text):
        # The default seed 0xC0FFEE in decimal (leading zeros too) or with a
        # prefix, through either route, writes the bytes of a run with no seed.
        def reports(name, *seed):
            out_dir = tmp_path / name
            assert run(capsys, "check", "gibbs_identity", "--trials", "20", *seed,
                       "--out-dir", str(out_dir))[0] == 0
            return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

        default = reports("default")
        if how == "flag":
            assert reports("seeded", "--seed", text) == default
        else:
            monkeypatch.setenv("ENTROPYLAB_SEED", text)
            assert reports("seeded") == default

    def test_flag_seed_garbage_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "gibbs_identity", "--seed", "0xZZ"])
        assert exc.value.code == 2
        assert "argument --seed: not an integer: '0xZZ'" in capsys.readouterr().err


class TestOptimize:
    def test_gibbs_diag(self, tmp_path, capsys):
        path = write_instance(tmp_path, "b.json",
                              {"B": matrix_to_json(np.diag([1.0, 2.0]))})
        code, out, _ = run(capsys, "optimize", "gibbs", path)
        assert code == 0
        record = json.loads(out)
        assert record["converged"] is True
        assert record["value"] == pytest.approx(3.0, abs=1e-6)

    def test_phi_scalar(self, tmp_path, capsys):
        path = write_instance(tmp_path, "inst.json", {
            "A": matrix_to_json(np.array([[4.0]])),
            "L": matrix_to_json(np.array([[0.0]])),
            "H": matrix_to_json(np.array([[0.5]])),
        })
        code, out, _ = run(capsys, "optimize", "phi", path, "--out",
                           str(tmp_path / "res.json"))
        assert code == 0
        record = load_json(tmp_path / "res.json")
        assert record["value"] == pytest.approx(math.sqrt(2.0), abs=1e-6)

    def test_optimize_matches_eval(self, tmp_path, capsys):
        a = random_pd(3, (0.5, 2.0), 12)
        inst = {
            "A": matrix_to_json(a.mat),
            "L": matrix_to_json(np.zeros((3, 3))),
            "H": matrix_to_json(0.7 * np.eye(3)),
        }
        path = write_instance(tmp_path, "inst.json", inst)
        code_opt, out_opt, _ = run(capsys, "optimize", "phi", path)
        record = json.loads(out_opt)
        code_eval, out_eval, _ = run(capsys, "eval", "phi", path)
        assert code_opt == code_eval == 0
        assert record["value"] == pytest.approx(float(out_eval.strip()), abs=1e-6)

    @pytest.mark.parametrize("entry", ["x", None, pytest.param(10 ** 400, id="400-digit")])
    def test_non_number_matrix_entry_exits_2(self, tmp_path, capsys, entry):
        path = write_instance(tmp_path, "b.json",
                              {"B": {"rows": 1, "cols": 1, "data": [[entry, 0.0]]}})
        code, out, err = run(capsys, "optimize", "gibbs", path)
        assert code == 2 and not out
        assert "key 'B'" in err

    @pytest.mark.parametrize("grad_tol", ["nan", "inf"])
    def test_non_finite_grad_tol_exits_2(self, tmp_path, capsys, grad_tol):
        path = write_instance(tmp_path, "b.json", {"B": matrix_to_json(np.diag([1.0, 2.0]))})
        code, out, err = run(capsys, "optimize", "gibbs", path, "--grad-tol", grad_tol)
        assert code == 2 and not out
        assert f"grad_tol={grad_tol}" in err

    def test_numerical_error_exits_3(self, tmp_path, capsys, monkeypatch):
        path = write_instance(tmp_path, "b.json",
                              {"B": matrix_to_json(np.diag([1.0]))})

        def boom(*args, **kwargs):
            raise NonFiniteObjective("synthetic underflow")

        monkeypatch.setattr("entropylab.cli.maximize", boom)
        code, _, err = run(capsys, "optimize", "gibbs", path)
        assert code == 3 and "numerical error" in err


class TestGen:
    def test_gen_pd_loads_as_pd(self, tmp_path, capsys):
        out_path = tmp_path / "a.json"
        code, _, _ = run(capsys, "gen", "pd", "--dim", "4", "--seed", "1",
                         "--out", str(out_path))
        assert code == 0
        a = pd_from_json(load_json(out_path))
        assert a.dim == 4

    def test_gen_contraction_tuple_isometric(self, tmp_path, capsys):
        out_path = tmp_path / "t.json"
        code, _, _ = run(capsys, "gen", "contraction_tuple", "--k", "3",
                         "--m", "2", "--n", "2", "--sum-identity",
                         "--seed", "2", "--out", str(out_path))
        assert code == 0
        obj = load_json(out_path)
        assert obj["sum_is_identity"] is True
        blocks = [matrix_from_json(b) for b in obj["H"]]
        gram = sum(b.conj().T @ b for b in blocks)
        assert np.abs(gram - np.eye(2)).max() <= 1e-12

    def test_gen_multi_instance_feeds_eval(self, tmp_path, capsys):
        out_path = tmp_path / "inst.json"
        code, _, _ = run(capsys, "gen", "multi_instance", "--k", "2", "--m", "2",
                         "--n", "2", "--sum-identity", "--seed", "3",
                         "--out", str(out_path))
        assert code == 0
        code, out, _ = run(capsys, "eval", "multi_phi", str(out_path))
        assert code == 0
        value = float(out.strip())
        assert math.isfinite(value) and value > 0

    def test_gen_deterministic(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a1.json", tmp_path / "a2.json"
        for p in (p1, p2):
            code, _, _ = run(capsys, "gen", "pd", "--dim", "3", "--seed", "9",
                             "--out", str(p))
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_env_seed_respected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ENTROPYLAB_SEED", "123")
        p1 = tmp_path / "env.json"
        code, _, _ = run(capsys, "gen", "pd", "--dim", "3", "--out", str(p1))
        assert code == 0
        monkeypatch.delenv("ENTROPYLAB_SEED")
        p2 = tmp_path / "flag.json"
        code, _, _ = run(capsys, "gen", "pd", "--dim", "3", "--seed", "123",
                         "--out", str(p2))
        assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_env_seed_garbage_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ENTROPYLAB_SEED", "not-a-number")
        code, _, _ = run(capsys, "gen", "pd", "--dim", "2",
                         "--out", str(tmp_path / "x.json"))
        assert code == 2

    @pytest.mark.parametrize("kind", ["pd", "multi_instance"])
    def test_infinite_eigenvalue_bound_exits_2(self, tmp_path, capsys, kind):
        # numpy's uniform draw used to raise OverflowError here (exit 1).
        out_path = tmp_path / "x.json"
        code, out, err = run(capsys, "gen", kind, "--eig-hi", "inf", "--out", str(out_path))
        assert code == 2 and not out and not out_path.exists()
        assert "0 < lo <= hi < inf" in err

    def test_overflowing_pd_exits_2_without_warnings(self, tmp_path, capsys):
        # Its (M + M*)/2 used to hold Infinity and NaN entries, written with exit 0.
        out_path = tmp_path / "x.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "gen", "pd", "--eig-lo", "1e308", "--eig-hi", "1.7e308",
                                 "--out", str(out_path))
        assert code == 2 and not out and not out_path.exists()
        assert "overflows" in err

    @pytest.mark.parametrize("kind", ["hermitian", "multi_instance"])
    @pytest.mark.parametrize("scale", ["1e308", "nan", "inf"])
    def test_non_finite_or_overflowing_scale_exits_2_without_warnings(self, tmp_path, capsys,
                                                                      kind, scale):
        # --scale 1e308 used to print two RuntimeWarnings before its error.
        out_path = tmp_path / "x.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "gen", kind, "--scale", scale, "--out", str(out_path))
        assert code == 2 and not out and not out_path.exists()
        assert "scale" in err and str(float(scale)) in err

    def test_gen_isometry_needs_rows_exits_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gen", "contraction_tuple", "--k", "1",
                         "--m", "1", "--n", "3", "--sum-identity",
                         "--seed", "0", "--out", str(tmp_path / "t.json"))
        assert code == 2


class TestWrittenFiles:
    def test_files_equal_the_stdlib_encoding(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(capsys, "check", "all", "--trials", "50", "--seed", "7",
                   "--out-dir", str(out))[0] == 0
        for i, (kind, extra) in enumerate((
                ("pd", []), ("hermitian", []),
                ("contraction_tuple", ["--k", "2", "--m", "3", "--n", "4"]),
                ("multi_instance", ["--k", "2", "--sum-identity"]),
                ("multi_instance", ["--k", "2", "--b-list"]))):
            path = out / f"gen-{i}-{kind}.json"
            assert run(capsys, "gen", kind, "--seed", "3", "--out", str(path), *extra)[0] == 0
        files = sorted(out.glob("*.json"))
        assert len(files) == 9 + 5
        for path in files:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name


class TestDefaults:
    """Each default lives in one place: a parser default is read from the
    config field or the constant it stands for."""

    @staticmethod
    def _defaults(*argv) -> dict:
        return vars(cli.build_parser().parse_args(list(argv)))

    def test_check_defaults_are_the_config_defaults(self):
        args = self._defaults("check", "all")
        cfg = CheckConfig()
        assert (args["trials"], args["tol_abs"], args["tol_rel"]) == (
            cfg.trials, cfg.tol_abs, cfg.tol_rel)
        assert args["seed"] is None and args["dims"] is None  # DEFAULT_SEED, DEFAULT_DIMS

    def test_optimize_defaults_are_the_solver_defaults(self):
        args = self._defaults("optimize", "gibbs", "b.json")
        cfg = SolverConfig()
        assert args["grad_tol"] == cfg.grad_tol
        assert set(args) == {"command", "objective", "instance", "grad_tol", "out"}

    def test_gen_eigenvalue_range_is_the_check_range(self):
        args = self._defaults("gen", "pd", "--out", "a.json")
        assert (args["eig_lo"], args["eig_hi"]) == EIG_RANGE

    @pytest.mark.parametrize("flag", ["--initial-step", "--backtrack-factor", "--armijo-c",
                                      "--max-iters"])
    def test_removed_step_rule_flags_exit_2(self, tmp_path, capsys, flag):
        path = write_instance(tmp_path, "b.json", {"B": matrix_to_json(np.diag([1.0, 2.0]))})
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "gibbs", path, flag, "0.5"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err


class TestParserReuse:
    """``main`` builds one parser per process; no call may see an earlier one."""

    def test_parser_built_once(self, tmp_path, capsys, monkeypatch):
        built = []

        def counting():
            built.append(1)
            return real()

        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            a = matrix_to_json(np.diag([2.0, 3.0]))
            path = write_instance(tmp_path, "inst.json", {"A": a, "B": a})
            for _ in range(3):
                assert run(capsys, "eval", "relative_entropy", path)[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_rebound_handler_is_called(self, tmp_path, capsys, monkeypatch):
        # The parser outlives the call that built it; the handler must not.
        a = matrix_to_json(np.diag([1.5]))
        path = write_instance(tmp_path, "inst.json", {"A": a, "B": a})
        assert run(capsys, "eval", "relative_entropy", path)[0] == 0
        monkeypatch.setattr(cli, "cmd_eval", lambda args: 7)
        assert run(capsys, "eval", "relative_entropy", path)[0] == 7

    def test_dims_do_not_carry_over(self, tmp_path, capsys):
        argv = ["check", "gibbs_identity", "--trials", "2", "--seed", "7"]
        code, _, _ = run(capsys, *argv, "--dims", "1,2,2", "--out-dir", str(tmp_path / "r1"))
        assert code == 0
        assert load_json(tmp_path / "r1" / "gibbs_identity.json")["config"]["dims"] == [[1, 2, 2]]
        code, _, _ = run(capsys, *argv, "--out-dir", str(tmp_path / "r2"))
        assert code == 0
        report = load_json(tmp_path / "r2" / "gibbs_identity.json")
        assert report["config"]["dims"] == [list(d) for d in DEFAULT_DIMS]

    def test_out_does_not_carry_over(self, tmp_path, capsys):
        a = matrix_to_json(np.diag([1.5]))
        path = write_instance(tmp_path, "inst.json", {"A": a, "B": a})
        record = tmp_path / "rec.json"
        assert run(capsys, "eval", "relative_entropy", path, "--out", str(record))[0] == 0
        record.unlink()
        assert run(capsys, "eval", "relative_entropy", path)[0] == 0
        assert not record.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]

    def test_usage_error_then_valid_call(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "relative_entropy"])
        assert exc.value.code == 2
        capsys.readouterr()
        path = write_instance(tmp_path, "inst.json", {
            "A": matrix_to_json(np.array([[4.0]])),
            "L": matrix_to_json(np.array([[0.0]])),
            "H": matrix_to_json(np.array([[0.5]])),
        })
        code, out, err = run(capsys, "eval", "phi", path)
        assert code == 0 and not err
        assert float(out.strip()) == pytest.approx(math.sqrt(2.0), abs=1e-12)


class TestRegistry:
    """``functionals.FUNCTIONALS`` and ``variational.OBJECTIVES`` are the one
    home of each instance schema: eval, optimize and check replay read them,
    and they name their functions, which are looked up at call time."""

    @staticmethod
    def _instance(name: str) -> dict:
        rng = make_rng(21)
        if name in ("multi_phi", "gt_jensen_rhs"):
            extra = ({"a_list": [random_pd(3, (0.5, 2.0), rng) for _ in range(2)]}
                     if name == "multi_phi" else
                     {"b_list": [random_hermitian(3, 1.0, rng) for _ in range(2)]})
            return multi_instance_to_json(MultiInstance(
                L=random_hermitian(3, 1.0, rng), H=random_contraction_tuple(2, 3, 3, True, rng),
                **extra))
        values = {"pd": lambda: matrix_to_json(random_pd(3, (0.5, 2.0), rng)),
                  "hermitian": lambda: matrix_to_json(random_hermitian(3, 1.0, rng)),
                  "matrix": lambda: matrix_to_json(
                      random_contraction_tuple(1, 3, 3, False, rng).blocks[0]),
                  "float": lambda: 0.3}
        return {key: values[kind]() for key, kind in functionals.FUNCTIONALS[name][1].items()}

    @pytest.mark.parametrize("name", sorted(functionals.FUNCTIONALS))
    def test_eval_of_every_name_equals_the_direct_call(self, tmp_path, capsys, name):
        obj = self._instance(name)
        path = write_instance(tmp_path, "inst.json", obj)
        attr, fields = functionals.FUNCTIONALS[name]
        direct = getattr(functionals, attr)(*read_fields(obj, fields).values())
        code, out, err = run(capsys, "eval", name, path, "--out", str(tmp_path / "rec.json"))
        assert code == 0 and not err
        assert out == f"{direct:.15g}\n"
        assert load_json(tmp_path / "rec.json")["value"] == direct

    def test_parser_choices_are_the_table_keys(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        choices = {cmd: next(a.choices for a in sub.choices[cmd]._actions if a.dest == dest)
                   for cmd, dest in (("eval", "functional"), ("optimize", "objective"))}
        assert list(choices["eval"]) == list(functionals.FUNCTIONALS)
        assert list(choices["optimize"]) == list(variational.OBJECTIVES)

    def test_unknown_objective_message(self):
        with pytest.raises(DomainError) as exc:
            variational.maximize("nonsense", {})
        assert str(exc.value) == "unknown objective 'nonsense'; expected 'gibbs' or 'phi'"

    @staticmethod
    def _eval_record(tmp_path, capsys, name: str, record: dict) -> float:
        path = write_instance(tmp_path, "record.json", record["instance"])
        code, out, err = run(capsys, "eval", name, path, "--out", str(tmp_path / "rec.json"))
        value = load_json(tmp_path / "rec.json")["value"]
        assert code == 0 and not err and out == f"{value:.15g}\n"
        return value

    def test_gibbs_bound_record_is_an_eval_instance(self, tmp_path, capsys, monkeypatch):
        # A tolerance of -inf breaches every comparison, so the genuine
        # objective's bound comparisons become records.
        monkeypatch.setattr(verifiers, "_tol", lambda cfg, *values: -np.inf)
        report = verifiers.check_gibbs_identity(CheckConfig(trials=6, seed=3))
        records = [r for r in report.violations if r["kind"] == "bound"]
        assert len(records) == 6
        for record in records:
            value = self._eval_record(tmp_path, capsys, "gibbs_objective", record)
            # The check evaluates on the drawn spectra, eval on those of the
            # matrices read back: equal up to round-off, and equal to replay.
            assert value == pytest.approx(record["lhs"], rel=1e-12)
            assert value == verifiers.re_evaluate("gibbs_identity", record)["lhs"]

    def test_route_witness_is_an_eval_instance(self, tmp_path, capsys):
        witnesses = verifiers.search_gt_route_gap(CheckConfig(trials=60, seed=11)).violations
        assert witnesses
        for record in witnesses[:5]:
            value = self._eval_record(tmp_path, capsys, "gt_jensen_rhs", record)
            assert value == pytest.approx(record["rhs"], rel=1e-12)
            assert value == verifiers.re_evaluate("gt_route_gap", record)["rhs"]

    def test_rebound_functions_are_seen_by_eval_and_optimize(self, tmp_path, capsys,
                                                             monkeypatch):
        # The benchmark self-test corrupts functionals by rebinding them.
        path = write_instance(tmp_path, "inst.json", self._instance("phi"))
        genuine = {cmd: run(capsys, *cmd, path)[1] for cmd in (("eval", "phi"),
                                                                ("optimize", "phi"))}
        trace_exp, phi_objective = functionals.trace_exp_functional, variational.phi_objective
        monkeypatch.setattr(functionals, "trace_exp_functional",
                            lambda *a: 2.0 * trace_exp(*a))
        monkeypatch.setattr(variational, "phi_objective", lambda *a: 2.0 * phi_objective(*a))
        code, out, _ = run(capsys, "eval", "phi", path)
        assert code == 0 and float(out) == 2.0 * float(genuine[("eval", "phi")])
        code, out, _ = run(capsys, "optimize", "phi", path)
        value, expected = json.loads(out)["value"], json.loads(genuine[("optimize", "phi")])
        assert code == 0 and value == pytest.approx(2.0 * expected["value"], rel=1e-9)


class TestDimsErrors:
    """A --dims value that is not three integers, or that no trial of the
    check can use, exits 2 with the cause on stderr and no report."""

    @pytest.mark.parametrize("suite,dims,message", [
        ("gibbs_identity", "2,x,2", "--dims expects integers, got '2,x,2'"),
        ("gt_jensen", "1,2,3", "no dims triple satisfies k*m >= n"),
    ])
    def test_exits_2(self, tmp_path, capsys, suite, dims, message):
        code, out, err = run(capsys, "check", suite, "--trials", "2", "--dims", dims,
                             "--out-dir", str(tmp_path / "r"))
        assert code == 2 and not out
        assert message in err
        assert not list(tmp_path.glob("r/*.json"))
