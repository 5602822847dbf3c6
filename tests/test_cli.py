import json
import math

import numpy as np
import pytest

from entropylab.cli import main
from entropylab.errors import NonFiniteObjective
from entropylab.matrix_core import random_pd
from entropylab.serialization import (
    dump_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    pd_from_json,
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

    def test_non_contraction_exits_2(self, tmp_path, capsys):
        a = matrix_to_json(np.diag([2.0]))
        path = write_instance(tmp_path, "inst.json", {
            "A": a, "B": a, "H": matrix_to_json(np.array([[3.0]]))})
        code, _, err = run(capsys, "eval", "reduced_relative_entropy", path)
        assert code == 2 and "norm" in err

    @pytest.mark.parametrize("p", ["half", None])
    def test_malformed_scalar_exits_2(self, tmp_path, capsys, p):
        a = matrix_to_json(np.diag([2.0]))
        path = write_instance(tmp_path, "inst.json", {
            "A": a, "B": a, "H": matrix_to_json(np.array([[0.5]])), "p": p})
        code, out, err = run(capsys, "eval", "lieb_trace", path)
        assert code == 2 and not out
        assert "'p'" in err and "expected a number" in err

    def test_unknown_functional_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "nonsense", "x.json"])
        assert exc.value.code == 2


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

    def test_route_gap_trial_error_exits_1(self, tmp_path, capsys):
        # Trial 19 errors (exp below the PD floor at n = 8); the search
        # records it, goes on, and fails.
        code, out, _ = run(capsys, "check", "gt_route_gap",
                           "--trials", "20", "--seed", "7",
                           "--dims", "2,8,8",
                           "--out-dir", str(tmp_path / "r"))
        assert code == 1
        assert "gt_route_gap: FAIL" in out
        report = load_json(tmp_path / "r" / "gt_route_gap.json")
        assert [v["trial"] for v in report["violations"] if v["kind"] == "error"] == [19]

    def test_bad_dims_exits_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "check", "gibbs_identity",
                         "--dims", "2x2", "--out-dir", str(tmp_path / "r"))
        assert code == 2

    def test_unknown_suite_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "bogus"])
        assert exc.value.code == 2


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

    def test_gen_isometry_needs_rows_exits_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gen", "contraction_tuple", "--k", "1",
                         "--m", "1", "--n", "3", "--sum-identity",
                         "--seed", "0", "--out", str(tmp_path / "t.json"))
        assert code == 2
