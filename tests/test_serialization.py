import json

import numpy as np
import pytest

from entropylab.errors import DomainError, ParseError
from entropylab.functionals import MultiInstance
from entropylab.matrix_core import make_rng, random_contraction_tuple, random_hermitian, random_pd
from entropylab.serialization import (
    contraction_tuple_from_json,
    contraction_tuple_to_json,
    dump_json,
    hermitian_from_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    multi_instance_from_json,
    multi_instance_to_json,
    pd_from_json,
    read_fields,
)


class TestMatrixFormat:
    def test_round_trip_is_exact(self):
        rng = make_rng(1)
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        back = matrix_from_json(matrix_to_json(a))
        assert np.array_equal(a, back)

    def test_round_trip_through_text_is_exact(self):
        rng = make_rng(2)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        wire = json.loads(json.dumps(matrix_to_json(a)))
        assert np.array_equal(a, matrix_from_json(wire))

    def test_schema_fields(self):
        obj = matrix_to_json(np.eye(2))
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert obj["data"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]

    @pytest.mark.parametrize("bad", [
        42,
        {"rows": 2, "cols": 2},
        {"rows": 2, "cols": 2, "data": [[1.0, 0.0]]},
        {"rows": 0, "cols": 1, "data": []},
        {"rows": 1, "cols": 1, "data": [[1.0]]},
        {"rows": 1, "cols": 1, "data": [["x", 0.0]]},
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises((ParseError, ValueError, TypeError)):
            matrix_from_json(bad)

    def test_non_finite_rejected(self):
        with pytest.raises(ParseError):
            matrix_from_json({"rows": 1, "cols": 1, "data": [[float("inf"), 0.0]]})

    def test_hermitian_validation_on_load(self):
        bad = matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(DomainError):
            hermitian_from_json(bad)

    def test_pd_validation_on_load(self):
        bad = matrix_to_json(np.diag([-1.0, 1.0]))
        with pytest.raises(DomainError):
            pd_from_json(bad)


class TestTupleAndInstance:
    def test_contraction_tuple_round_trip(self):
        tup = random_contraction_tuple(3, 2, 4, True, 5)
        back = contraction_tuple_from_json(contraction_tuple_to_json(tup))
        assert back.sum_is_identity
        assert all(np.array_equal(a, b) for a, b in zip(tup.blocks, back.blocks))

    def test_multi_instance_round_trip_a(self):
        rng = make_rng(6)
        tup = random_contraction_tuple(2, 2, 3, True, rng)
        inst = MultiInstance(
            L=random_hermitian(3, 1.0, rng), H=tup,
            a_list=[random_pd(2, (0.05, 5.0), rng) for _ in range(2)])
        back = multi_instance_from_json(multi_instance_to_json(inst))
        assert back.a_list is not None and back.b_list is None
        assert np.array_equal(back.L.mat, inst.L.mat)
        assert all(np.array_equal(x.mat, y.mat)
                   for x, y in zip(back.a_list, inst.a_list))

    def test_multi_instance_round_trip_b(self):
        rng = make_rng(7)
        tup = random_contraction_tuple(2, 2, 2, False, rng)
        inst = MultiInstance(
            L=random_hermitian(2, 1.0, rng), H=tup,
            b_list=[random_hermitian(2, 1.0, rng) for _ in range(2)])
        back = multi_instance_from_json(multi_instance_to_json(inst))
        assert back.b_list is not None
        assert all(np.array_equal(x.mat, y.mat)
                   for x, y in zip(back.b_list, inst.b_list))

    def test_instance_needs_exactly_one_matrix_family(self):
        tup = random_contraction_tuple(1, 2, 2, True, 8)
        base = multi_instance_to_json(
            MultiInstance(L=random_hermitian(2, 1.0, 9), H=tup,
                          a_list=[random_pd(2, (0.05, 5.0), 10)]))
        both = dict(base)
        both["B"] = both["A"]
        with pytest.raises(ParseError):
            multi_instance_from_json(both)
        neither = {k: v for k, v in base.items() if k != "A"}
        with pytest.raises(ParseError):
            multi_instance_from_json(neither)


class TestFiles:
    def test_dump_and_load(self, tmp_path):
        path = tmp_path / "m.json"
        obj = matrix_to_json(random_pd(3, (0.5, 2.0), 11).mat)
        dump_json(obj, path)
        assert load_json(path) == obj

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_json(tmp_path / "absent.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_json(path)


class TestReadFields:
    def test_reads_each_kind_in_field_order(self):
        a = matrix_to_json(np.diag([2.0, 3.0]))
        obj = {"B": a, "A": a, "H": a, "p": 0.5, "lam": 0.25, "A2": [a, a]}
        out = read_fields(obj, {"A": "pd", "B": "hermitian", "H": "matrix", "p": "float",
                                "lam": "floats", "A2": "pd_list"})
        assert list(out) == ["A", "B", "H", "p", "lam", "A2"]
        assert out["A"].min_eigenvalue == pytest.approx(2.0)
        assert out["p"] == 0.5 and out["lam"] == (0.25,)
        assert len(out["A2"]) == 2

    def test_multi_reads_the_whole_object(self):
        rng = make_rng(4)
        inst = MultiInstance(L=random_hermitian(2, 1.0, rng),
                             H=random_contraction_tuple(2, 2, 2, True, rng),
                             a_list=[random_pd(2, (0.5, 2.0), rng) for _ in range(2)])
        obj = {**multi_instance_to_json(inst), "t": [0.5, 2.0]}
        out = read_fields(obj, {"inst": "multi", "t": "floats"})
        assert np.array_equal(out["inst"].L.mat, inst.L.mat)
        assert out["t"] == (0.5, 2.0)

    @pytest.mark.parametrize("bad", ["half", None, [1.0]])
    def test_malformed_float_names_the_key(self, bad):
        with pytest.raises(ParseError, match="'p'"):
            read_fields({"p": bad}, {"p": "float"}, "f.json")

    def test_missing_key(self):
        with pytest.raises(ParseError, match="missing required key 'B'"):
            read_fields({"A": matrix_to_json(np.eye(2))}, {"A": "pd", "B": "pd"})
        out = read_fields({"A": matrix_to_json(np.eye(2))}, {"A": "pd", "B": "pd"},
                          required=False)
        assert list(out) == ["A"]

    def test_rejects_non_object(self):
        with pytest.raises(ParseError):
            read_fields([1, 2], {"A": "pd"})
