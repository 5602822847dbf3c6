import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sampling_reference as ref

from entropylab import cli, verifiers
from entropylab.errors import (
    DimensionError,
    DomainError,
    OutputError,
    ParseError,
)
from entropylab.functionals import MultiInstance
from entropylab.matrix_core import (
    ContractionTuple,
    HermitianMatrix,
    make_rng,
    random_contraction_tuple,
    random_hermitian,
    random_pd,
)
from entropylab.serialization import (
    _Later,
    contraction_tuple_from_json,
    contraction_tuple_to_json,
    dump_json,
    dumps,
    hermitian_from_json,
    instance_to_json,
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
        {"rows": 1, "cols": 1, "data": [[None, 0.0]]},
        {"rows": 1, "cols": 1, "data": [{"re": 1.0, "im": 0.0}]},
        {"rows": 1, "cols": 1, "data": [[1.0, 0.0, 0.0]]},
        {"rows": 1, "cols": 1, "data": [[[1.0, 0.0], 0.0]]},
        {"rows": 1, "cols": 1, "data": [[[1.0, 0.0]]]},
        pytest.param({"rows": 1, "cols": 1, "data": [[10 ** 400, 0.0]]}, id="400-digit"),
        {"rows": 1, "cols": 2, "data": [[1.0, 0.0], [1.0]]},
        {"rows": 1, "cols": 1, "data": "[[1.0, 0.0]]"},
        # A JSON boolean is not a number, nor is a pair written as a string.
        pytest.param({"rows": 1, "cols": 1, "data": [[True, False]]}, id="true-false"),
        pytest.param({"rows": 1, "cols": 2, "data": [[1.0, 0.0], [0.0, False]]}, id="one-false"),
        pytest.param({"rows": 1, "cols": 2, "data": ["12", "34"]}, id="string-pairs"),
        {"rows": float("inf"), "cols": 1, "data": [[1.0, 0.0]]},
        # rows and cols must be JSON integers: no truncation, no booleans.
        pytest.param({"rows": 2.9, "cols": 1, "data": [[1.0, 0.0], [2.0, 0.0]]}, id="rows-2.9"),
        pytest.param({"rows": 1, "cols": 1.0, "data": [[1.0, 0.0]]}, id="cols-1.0"),
        pytest.param({"rows": True, "cols": 1, "data": [[1.0, 0.0]]}, id="rows-true"),
        pytest.param({"rows": 1, "cols": "1", "data": [[1.0, 0.0]]}, id="cols-string"),
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ParseError):
            matrix_from_json(bad)

    @pytest.mark.parametrize("pair", [
        [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [5e-324, -5e-324],
        [2.2250738585072014e-308, 1e-310],
        [1.7976931348623157e308, -1.7976931348623157e308], [0.1, 1 / 3],
        [1, -2], [2 ** 53 + 1, 2 ** 63], [2 ** 64 + 1, 10 ** 300],
        ["1.5", " -2.5e-3\n"], ["1_0", "-0"], ["1e-320", "+0.1"],
    ])
    def test_entries_read_to_the_bits_of_float(self, pair):
        # The reader must give each part exactly float(part), signed zeros
        # and subnormals included.
        a = matrix_from_json({"rows": 1, "cols": 1, "data": [pair]})
        want = np.array([float(pair[0]), float(pair[1])])
        got = np.array([a[0, 0].real, a[0, 0].imag])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # Writing it back gives the same bits, as Python floats.
        written = matrix_to_json(a)["data"]
        assert [type(x) for x in written[0]] == [float, float]
        assert np.array_equal(np.array(written).view(np.uint64), want.view(np.uint64)[None])

    @pytest.mark.parametrize("view", ["adjoint", "stack_entry", "strided"])
    def test_views_write_the_bits_of_their_entries(self, view):
        # Signed zeros, subnormals and the extremes, read from a view that is
        # not C-contiguous, in row-major order of the view.
        parts = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                          1.7976931348623157e308, -0.1, 1 / 3, -0.0, 7.0, -2.5e-3])
        base = (parts[:6] + 1j * parts[6:]).reshape(2, 3)
        a = {"adjoint": base.conj().T,
             "stack_entry": np.stack([base, -base], axis=-1)[..., 0],
             "strided": np.repeat(base, 2, axis=1)[:, ::2]}[view]
        assert not a.flags.c_contiguous
        obj = matrix_to_json(a)
        want = [[float(z.real), float(z.imag)] for z in np.ascontiguousarray(a).ravel()]
        assert (obj["rows"], obj["cols"]) == a.shape
        assert np.array_equal(np.array(obj["data"]).view(np.uint64),
                              np.array(want).view(np.uint64))
        read = matrix_from_json(obj).view(np.uint64)
        assert np.array_equal(read, np.ascontiguousarray(a).view(np.uint64))

    def test_entries_are_in_row_major_order(self):
        obj = {"rows": 2, "cols": 3, "data": [[float(i), -float(i)] for i in range(6)]}
        a = matrix_from_json(obj)
        assert a.shape == (2, 3) and a.dtype == np.complex128
        assert np.array_equal(a, (np.arange(6) * (1 - 1j)).reshape(2, 3))

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

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [False]])
    def test_sum_is_identity_must_be_a_boolean(self, flag):
        # bool("false") is True: a string flag once read as an isometric tuple.
        obj = {"H": [matrix_to_json(np.array([[0.5]]))], "sum_is_identity": flag}
        with pytest.raises(ParseError, match="'sum_is_identity'"):
            contraction_tuple_from_json(obj)

    def test_missing_sum_is_identity_means_false(self):
        tup = contraction_tuple_from_json({"H": [matrix_to_json(np.array([[0.5]]))]})
        assert tup.sum_is_identity is False

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

    def test_load_deeply_nested_json_names_the_file(self, tmp_path):
        # Past the interpreter's recursion limit json.loads raises
        # RecursionError, which must reach the caller as a ParseError.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: .*nested too deeply"):
            load_json(path)

    def test_load_non_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(ParseError, match=f"cannot read {re.escape(str(path))}: .*utf-8"):
            load_json(path)


class TestWriter:
    """``dump_json`` rewrites a file in place and leaves what a truncating
    write leaves."""

    @staticmethod
    def _text(obj) -> bytes:
        return (dumps(obj) + "\n").encode()

    def test_rewrite_keeps_the_inode(self, tmp_path):
        path = tmp_path / "r.json"
        dump_json({"a": 1}, path)
        inode = path.stat().st_ino
        dump_json({"b": [1.5, 2.5]}, path)
        assert path.stat().st_ino == inode
        assert path.read_bytes() == self._text({"b": [1.5, 2.5]})

    @pytest.mark.parametrize("old, new", [
        ({"data": list(range(50))}, {"x": 0}),      # shorter: cut to length
        ({"x": 0}, {"data": list(range(50))}),      # longer
    ])
    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, old, new):
        path = tmp_path / "r.json"
        dump_json(old, path)
        dump_json(new, path)
        assert path.read_bytes() == self._text(new)

    def test_rewrite_keeps_the_mode_and_a_hard_link(self, tmp_path):
        path, link = tmp_path / "r.json", tmp_path / "link.json"
        dump_json({"data": list(range(20))}, path)
        path.chmod(0o640)
        os.link(path, link)
        dump_json({"x": 0}, path)
        assert path.stat().st_mode & 0o777 == 0o640
        assert path.stat().st_nlink == 2
        assert link.read_bytes() == self._text({"x": 0})

    def test_symlink_keeps_pointing_at_its_target(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        dump_json({"data": list(range(20))}, target)
        link.symlink_to(target)
        dump_json({"x": 0}, link)
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == self._text({"x": 0})

    def test_writes_to_a_device(self):
        dump_json({"x": 0}, os.devnull)

    def test_opens_without_truncation(self, tmp_path, monkeypatch):
        flags = []
        real_open = os.open

        def spy(path, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        dump_json({"x": 0}, tmp_path / "r.json")
        dump_json({"x": 1}, tmp_path / "r.json")
        assert len(flags) == 2
        assert not any(flag & os.O_TRUNC for flag in flags)

    def test_unwritable_path_names_the_path(self, tmp_path):
        path = tmp_path / "absent" / "r.json"
        with pytest.raises(OutputError, match=f"cannot write {re.escape(str(path))}: "):
            dump_json({"x": 0}, path)


def _stdlib(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


# Pair lists as matrix objects hold them, with the floats whose repr is
# least regular; and ones holding NaN or an infinity, which the stdlib writes.
_edge_floats = st.sampled_from([-0.0, 5e-324, 1e16, 1e-5])
_pair_lists = st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False) | _edge_floats,
                                min_size=2, max_size=2), max_size=5)
_non_finite_pair_lists = st.lists(st.lists(st.floats(), min_size=2, max_size=2),
                                  min_size=1, max_size=3)
_scalars = (st.none() | st.booleans() | st.integers(-2 ** 100, 2 ** 100) | st.floats()
            | st.floats().map(np.float64) | st.text())
_json_values = st.recursive(
    _scalars | _pair_lists | _non_finite_pair_lists,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)
                   | st.dictionaries(st.integers(), inner, max_size=2)),
    max_leaves=16)


class TestDumps:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_json_values)
    @example({"data": [[-0.0, 5e-324], [1e16, 1e-5]], "rows": 1, "cols": 2})
    @example([[float("nan"), 1.0], [float("inf"), -float("inf")]])
    @example({"é\x00\u2028\U0001f600": ["\x1f\t\"\\", 2 ** 70, True, False, None]})
    @example({1: [[1.0, 2.0]], 2: {}})
    @example({"a": [], "b": {}, "c": (), "d": [[]], "e": [[1.0]], "f": [[1.0, 2]]})
    @example([np.float64(0.1), [np.float64(1.5), 2.0]])
    def test_equals_the_stdlib(self, value):
        assert dumps(value) == _stdlib(value)

    def test_matrix_objects_are_written_without_the_stdlib(self, monkeypatch):
        obj = {"instance": {"A": [matrix_to_json(random_pd(4, (0.5, 2.0), 3))]}, "gap": 1e-3}
        expected = _stdlib(obj)

        def stdlib_called(*args, **kwargs):
            raise AssertionError("dumps fell back to json.dumps")

        monkeypatch.setattr(json, "dumps", stdlib_called)
        assert dumps(obj) == expected

    @pytest.mark.parametrize("value", [{"a": {1, 2}}, {1: 1, "b": 2}, [np.int64(3)]])
    def test_what_the_stdlib_rejects_raises_as_there(self, value):
        with pytest.raises(TypeError) as stdlib_error:
            _stdlib(value)
        with pytest.raises(TypeError, match=re.escape(str(stdlib_error.value))):
            dumps(value)


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

    @pytest.mark.parametrize("bad", ["half", None, [1.0], pytest.param(10 ** 400, id="400-digit"),
                                     True, False])
    def test_malformed_float_names_the_key(self, bad):
        with pytest.raises(ParseError, match="'p'"):
            read_fields({"p": bad}, {"p": "float"}, "f.json")

    @pytest.mark.parametrize("kind,value", [("floats", True), ("floats", [0.5, False]),
                                            ("weights", [True]), ("weights", [0.25, True])])
    def test_boolean_in_a_number_list_names_the_key(self, kind, value):
        with pytest.raises(ParseError, match="'t'.*expected a number"):
            read_fields({"t": value}, {"t": kind}, "f.json")

    def test_numbers_and_numeric_strings_keep_their_bits(self):
        obj = {"p": "0.1", "t": [1, "2.5e-3", -0.0], "lam": [0.25, "0.75"]}
        out = read_fields(obj, {"p": "float", "t": "floats", "lam": "weights"})
        assert out == {"p": 0.1, "t": (1.0, 2.5e-3, -0.0), "lam": (0.25, 0.75)}
        assert math.copysign(1.0, out["t"][2]) == -1.0

    def test_missing_key(self):
        with pytest.raises(ParseError, match="missing required key 'B'"):
            read_fields({"A": matrix_to_json(np.eye(2))}, {"A": "pd", "B": "pd"})
        out = read_fields({"A": matrix_to_json(np.eye(2))}, {"A": "pd", "B": "pd"},
                          required=False)
        assert list(out) == ["A"]

    def test_rejects_non_object(self):
        with pytest.raises(ParseError):
            read_fields([1, 2], {"A": "pd"})

    def test_a_list_of_good_objects_is_not_read(self):
        # read_fields reads one object and names the list's type.
        obj = {"A": matrix_to_json(np.eye(2))}
        for objs in ([obj], [obj, obj], []):
            with pytest.raises(ParseError, match="^f.json: expected a JSON object, got list$"):
                read_fields(objs, {"A": "pd"}, "f.json")


def _bits(value):
    """A read value as nested tuples of its types, shapes and bytes: its
    matrices, kept spectra (or None) and min_eigenvalue, flags and numbers."""
    if isinstance(value, dict):
        return tuple((key, _bits(v)) for key, v in value.items())
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, *map(_bits, value))
    if isinstance(value, MultiInstance):
        return ("multi", *(_bits(getattr(value, f)) for f in ("L", "H", "a_list", "b_list")))
    if isinstance(value, ContractionTuple):
        return ("tuple", value.k, value.m, value.n, _bits(value.sum_is_identity),
                _bits(value.blocks))
    if isinstance(value, HermitianMatrix):
        spectrum = value._spectrum and (value._spectrum.eigenvalues, value._spectrum.eigenvectors)
        return (type(value).__name__, _bits(value.mat), _bits(spectrum),
                _bits(getattr(value, "min_eigenvalue", None)))
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype.str, value.tobytes()
    if isinstance(value, float):
        return float.hex(value)
    return value


def _signature(obj):
    """What the instance objects that stack share: matrix shapes, list
    lengths, flags and keys."""
    if isinstance(obj, dict):
        if "data" in obj:
            return obj["rows"], obj["cols"]
        return tuple((key, _signature(v)) for key, v in sorted(obj.items()))
    if isinstance(obj, list):
        return tuple(map(_signature, obj))
    return obj if isinstance(obj, bool) else type(obj).__name__


class TestReadStacked:
    """The reads of a list of instance objects, their checked values left
    unbuilt, are built as one instance of stacked values by the walk of
    witness re-verification."""

    @pytest.mark.parametrize("name", list(verifiers.CHECKS))
    def test_a_list_reads_as_the_reads_of_its_objects_stacked(self, name):
        # Every dump that replay reads: each comparison's instance, for six
        # trials built alone, read with the check's own fields.
        spec = verifiers._SPECS[name]
        cfg = verifiers.CheckConfig(trials=6, seed=3, dims=((2, 3, 3),))
        groups = {}
        for t in range(cfg.trials):
            instance = ref.sample(spec, verifiers.trial_rng(cfg.seed, t), spec.dims(cfg), t)
            for c in spec.compare(instance, cfg, spec.functionals()):
                dump = json.loads(json.dumps(instance_to_json(**c.dump)))
                groups.setdefault((c.kind, _signature(dump)), []).append(dump)
        assert max(map(len, groups.values())) >= 3
        for objs in groups.values():
            alone = [read_fields(o, spec.fields, required=False) for o in objs]
            stacked = _read_stacked(objs, spec.fields, required=False)
            assert _bits(stacked) == _bits(verifiers._stacked(alone))

    def test_isometric_and_strict_tuples_stack_with_a_flag_per_object(self):
        fields = {"inst": "multi"}

        def dump(isometric, seed):
            tup = random_contraction_tuple(2, 2, 2, isometric, seed)
            inst = MultiInstance(L=random_hermitian(2, 1.0, seed), H=tup,
                                 a_list=[random_pd(2, seed=seed + 1), random_pd(2, seed=seed + 2)])
            return json.loads(json.dumps(multi_instance_to_json(inst)))

        objs = [dump(True, 70), dump(False, 71), dump(True, 72)]
        alone = [read_fields(o, fields) for o in objs]
        stacked = _read_stacked(objs, fields)
        assert _bits(stacked) == _bits(verifiers._stacked(alone))
        flags = stacked["inst"].H.sum_is_identity
        assert flags.tolist() == [True, False, True]
        assert [read["inst"].H.sum_is_identity for read in alone] == flags.tolist()

    @pytest.mark.parametrize("dims", [[], ["--dims", "2,8,8"]])
    def test_each_witness_alone_replays_its_stacked_reverified_gap(self, tmp_path, dims):
        # A witness's reverified_gap comes from the stacked read of its
        # group's dumps; re_evaluate reads the record alone from the written
        # report (read_fields).  The gaps are the same bits.
        argv = ["check", "gt_route_gap", "--trials", "200", "--seed", "7", *dims,
                "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 0
        witnesses = load_json(tmp_path / "gt_route_gap.json")["violations"]
        assert witnesses
        for w in witnesses:
            redo = verifiers.re_evaluate("gt_route_gap", w)
            assert float.hex(redo["gap"]) == float.hex(w["reverified_gap"])


def _read_stacked(objs, fields: dict, required: bool = True) -> dict:
    """The read of witness re-verification: each object read with its
    checked values unbuilt, then built once on the stack (``_stacked``)."""
    return verifiers._stacked([read_fields(o, fields, required=required, make=_Later)
                               for o in objs])


def _instance_json() -> dict:
    tup = random_contraction_tuple(1, 2, 2, True, 61)
    return multi_instance_to_json(
        MultiInstance(L=random_hermitian(2, 1.0, 60), H=tup, a_list=[random_pd(2, seed=62)]))


class TestTypedErrors:
    """Each reader rejects a malformed object with a ParseError that names
    the cause, and the writer a stack with a DimensionError."""

    def test_a_stack_is_not_one_json_matrix(self):
        with pytest.raises(DimensionError, match=r"got a stack of shape \(2, 3, 3\)"):
            matrix_to_json(np.zeros((2, 3, 3)))

    @pytest.mark.parametrize("obj,match", [
        ([], "expected an object with an 'H' block list"),
        ({"sum_is_identity": True}, "expected an object with an 'H' block list"),
        ({"H": []}, "'H' must be a non-empty list of matrices"),
        ({"H": {"rows": 1}}, "'H' must be a non-empty list of matrices"),
    ])
    def test_malformed_tuple(self, obj, match):
        with pytest.raises(ParseError, match=match):
            contraction_tuple_from_json(obj)

    @pytest.mark.parametrize("edit,match", [
        (lambda obj: [obj], "inst: expected a JSON object"),
        (lambda obj: {k: v for k, v in obj.items() if k != "L"}, "missing required key 'L'"),
        (lambda obj: {k: v for k, v in obj.items() if k != "H"}, "missing required key 'H'"),
        (lambda obj: {**obj, "A": obj["A"][0]}, "'A' must be a list of matrices"),
        (lambda obj: {**{k: v for k, v in obj.items() if k != "A"}, "B": obj["A"][0]},
         "'B' must be a list of matrices"),
    ])
    def test_malformed_instance(self, edit, match):
        with pytest.raises(ParseError, match=match):
            multi_instance_from_json(edit(_instance_json()), name="inst")

    def test_pd_list_must_be_a_list(self):
        with pytest.raises(ParseError, match="key 'A2'.*expected a list of matrices"):
            read_fields({"A2": matrix_to_json(np.eye(2))}, {"A2": "pd_list"})
