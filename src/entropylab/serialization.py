"""JSON wire formats for matrices, contraction tuples, and instances.

A matrix is ``{"rows": int, "cols": int, "data": [[re, im], ...]}`` with the
entries flattened in row-major order.  Floats round-trip exactly (json writes
the shortest repr of an IEEE double), so dumped instances re-evaluate to
bit-identical results.

An instance object is read field by field with :func:`read_fields`, which
the CLI (``eval``, ``optimize``) and check replay share.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ParseError
from .matrix_core import (
    ContractionTuple,
    HermitianMatrix,
    PositiveDefiniteMatrix,
    as_complex_matrix,
)


def matrix_to_json(M) -> dict:
    a = as_complex_matrix(M)
    data = [[float(z.real), float(z.imag)] for z in a.ravel(order="C")]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def matrix_from_json(obj, name: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError(f"{name}: expected a JSON object, got {type(obj).__name__}")
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{name}: missing or malformed rows/cols/data: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ParseError(f"{name}: rows and cols must be >= 1, got {rows} x {cols}")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ParseError(f"{name}: data must hold rows*cols = {rows * cols} entries")
    flat = np.empty(rows * cols, dtype=np.complex128)
    for i, pair in enumerate(data):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"{name}: entry {i} is not a [re, im] pair")
        flat[i] = complex(float(pair[0]), float(pair[1]))
    a = flat.reshape(rows, cols)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ParseError(f"{name}: non-finite entries")
    return a


def hermitian_from_json(obj, name: str = "matrix") -> HermitianMatrix:
    return HermitianMatrix(matrix_from_json(obj, name))


def pd_from_json(obj, name: str = "matrix") -> PositiveDefiniteMatrix:
    return PositiveDefiniteMatrix(matrix_from_json(obj, name))


def contraction_tuple_to_json(t: ContractionTuple) -> dict:
    return {
        "H": [matrix_to_json(b) for b in t.blocks],
        "sum_is_identity": t.sum_is_identity,
    }


def contraction_tuple_from_json(obj, name: str = "contraction tuple") -> ContractionTuple:
    if not isinstance(obj, dict) or "H" not in obj:
        raise ParseError(f"{name}: expected an object with an 'H' block list")
    blocks_json = obj["H"]
    if not isinstance(blocks_json, list) or not blocks_json:
        raise ParseError(f"{name}: 'H' must be a non-empty list of matrices")
    blocks = [matrix_from_json(b, name=f"{name} block {i}") for i, b in enumerate(blocks_json)]
    return ContractionTuple(blocks, sum_is_identity=bool(obj.get("sum_is_identity", False)))


def multi_instance_to_json(inst) -> dict:
    out = {
        "L": matrix_to_json(inst.L),
        "H": [matrix_to_json(b) for b in inst.H.blocks],
        "sum_is_identity": inst.H.sum_is_identity,
    }
    if inst.a_list is not None:
        out["A"] = [matrix_to_json(a) for a in inst.a_list]
    else:
        out["B"] = [matrix_to_json(b) for b in inst.b_list]
    return out


def multi_instance_from_json(obj, name: str = "instance"):
    from .functionals import MultiInstance

    if not isinstance(obj, dict):
        raise ParseError(f"{name}: expected a JSON object")
    for key in ("L", "H"):
        if key not in obj:
            raise ParseError(f"{name}: missing required key '{key}'")
    if ("A" in obj) == ("B" in obj):
        raise ParseError(f"{name}: exactly one of 'A' or 'B' must be present")
    L = hermitian_from_json(obj["L"], name=f"{name}.L")
    tup = contraction_tuple_from_json(obj, name=f"{name}.H")
    if "A" in obj:
        if not isinstance(obj["A"], list):
            raise ParseError(f"{name}: 'A' must be a list of matrices")
        a_list = [pd_from_json(a, name=f"{name}.A[{i}]") for i, a in enumerate(obj["A"])]
        return MultiInstance(L=L, H=tup, a_list=a_list)
    if not isinstance(obj["B"], list):
        raise ParseError(f"{name}: 'B' must be a list of matrices")
    b_list = [hermitian_from_json(b, name=f"{name}.B[{i}]") for i, b in enumerate(obj["B"])]
    return MultiInstance(L=L, H=tup, b_list=b_list)


def _float(obj, name: str) -> float:
    try:
        return float(obj)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{name}: expected a number, got {obj!r}") from exc


def _floats(obj, name: str) -> tuple:
    items = obj if isinstance(obj, list) else [obj]
    return tuple(_float(x, name) for x in items)


def _pd_list(obj, name: str) -> list:
    if not isinstance(obj, list):
        raise ParseError(f"{name}: expected a list of matrices")
    return [pd_from_json(a, name=f"{name}[{i}]") for i, a in enumerate(obj)]


# Field kinds of an instance object: how one key's value is read.
_FIELD_READERS = {
    "pd": pd_from_json,
    "hermitian": hermitian_from_json,
    "matrix": matrix_from_json,
    "float": _float,
    "floats": _floats,           # a number or a list of numbers, as a tuple
    "pd_list": _pd_list,
}


def read_fields(obj, fields: dict, name: str = "instance", required: bool = True) -> dict:
    """Typed values of an instance object, one per entry of ``fields``
    (key -> kind), in the order of ``fields``.

    The kind ``"multi"`` reads the whole object as a MultiInstance (keys L,
    H, A or B, sum_is_identity); every other kind reads its own key with
    ``_FIELD_READERS``.  A missing key raises ParseError, or is left out when
    ``required`` is false.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"{name}: expected a JSON object, got {type(obj).__name__}")
    out = {}
    for key, kind in fields.items():
        if kind == "multi":
            out[key] = multi_instance_from_json(obj, name=name)
        elif key in obj:
            out[key] = _FIELD_READERS[kind](obj[key], f"{name}: key '{key}'")
        elif required:
            raise ParseError(f"{name}: missing required key '{key}'")
    return out


def dump_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path):
    p = Path(path)
    try:
        return json.loads(p.read_text())
    except OSError as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
