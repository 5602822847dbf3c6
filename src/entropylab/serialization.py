"""JSON wire formats for matrices, contraction tuples, and instances.

A matrix is ``{"rows": int, "cols": int, "data": [[re, im], ...]}`` with the
entries flattened in row-major order.  Floats round-trip exactly (json writes
the shortest repr of an IEEE double), so a dumped instance reads back to the
entries it was dumped from.  Its values agree with those of the check that
dumped it to round-off only: a read-back positive definite matrix is
decomposed by ``eigh``, where the check used its drawn spectrum, so witness
re-verification allows a gap difference of 1e-12.

One instance object is read field by field with :func:`read_fields`, which
the CLI (``eval``, ``optimize``), check replay and witness re-verification
share; a list is a ParseError.  :func:`instance_to_json` writes a record's.

Every JSON text the package writes (check reports, the summary, ``gen`` and
``eval --out`` files, ``optimize`` output) comes from :func:`dumps`, which
returns exactly ``json.dumps(obj, indent=2, sort_keys=True)``.  The stdlib
encodes an indented text in pure Python, one call per value; ``dumps``
writes a list of ``[re, im]`` pairs of finite floats (the ``data`` of a
matrix object) with one ``float.__repr__`` per number and one join, and
every other value as the stdlib would, with its string encoder.  A value it
does not write itself, a non-finite float, a key that is not a string or
a type other than dict, list, tuple, str, int, float, bool and None, sends
the whole object to the stdlib encoder, which gives its text or its error.

Every output file is written by :func:`dump_json`, in place: it opens the
path without ``O_TRUNC``, writes the text from offset 0 and, when the path
is a regular file, cuts it to the written length.  The bytes, the inode,
the file mode, hard links and symlinks end up as a truncating write leaves
them, and a device such as ``/dev/null`` or ``/dev/stdout`` is written as
before.  Truncating an existing file to length 0, as ``open(path, "w")``
does, makes ext4 (with its default ``auto_da_alloc``) start write-back of
the file when it is closed, and the next truncation of that file waits for
that I/O: ``check`` rewrites ``summary.json`` on every run, so each run
paid the disk's write latency.  A truncation to a non-zero length does
not start it.  An ``OSError`` while writing becomes an
:class:`~entropylab.errors.OutputError` naming the path, as a failed read
becomes a :class:`~entropylab.errors.ParseError`.
"""

from __future__ import annotations

import json
import os
import stat
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from math import isfinite
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DimensionError, OutputError, ParseError
from .functionals import MultiInstance
from .matrix_core import (
    Contraction,
    ContractionTuple,
    HermitianMatrix,
    PositiveDefiniteMatrix,
    as_complex_matrix,
)


def matrix_to_json(M) -> dict:
    a = as_complex_matrix(M)
    if a.ndim != 2:
        raise DimensionError(f"a JSON matrix holds one matrix, got a stack of shape {a.shape}")
    data = np.stack((a.real, a.imag), axis=-1).reshape(-1, 2).tolist()
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def matrix_from_json(obj, name: str = "matrix") -> np.ndarray:
    """The ``rows x cols`` complex matrix of a JSON matrix object.

    ``rows`` and ``cols`` must be JSON integers (not booleans), and each
    entry of ``data`` a list ``[re, im]`` of two numbers (or of strings that
    ``float`` reads); anything else, a boolean, a number too large for a
    double, null, or a non-finite value is a ParseError naming ``name``.
    The pairs are flattened and read as one float array, viewed as complex,
    so every part keeps its exact bits, the sign of a zero included.  Reading
    the flat list rather than the nested one saves about what the type test
    of the parts costs.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"{name}: expected a JSON object, got {type(obj).__name__}")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise ParseError(f"{name}: missing key '{key}'")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    for key, count in (("rows", rows), ("cols", cols)):
        if not isinstance(count, int) or isinstance(count, bool):
            raise ParseError(f"{name}: key '{key}' must be an integer, got {count!r}")
    if rows < 1 or cols < 1:
        raise ParseError(f"{name}: rows and cols must be >= 1, got {rows} x {cols}")
    expected = f"{name}: data must hold rows*cols = {rows * cols} [re, im] pairs of numbers"
    if (not isinstance(data, list) or len(data) != rows * cols
            or set(map(type, data)) != {list} or set(map(len, data)) != {2}):
        raise ParseError(expected)
    parts = list(chain.from_iterable(data))
    if bool in set(map(type, parts)):
        raise ParseError(f"{expected}, not true or false")
    try:
        pairs = np.array(parts, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{expected}: {exc}") from exc
    if not np.isfinite(pairs).all():
        raise ParseError(f"{name}: non-finite or null entries")
    return pairs.view(np.complex128).reshape(rows, cols)


def _now(make: Callable, *args):
    """``make(*args)``: how a reader builds each checked value of one object."""
    return make(*args)


class _Later:
    """A checked value not yet built: ``make(*args)``.  Witness
    re-verification reads each dump of a group with these, and
    ``verifiers._stacked`` builds each one once, on the stack of the dumps'
    arguments."""

    __slots__ = ("make", "args")

    def __init__(self, make: Callable, *args):
        self.make, self.args = make, args


def hermitian_from_json(obj, name: str = "matrix", make: Callable = _now) -> HermitianMatrix:
    return make(HermitianMatrix, matrix_from_json(obj, name))


def pd_from_json(obj, name: str = "matrix", make: Callable = _now) -> PositiveDefiniteMatrix:
    return make(PositiveDefiniteMatrix, matrix_from_json(obj, name))


def contraction_tuple_to_json(t: ContractionTuple) -> dict:
    return {
        "H": [matrix_to_json(b) for b in t.blocks],
        "sum_is_identity": t.sum_is_identity,
    }


def contraction_tuple_from_json(obj, name: str = "contraction tuple",
                                make: Callable = _now) -> ContractionTuple:
    if not isinstance(obj, dict) or "H" not in obj:
        raise ParseError(f"{name}: expected an object with an 'H' block list")
    blocks_json = obj["H"]
    if not isinstance(blocks_json, list) or not blocks_json:
        raise ParseError(f"{name}: 'H' must be a non-empty list of matrices")
    blocks = [matrix_from_json(b, name=f"{name} block {i}") for i, b in enumerate(blocks_json)]
    flag = obj.get("sum_is_identity", False)
    if not isinstance(flag, bool):
        raise ParseError(f"{name}: key 'sum_is_identity' must be true or false, got {flag!r}")
    return make(ContractionTuple, blocks, flag)


def multi_instance_to_json(inst) -> dict:
    out = {"L": matrix_to_json(inst.L), **contraction_tuple_to_json(inst.H)}
    if inst.a_list is not None:
        out["A"] = [matrix_to_json(a) for a in inst.a_list]
    else:
        out["B"] = [matrix_to_json(b) for b in inst.b_list]
    return out


def instance_to_json(**values) -> dict:
    """JSON instance of a check record: a MultiInstance merged in at the top
    level, matrices as matrix objects, lists as lists of them, anything else
    as is."""
    out = {}
    for key, value in values.items():
        if isinstance(value, MultiInstance):
            out.update(multi_instance_to_json(value))
        elif isinstance(value, (list, tuple)):
            out[key] = [matrix_to_json(m) for m in value]
        elif isinstance(value, (np.ndarray, HermitianMatrix, Contraction)):
            out[key] = matrix_to_json(value)
        else:
            out[key] = value
    return out


def multi_instance_from_json(obj, name: str = "instance", make: Callable = _now):
    if not isinstance(obj, dict):
        raise ParseError(f"{name}: expected a JSON object")
    for key in ("L", "H"):
        if key not in obj:
            raise ParseError(f"{name}: missing required key '{key}'")
    if ("A" in obj) == ("B" in obj):
        raise ParseError(f"{name}: exactly one of 'A' or 'B' must be present")
    L = hermitian_from_json(obj["L"], f"{name}.L", make)
    tup = contraction_tuple_from_json(obj, f"{name}.H", make)
    if "A" in obj:
        if not isinstance(obj["A"], list):
            raise ParseError(f"{name}: 'A' must be a list of matrices")
        a_list = [pd_from_json(a, f"{name}.A[{i}]", make) for i, a in enumerate(obj["A"])]
        return make(MultiInstance, L, tup, a_list, None)
    if not isinstance(obj["B"], list):
        raise ParseError(f"{name}: 'B' must be a list of matrices")
    b_list = [hermitian_from_json(b, f"{name}.B[{i}]", make) for i, b in enumerate(obj["B"])]
    return make(MultiInstance, L, tup, None, b_list)


def _float(obj, name: str) -> float:
    if isinstance(obj, bool):  # float() would read true as 1.0
        raise ParseError(f"{name}: expected a number, got {obj!r}")
    try:
        return float(obj)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{name}: expected a number, got {obj!r}") from exc


def _floats(obj, name: str) -> tuple:
    items = obj if isinstance(obj, list) else [obj]
    return tuple(_float(x, name) for x in items)


def _weights(obj, name: str) -> tuple:
    weights = _floats(obj, name)
    if not all(0.0 < w < 1.0 for w in weights):
        raise ParseError(f"{name}: weights must lie in (0, 1), got {list(weights)}")
    return weights


def _pd_list(obj, name: str, make: Callable) -> list:
    if not isinstance(obj, list):
        raise ParseError(f"{name}: expected a list of matrices")
    return [pd_from_json(a, f"{name}[{i}]", make) for i, a in enumerate(obj)]


# Field kinds of an instance object: how one key's value is read, given how
# a checked value is built.
_FIELD_READERS = {
    "pd": pd_from_json,
    "hermitian": hermitian_from_json,
    "matrix": lambda obj, name, make: matrix_from_json(obj, name),
    "float": lambda obj, name, make: _float(obj, name),
    "floats": lambda obj, name, make: _floats(obj, name),     # a number or a list, as a tuple
    "weights": lambda obj, name, make: _weights(obj, name),   # the same, each in (0, 1)
    "pd_list": _pd_list,
}


def read_fields(obj, fields: dict, name: str = "instance", required: bool = True,
                make: Callable = _now) -> dict:
    """Typed values of one instance object, one per entry of ``fields``
    (key -> kind), in the order of ``fields``.

    The kind ``"multi"`` reads the whole object as a MultiInstance (keys L,
    H, A or B, sum_is_identity); every other kind reads its own key with
    ``_FIELD_READERS``.  A missing key raises ParseError, or is left out when
    ``required`` is false.  Anything but a JSON object, a list included, is
    a ParseError.  ``make(type, *args)`` builds each checked value:
    :func:`_now` builds it at once, and ``_Later`` leaves it to be built
    later, on a stack of objects' arguments.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"{name}: expected a JSON object, got {type(obj).__name__}")
    out = {}
    for key, kind in fields.items():
        if kind == "multi":
            out[key] = multi_instance_from_json(obj, name, make)
        elif key in obj:
            out[key] = _FIELD_READERS[kind](obj[key], f"{name}: key '{key}'", make)
        elif required:
            raise ParseError(f"{name}: missing required key '{key}'")
    return out


class _Unwritten(Exception):
    """A value that :func:`dumps` leaves to the stdlib encoder."""


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, fast on the pair lists
    of matrix objects (see the module docstring)."""
    out: list = []
    try:
        _write(obj, out, "\n")
    except (_Unwritten, RecursionError):  # a cycle, too, is the stdlib's to report
        return json.dumps(obj, indent=2, sort_keys=True)
    return "".join(out)


def _write(value, out: list, nl: str) -> None:
    """Append the text of ``value`` to ``out``; ``nl`` is the newline and
    indent of the line the value starts on.  The type tests run in the
    order of the stdlib encoder's."""
    if isinstance(value, str):
        out.append(_json_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if not isfinite(value):
            raise _Unwritten
        out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        inner = nl + "  "
        if not value:
            out.append("[]")
        elif (pairs := _pairs(value, inner)) is not None:
            out += ("[", inner, pairs, nl, "]")
        else:
            sep = "[" + inner
            for item in value:
                out.append(sep)
                _write(item, out, inner)
                sep = "," + inner
            out.append(nl + "]")
    elif isinstance(value, dict):
        inner = nl + "  "
        if not value:
            out.append("{}")
        elif not all(isinstance(key, str) for key in value):
            raise _Unwritten
        else:
            sep = "{" + inner
            for key, item in sorted(value.items()):
                out += (sep, _json_str(key), ": ")
                _write(item, out, inner)
                sep = "," + inner
            out.append(nl + "}")
    else:
        raise _Unwritten


def _pairs(value, nl: str) -> str | None:
    """The items of a list of ``[re, im]`` lists of finite floats, each item
    on a line that starts with ``nl``; None for any other list."""
    if set(map(type, value)) != {list} or set(map(len, value)) != {2}:
        return None
    flat = list(chain.from_iterable(value))
    if set(map(type, flat)) != {float} or not all(map(isfinite, flat)):
        return None
    inner = nl + "  "
    parts = map(float.__repr__, flat)
    pairs = [re + "," + inner + im for re, im in zip(parts, parts)]
    return "[" + inner + (nl + "]," + nl + "[" + inner).join(pairs) + nl + "]"


def dump_json(obj, path) -> None:
    """Write ``dumps(obj)`` and a newline to ``path`` in place (see the
    module docstring)."""
    data = (dumps(obj) + "\n").encode()
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def load_json(path):
    """The JSON value of the file at ``path``, read as strict UTF-8 text.
    Its line ends are translated as a text-mode read translates them
    ("\\r\\n" and "\\r" to "\\n"), so a JSON error names the same line and
    column.  An unreadable file or invalid JSON is a ParseError."""
    p = path if isinstance(path, Path) else Path(path)
    try:
        with open(p, "rb") as f:
            text = f.read().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{p}: invalid JSON: nested too deeply") from exc
