"""JSON wire formats for the command line tools.

Every document carries a ``kind`` tag.  Scalars are plain numbers over
the real field and two-element ``[re, im]`` arrays over the complex
field; the shapes, with their fields in wire order, are:

    {"kind": "proj_point",    "field", "n", "h": [scalar, ...]}
    {"kind": "proj_map",      "field", "n", "M": [[scalar, ...], ...]}   row-major
    {"kind": "proj_subspace", "field", "n", "basis": [[scalar, ...], ...]}  column-major
    {"kind": "subspace",      "field", "n", "k", "basis": [[scalar, ...], ...]}  column-major
    {"kind": "hopf_point",    "field", "n", "lambda": scalar, "rep": [scalar, ...]}
    {"kind": "vector",        "field", "v": [scalar, ...]}
    {"kind": "matrix",        "field", "M": [[scalar, ...], ...]}        row-major
    {"kind": "extended_complex", "z": [re, im] or "inf"}

Decoding canonicalizes (any nonzero representative and any spanning set
will do) and checks the rest, raising :class:`InvalidInput` that names the
kind, the field and the bad value: every field above is required and no
other key is accepted; ``n`` and ``k`` are JSON integers equal to those of
the decoded object; numbers are finite, and never booleans, strings or
``null``; the rows of a matrix or basis have one length.  A complex scalar
may also be a plain number, and ``lambda`` is complex over either field.
:func:`dumps` prints every float at 17 significant digits, so that doubles
survive a round trip through text.
"""

import json
import reprlib
from typing import Callable, NamedTuple

import numpy as np

from projgeo.errors import InvalidInput, ProjGeoError
from projgeo.grassmann import ProjSubspace, Subspace, proj_subspace_from_span, subspace_from_span
from projgeo.hopf_manifold import HopfPoint, ScaleGroup, quotient_project
from projgeo.hopf_fibration import INFINITY, ExtendedComplex
from projgeo.numerics import (
    COMPLEX,
    DEFAULT_TOLERANCE,
    REAL,
    Tolerance,
    as_matrix,
    as_vector,
    field_of,
)
from projgeo.projective import ProjMap, ProjPoint, map_from_matrix, point_from_vector


FLOAT_FORMAT = "%.17g"  # 17 significant digits: every double round-trips


def dumps(value) -> str:
    """Deterministic JSON text with floats at 17 significant digits."""
    out: list[str] = []
    _write(value, out)
    return "".join(out)


def _write(value, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(FLOAT_FORMAT % float(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _write(item, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(", ")
            _write(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _json(x):
    """A payload value as JSON: arrays as nested lists, complex numbers as [re, im] pairs."""
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, list):
        return [_json(e) for e in x]
    return [x.real, x.imag] if isinstance(x, complex) else x


def _expect(ok: bool, what: str, x):
    """``x`` when ``ok``; else InvalidInput naming what was expected and what came."""
    if not ok:
        raise InvalidInput(f"expected {what}, got {reprlib.repr(x)}")
    return x


def _list(x) -> list:
    return _expect(isinstance(x, list), "a list", x)


def _scalar_from(x, field: str):
    if field == COMPLEX and isinstance(x, list):
        re, im = _expect(len(x) == 2, "a number or an [re, im] pair", x)
        return complex(_scalar_from(re, REAL), _scalar_from(im, REAL))
    return float(_expect(isinstance(x, (int, float)) and not isinstance(x, bool), "a number", x))


def _vector_from(values, field: str) -> np.ndarray:
    return as_vector([_scalar_from(x, field) for x in _list(values)], field)


def _rows_from(rows, field: str) -> np.ndarray:
    rows = [[_scalar_from(x, field) for x in _list(row)] for row in _list(rows)]
    if len({len(row) for row in rows}) > 1:
        raise InvalidInput(f"rows of unequal lengths {reprlib.repr([len(row) for row in rows])}")
    return as_matrix(rows, field)


# A field's wire type is fixed by its name, whatever the kind: read(value, field).
_READ = {
    "field": lambda x, _: _expect(x in (REAL, COMPLEX), "'real' or 'complex'", x),
    "n": lambda x, _: _expect(type(x) is int, "an integer", x),
    "k": lambda x, _: _expect(type(x) is int, "an integer", x),
    "h": _vector_from,
    "v": _vector_from,
    "rep": _vector_from,
    "M": _rows_from,
    "basis": _rows_from,  # the columns of the basis, each as a row
    "lambda": lambda x, _: ScaleGroup(_scalar_from(x, COMPLEX)),
    "z": lambda x, _: INFINITY if x == "inf" else ExtendedComplex(_scalar_from(x, COMPLEX)),
}


class _Kind(NamedTuple):
    want: type | int  # the class, or the array rank (1 vector, 2 matrix)
    fields: tuple[str, ...]  # after "kind", in wire order
    payload: Callable  # object -> its field values, in wire order
    build: Callable  # (field values by name, tol) -> object


_KINDS = {
    "proj_point": _Kind(ProjPoint, ("field", "n", "h"), lambda p: (p.field, p.n, p.h),
                        lambda d, tol: point_from_vector(d["h"], d["field"])),
    "proj_map": _Kind(ProjMap, ("field", "n", "M"), lambda t: (t.field, t.n, t.M),
                      lambda d, tol: map_from_matrix(d["M"], tol, d["field"])),
    "proj_subspace": _Kind(ProjSubspace, ("field", "n", "basis"),
                           lambda s: (s.field, s.n, s.basis.T),
                           lambda d, tol: proj_subspace_from_span(d["basis"].T, tol, d["field"])),
    "subspace": _Kind(Subspace, ("field", "n", "k", "basis"),
                      lambda s: (s.field, s.n, s.k, s.basis.T),
                      lambda d, tol: subspace_from_span(d["basis"].T, tol, d["field"])),
    "hopf_point": _Kind(HopfPoint, ("field", "n", "lambda", "rep"),
                        lambda h: (h.field, h.n, h.group.lam, h.rep),
                        lambda d, tol: quotient_project(d["rep"], d["lambda"], d["field"])),
    "vector": _Kind(1, ("field", "v"), lambda v: (field_of(v), v), lambda d, tol: d["v"]),
    "matrix": _Kind(2, ("field", "M"), lambda m: (field_of(m), m), lambda d, tol: d["M"]),
    "extended_complex": _Kind(ExtendedComplex, ("z",),
                              lambda z: ("inf" if z.is_infinity else z.z,), lambda d, tol: d["z"]),
}


def matches(obj, want) -> bool:
    """Whether ``obj`` is a ``want``: a class, or an array rank (1 vector, 2 matrix)."""
    if isinstance(want, int):
        return isinstance(obj, np.ndarray) and obj.ndim == want
    return isinstance(obj, want)


def encode(obj) -> dict:
    """JSON-ready dict for any wire-format object, its keys in wire order."""
    for kind, spec in _KINDS.items():
        if matches(obj, spec.want):
            return dict(zip(("kind", *spec.fields), (kind, *map(_json, spec.payload(obj)))))
    raise TypeError(f"cannot encode {type(obj).__name__}")


def decode(doc, tol: Tolerance = DEFAULT_TOLERANCE):
    """Object for a wire-format dict, checked as the module docstring says; canonicalized."""
    _expect(isinstance(doc, dict), "a JSON object", doc)
    if "kind" not in doc:
        raise InvalidInput("document has no field 'kind'")
    kind = doc["kind"]
    spec = _KINDS[_expect(isinstance(kind, str) and kind in _KINDS, "a known kind", kind)]
    for name in doc:
        if name != "kind" and name not in spec.fields:
            raise InvalidInput(f"{kind} document has unknown field {name!r}")
    values = {}
    for name in spec.fields:
        if name not in doc:
            raise InvalidInput(f"{kind} document has no field {name!r}")
        try:
            values[name] = _READ[name](doc[name], values.get("field"))
        except (ProjGeoError, OverflowError) as exc:  # OverflowError: an integer past 1.8e308
            raise InvalidInput(f"{kind} document field {name!r}: {exc}") from None
    obj = spec.build(values, tol)
    for name in ("n", "k"):
        if name in values and values[name] != getattr(obj, name):
            raise InvalidInput(f"{kind} document field {name!r}: declared {values[name]}, "
                               f"but its data give {getattr(obj, name)}")
    return obj
