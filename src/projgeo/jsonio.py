"""JSON wire formats for the command line tools.

Every document carries a ``kind`` tag.  Scalars are plain numbers over
the real field and two-element ``[re, im]`` arrays over the complex
field; the shapes are:

    {"kind": "proj_point",    "field", "n", "h": [scalar, ...]}
    {"kind": "proj_map",      "field", "n", "M": [[scalar, ...], ...]}   row-major
    {"kind": "proj_subspace", "field", "n", "basis": [[scalar, ...], ...]}  column-major
    {"kind": "subspace",      "field", "n", "k", "basis": [[scalar, ...], ...]}  column-major
    {"kind": "hopf_point",    "field", "n", "lambda": scalar, "rep": [scalar, ...]}
    {"kind": "vector",        "field", "v": [scalar, ...]}
    {"kind": "matrix",        "field", "M": [[scalar, ...], ...]}        row-major
    {"kind": "extended_complex", "z": [re, im] or "inf"}

Decoding is forgiving about canonical form: homogeneous coordinates may
be any nonzero representative and basis columns any spanning set; the
decoder canonicalizes.  :func:`dumps` prints every float with
:func:`format_float`, at 17 significant digits, so that doubles survive
a round trip through text.
"""

import json

import numpy as np

from projgeo.errors import InvalidInput
from projgeo.grassmann import Subspace, subspace_from_span
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
from projgeo.projective import (
    ProjMap,
    ProjPoint,
    ProjSubspace,
    map_from_matrix,
    point_from_vector,
    proj_subspace_from_span,
)


FLOAT_FORMAT = "%.17g"  # 17 significant digits: every double round-trips


def format_float(x) -> str:
    """A float as text at 17 significant digits, enough to round-trip."""
    return FLOAT_FORMAT % float(x)


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
        out.append(format_float(value))
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


def _scalar(x, field: str):
    if field == COMPLEX:
        z = complex(x)
        return [z.real, z.imag]
    return float(x)


def _vector(v: np.ndarray, field: str) -> list:
    return [_scalar(x, field) for x in v]


def _rows(m: np.ndarray, field: str) -> list:
    return [_vector(row, field) for row in m]


def _cols(m: np.ndarray, field: str) -> list:
    return [_vector(col, field) for col in m.T]


def encode(obj) -> dict:
    """JSON-ready dict for any wire-format object."""
    if isinstance(obj, ProjPoint):
        return {"kind": "proj_point", "field": obj.field, "n": obj.n,
                "h": _vector(obj.h, obj.field)}
    if isinstance(obj, ProjMap):
        return {"kind": "proj_map", "field": obj.field, "n": obj.n,
                "M": _rows(obj.M, obj.field)}
    if isinstance(obj, ProjSubspace):
        return {"kind": "proj_subspace", "field": obj.field, "n": obj.n,
                "basis": _cols(obj.basis, obj.field)}
    if isinstance(obj, Subspace):
        return {"kind": "subspace", "field": obj.field, "n": obj.n, "k": obj.k,
                "basis": _cols(obj.basis, obj.field)}
    if isinstance(obj, HopfPoint):
        field = obj.field
        lam_field = REAL if obj.group.is_real else COMPLEX
        return {"kind": "hopf_point", "field": field, "n": obj.n,
                "lambda": _scalar(obj.group.lam, lam_field),
                "rep": _vector(obj.rep, field)}
    if isinstance(obj, ExtendedComplex):
        return {"kind": "extended_complex",
                "z": "inf" if obj.is_infinity else [obj.z.real, obj.z.imag]}
    if isinstance(obj, np.ndarray):
        field = field_of(obj)
        if obj.ndim == 1:
            return {"kind": "vector", "field": field, "v": _vector(obj, field)}
        if obj.ndim == 2:
            return {"kind": "matrix", "field": field, "M": _rows(obj, field)}
    raise TypeError(f"cannot encode {type(obj).__name__}")


def _scalar_from(x, field: str):
    if field == COMPLEX:
        if isinstance(x, (list, tuple)):
            re, im = x
            return complex(float(re), float(im))
        return complex(float(x), 0.0)
    if isinstance(x, (list, tuple)):
        raise InvalidInput("real-field scalars must be plain numbers")
    return float(x)


def _vector_from(values, field: str) -> np.ndarray:
    return as_vector([_scalar_from(x, field) for x in values], field)


def _rows_from(rows, field: str) -> np.ndarray:
    return as_matrix([[_scalar_from(x, field) for x in row] for row in rows], field)


def _field_from(doc: dict) -> str:
    field = doc["field"]
    if field not in (REAL, COMPLEX):
        raise InvalidInput(f"unknown field {field!r}")
    return field


class _Document(dict):
    """A wire-format dict; a missing field raises InvalidInput naming it and the kind."""

    def __missing__(self, key):
        kind = self.get("kind")
        where = "document" if kind is None else f"{kind} document"
        raise InvalidInput(f"{where} has no field {key!r}")


def decode(doc: dict, tol: Tolerance = DEFAULT_TOLERANCE):
    """Object for a wire-format dict; canonicalizes as it builds."""
    doc = _Document(doc)
    kind = doc["kind"]
    if kind == "proj_point":
        field = _field_from(doc)
        return point_from_vector(_vector_from(doc["h"], field), tol, field)
    if kind == "proj_map":
        field = _field_from(doc)
        return map_from_matrix(_rows_from(doc["M"], field), tol, field)
    if kind == "proj_subspace":
        field = _field_from(doc)
        return proj_subspace_from_span(_rows_from(doc["basis"], field).T, tol, field)
    if kind == "subspace":
        field = _field_from(doc)
        s = subspace_from_span(_rows_from(doc["basis"], field).T, tol, field)
        if s.k != int(doc["k"]):
            raise InvalidInput(f"basis spans dimension {s.k}, document says {doc['k']}")
        return s
    if kind == "hopf_point":
        field = _field_from(doc)
        lam = _scalar_from(doc["lambda"], COMPLEX)
        group = ScaleGroup(lam.real if lam.imag == 0.0 else lam)
        return quotient_project(_vector_from(doc["rep"], field), group, tol, field)
    if kind == "vector":
        field = _field_from(doc)
        return _vector_from(doc["v"], field)
    if kind == "matrix":
        field = _field_from(doc)
        return _rows_from(doc["M"], field)
    if kind == "extended_complex":
        z = doc["z"]
        if z == "inf":
            return INFINITY
        return ExtendedComplex(_scalar_from(z, COMPLEX))
    raise InvalidInput(f"unknown kind {kind!r}")
