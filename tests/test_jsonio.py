import json

import numpy as np
import pytest

from projgeo import (
    INFINITY,
    ExtendedComplex,
    ScaleGroup,
    map_from_matrix,
    point_from_vector,
    proj_subspace_from_span,
    quotient_project,
    subspace_from_span,
)
from projgeo.errors import InvalidInput
from projgeo.jsonio import decode, dumps, encode


def round_trip(obj):
    return decode(json.loads(dumps(encode(obj))))


# The round trips compare representatives, not classes: the wire format
# must carry the canonical form itself.


def test_float_formatting_round_trips_doubles():
    assert dumps(0.1) == "0.10000000000000001"
    assert float(dumps(1.0 / 3.0)) == 1.0 / 3.0
    assert dumps(42) == "42"
    assert dumps(True) == "true"
    assert dumps(None) == "null"


def test_proj_point_round_trip_real():
    p = point_from_vector([3.0, -4.0, 12.0])
    q = round_trip(p)
    assert q.field == "real" and q.n == 2
    assert np.max(np.abs(p.h - q.h)) < 1e-15


def test_proj_point_round_trip_complex():
    p = point_from_vector([1.0 + 2.0j, -3.0j, 0.5])
    q = round_trip(p)
    assert q.field == "complex"
    assert np.max(np.abs(p.h - q.h)) < 1e-15


def test_proj_point_decode_canonicalizes():
    doc = {"kind": "proj_point", "field": "real", "n": 1, "h": [2.0, 0.0]}
    assert np.allclose(decode(doc).h, [1.0, 0.0])


def test_proj_map_round_trip():
    t = map_from_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    s = round_trip(t)
    assert np.max(np.abs(t.M - s.M)) < 1e-15


def test_subspace_round_trips():
    s = subspace_from_span(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]]))
    r = round_trip(s)
    assert (r.n, r.k) == (3, 2)
    assert np.max(np.abs(s.basis - r.basis)) < 1e-15

    ps = proj_subspace_from_span(np.eye(4)[:, :2])
    pr = round_trip(ps)
    assert pr.l == 1
    assert np.max(np.abs(ps.basis - pr.basis)) < 1e-15


def test_subspace_decode_checks_k():
    doc = {
        "kind": "subspace",
        "field": "real",
        "n": 3,
        "k": 2,
        "basis": [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],  # rank 1, claimed 2
    }
    with pytest.raises(ValueError):
        decode(doc)


def test_hopf_point_round_trip():
    h = quotient_project([0.3, 0.4], ScaleGroup(2))
    r = round_trip(h)
    assert r.group.lam == 2.0
    assert np.max(np.abs(h.rep - r.rep)) < 1e-15

    hc = quotient_project([3.0 + 0j, 4.0j], ScaleGroup(2j))
    rc = round_trip(hc)
    assert rc.group.lam == 2j
    assert np.max(np.abs(hc.rep - rc.rep)) < 1e-15


def test_extended_complex_round_trip():
    assert round_trip(INFINITY).is_infinity
    z = ExtendedComplex(1.5 - 2.5j)
    assert round_trip(z).z == z.z


def test_vector_and_matrix_round_trip():
    v = np.array([1.0, -2.0, 0.25])
    assert np.array_equal(round_trip(v), v)
    m = np.array([[1.0 + 1j, 0.0], [2.0, -1j]])
    assert np.array_equal(round_trip(m), m)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        decode({"kind": "mystery"})
    # a missing field is named, with the kind when there is one
    with pytest.raises(InvalidInput, match="^document has no field 'kind'$"):
        decode({"field": "real"})
