import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from projgeo import jsonio
from projgeo.errors import InvalidInput, InvalidRange, ProjGeoError
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


# --- the table of wire kinds ---------------------------------------------------

SAMPLES = {
    "proj_point": point_from_vector([1.0 + 2.0j, -3.0j, 0.5]),
    "proj_map": map_from_matrix(np.array([[1.0, 2.0], [3.0, 4.0]])),
    "proj_subspace": proj_subspace_from_span(np.eye(4)[:, :2]),
    "subspace": subspace_from_span(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]])),
    "hopf_point": quotient_project([3.0 + 0j, 4.0j], ScaleGroup(2j)),
    "vector": np.array([1.0, -2.0, 0.25]),
    "matrix": np.array([[1.0 + 1j, 0.0], [2.0, -1j]]),
    "extended_complex": ExtendedComplex(1.5 - 2.5j),
}


def wire(kind):
    return json.loads(dumps(encode(SAMPLES[kind])))


def test_the_samples_cover_every_kind():
    assert set(SAMPLES) == set(jsonio._KINDS)


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_every_kind_round_trips_with_its_keys_in_wire_order(kind):
    doc = encode(SAMPLES[kind])
    assert list(doc) == ["kind", *jsonio._KINDS[kind].fields]
    assert doc["kind"] == kind
    back = encode(round_trip(SAMPLES[kind]))
    assert list(back) == list(doc)
    for name, value in doc.items():
        if isinstance(value, list):
            assert np.max(np.abs(np.subtract(back[name], value))) < 1e-15
        else:
            assert back[name] == value


@pytest.mark.parametrize(
    "kind, name", [(k, n) for k, spec in jsonio._KINDS.items() for n in ("n", "k") if n in spec.fields]
)
def test_a_declared_n_or_k_must_match_the_data(kind, name):
    doc = wire(kind)
    actual = doc[name]
    for declared in (actual + 1, actual - 1):
        message = f"^{kind} document field '{name}': declared {declared}, but its data give {actual}$"
        with pytest.raises(InvalidInput, match=message):
            decode({**doc, name: declared})
    for bad in (float(actual), True, str(actual), None):
        with pytest.raises(InvalidInput, match=f"^{kind} document field '{name}': expected an integer"):
            decode({**doc, name: bad})


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_an_unknown_key_is_rejected(kind):
    with pytest.raises(InvalidInput, match=f"^{kind} document has unknown field 'extra'$"):
        decode({**wire(kind), "extra": 0})


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"kind": "vector", "field": "real", "v": 5}',
         "vector document field 'v': expected a list, got 5"),
        ('{"kind": "vector", "field": "real", "v": ["1e0", true, 2]}',
         "vector document field 'v': expected a number, got '1e0'"),
        ('{"kind": "vector", "field": "real", "v": [true, 2]}',
         "vector document field 'v': expected a number, got True"),
        ('{"kind": "vector", "field": "real", "v": [1, null]}',
         "vector document field 'v': expected a number, got None"),
        ('{"kind": "vector", "field": "real", "v": [NaN]}',
         "vector document field 'v': entries must be finite, got nan"),
        ('{"kind": "vector", "field": "real", "v": [1' + "0" * 400 + "]}",
         "vector document field 'v': int too large to convert to float"),
        ('{"kind": "vector", "field": "complex", "v": [[1, 2, 3]]}',
         "vector document field 'v': expected a number or an [re, im] pair, got [1, 2, 3]"),
        ('{"kind": "vector", "field": "real", "v": [[1, 2]]}',
         "vector document field 'v': expected a number, got [1, 2]"),
        ('{"kind": "vector", "field": "quaternion", "v": [1]}',
         "vector document field 'field': expected 'real' or 'complex', got 'quaternion'"),
        ('{"kind": "matrix", "field": "real", "M": [[1], [1, 2]]}',
         "matrix document field 'M': rows of unequal lengths [1, 2]"),
        ('{"kind": "proj_point", "field": "real", "n": 1, "h": [1, 2, 3]}',
         "proj_point document field 'n': declared 1, but its data give 2"),
        ('{"kind": "proj_point", "field": "real", "n": 5, "h": [1.0, 2.0]}',
         "proj_point document field 'n': declared 5, but its data give 1"),
        ('{"kind": "proj_point", "field": "real", "n": 1.7, "h": [1, 2]}',
         "proj_point document field 'n': expected an integer, got 1.7"),
        ('{"kind": "hopf_point", "field": "real", "n": 2, "lambda": 0.5, "rep": [1, 0]}',
         "hopf_point document field 'lambda': scale must have absolute value larger than 1, "
         "got 0.5"),
        ('{"kind": "extended_complex", "z": [Infinity, 0]}',
         "extended_complex document field 'z': finite value required, got (inf+0j); "
         "use INFINITY otherwise"),
        ('{"kind": ["proj_point"]}', "expected a known kind, got ['proj_point']"),
        ("[1, 2]", "expected a JSON object, got [1, 2]"),
    ],
    ids=["v-not-a-list", "string-entry", "bool-entry", "null-entry", "nan-entry", "huge-int",
         "triple", "real-pair", "unknown-field", "ragged", "n-too-small", "n-too-large",
         "n-not-int", "lambda", "z-inf", "kind-not-str", "not-an-object"],
)
def test_a_bad_field_is_named_with_its_value(text, message):
    with pytest.raises(InvalidInput) as info:
        decode(json.loads(text))
    assert str(info.value) == message


def test_a_whole_span_proj_subspace_names_its_projective_dimensions():
    doc = {"kind": "proj_subspace", "field": "real", "n": 2, "basis": np.eye(3).tolist()}
    with pytest.raises(InvalidRange) as info:
        decode(doc)
    assert str(info.value) == "projective subspace dimension must satisfy 0 <= l < n, got l = 2, n = 2"


# --- fuzz: every document decodes to a wire object or raises a typed error ------

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(["1e0", "2", "inf", "nan", "real", "complex", "proj_point", ""]),
    st.integers(-3, 6),
    st.floats(),  # NaN, inf, subnormal and huge included
    st.lists(st.one_of(st.floats(), st.integers(-2, 2), st.none(), st.booleans(), st.text(max_size=2)),
             max_size=4),
    st.lists(st.lists(st.floats(-2, 2), max_size=3), max_size=3),  # ragged rows
    st.lists(st.lists(st.lists(st.integers(-2, 2), max_size=3), max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(sorted(SAMPLES)), edits=st.lists(
    st.tuples(st.sampled_from(["kind", "field", "n", "k", "h", "M", "basis", "lambda", "rep", "v",
                               "z", "extra"]), _JUNK), min_size=1, max_size=2))
@example(kind="vector", edits=[("v", 5)])
def test_decode_returns_a_wire_object_or_raises_a_typed_error(kind, edits):
    doc = wire(kind)
    for name, value in edits:
        doc[name] = value
    try:
        obj = decode(doc)
    except ProjGeoError:
        return
    back = encode(obj)
    assert back["kind"] == doc["kind"]
    assert set(back) == set(doc)
    for name in ("field", "n", "k"):
        assert back.get(name) == doc.get(name)


# --- README's document shapes are the table's ------------------------------------


def readme_documents():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("### JSON document shapes", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
    return [json.loads(line.split("//")[0]) for line in block.splitlines() if line.strip()]


def test_readme_documents_decode_and_encode_back_to_the_same_shape():
    docs = readme_documents()
    assert {doc["kind"] for doc in docs} == set(jsonio._KINDS)
    for doc in docs:
        back = encode(decode(doc))
        assert set(back) == set(doc)
        for name in ("kind", "field", "n", "k"):
            assert back.get(name) == doc.get(name)
