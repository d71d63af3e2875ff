"""Fuzz ``cli.main`` in process with documents of every kind.

Each case is a command with the documents it wants, most of them well
formed and of one field and size, some of another kind, field or size, some
with a key dropped, an unknown key or a field of the wrong type, and some
not JSON at all.  Numbers include NaN, inf, huge and tiny values, and flags
take values at the edges of their ranges.  Every call must return a
documented exit code (0, 2, 3 or 4, and 1 only from ``check``) and must not
raise.  ``--samples`` and ``--trials`` stay small, so that no case allocates
at scale.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cli_harness import run_cli

EDGE_NUMBERS = (0, 1, -1, 1e308, -1e308, 1e-300, 5e-324, 1e-15, 1e15, 10 ** 400,
                float("nan"), float("inf"), float("-inf"))
MODEST = st.one_of(st.floats(-10.0, 10.0), st.integers(-3, 3))
NUMBER = st.one_of(MODEST, st.sampled_from(EDGE_NUMBERS))
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just([]), st.just({}),
                 st.lists(NUMBER, max_size=3), st.just([[1, 2], 3]))
KINDS = ("proj_point", "proj_map", "proj_subspace", "subspace", "hopf_point", "vector",
         "matrix", "extended_complex")
NOT_JSON = (b"", b"{", b"\xff\xfe\x00", b"[" * 3000, b"[1, 2]", b"null", b'{"kind": 1}')

# (arguments, with {i} for the i-th document, and the kinds those documents should be)
TEMPLATES = (
    (["apply", "{0}", "{1}"], ("proj_map", "proj_point")),
    (["apply", "{0}", "{1}", "--cp1"], ("proj_map", "proj_point")),
    (["apply", "{0}", "{1}"], ("proj_map", "extended_complex")),
    (["apply", "{0}", "{1}"], ("matrix", "subspace")),
    (["apply", "{0}", "{1}"], ("matrix", "hopf_point")),
    (["apply", "{0}", "missing.json"], ("proj_map",)),
    (["fiber", "{0}", "--samples={samples}"], ("proj_point",)),
    (["fiber", "{0}", "--samples={samples}", "--stereo"], ("proj_point",)),
    (["chart", "embed", "{0}", "--j={j1}", "{field}"], ("vector",)),
    (["chart", "extract", "{0}", "--j={j1}"], ("proj_point",)),
    (["chart", "transition", "{0}", "--j1={j1}", "--j2={j2}", "{field}"], ("vector",)),
    (["grassmann", "graph", "--base={0}", "--matrix={1}"], ("subspace", "matrix")),
    (["grassmann", "graph", "--base={0}", "--complement={2}", "--matrix={1}"],
     ("subspace", "matrix", "subspace")),
    (["grassmann", "coords", "{2}", "--base={0}"], ("subspace", "matrix", "subspace")),
    (["grassmann", "complement", "{0}"], ("subspace",)),
    (["grassmann", "annihilator", "{0}"], ("subspace",)),
    (["hopf", "project", "{0}", "--lambda={lam}", "{field}"], ("vector",)),
    (["hopf", "equal", "{0}", "{1}", "--lambda={lam}"], ("vector", "vector")),
    (["hopf", "to-projective", "{0}"], ("hopf_point",)),
    (["link", "{0}", "{1}", "--samples={link}"], ("proj_point", "proj_point")),
    (["check", "--suite={suite}", "--trials={trials}", "--seed={seed}", "--lambda={lam}"], ()),
)
PARAMS = {
    "samples": st.integers(-2, 70),
    "j1": st.integers(-1, 6),
    "j2": st.integers(-1, 6),
    "field": st.sampled_from(["", "--field=real", "--field=complex"]),
    "lam": st.sampled_from(["2", "-3", "1.5+2i", "2j", "1e4i", "1.000000002", "1", "0.5",
                            "1e308", "1e309", "nan", "-inf", "abc", ""]),
    "link": st.integers(60, 130),
    "suite": st.sampled_from(["projective", "grassmann", "hopf-manifold", "fibration", "all"]),
    "trials": st.integers(-1, 2),
    "seed": st.sampled_from([0, -1, 2 ** 64 - 1, 2 ** 64]),
}
TOLERANCE_FLAGS = st.just(("", "")) | st.just(("", "")) | st.tuples(
    st.sampled_from(["", "--eps=1e-9", "--eps=1e-300", "--eps=1e-2", "--eps=0.5", "--eps=1e300",
                     "--eps=0", "--eps=-1", "--eps=nan", "--eps=inf"]),
    st.sampled_from(["", "--cond-max=1e12", "--cond-max=2", "--cond-max=1e300", "--cond-max=1",
                     "--cond-max=0.5", "--cond-max=nan", "--cond-max=inf"]),
)


@st.composite
def document(draw, kind: str, field: str, d: int) -> dict:
    """A well-formed document of ``kind`` over ``field``, of size d; one in
    four takes its numbers from the edge values too."""
    number = NUMBER if draw(st.integers(0, 3)) == 0 else MODEST

    def scalar():
        return [draw(number), draw(number)] if field == "complex" else draw(number)

    def rows(count, length):
        return [[scalar() for _ in range(length)] for _ in range(count)]

    if kind == "extended_complex":
        return {"kind": kind, "z": draw(st.one_of(st.just("inf"), NUMBER,
                                                  st.lists(NUMBER, min_size=2, max_size=2)))}
    doc = {"kind": kind, "field": field}
    if kind == "proj_point":
        doc.update(n=d, h=rows(1, d + 1)[0])
    elif kind == "proj_map":
        doc.update(n=d, M=rows(d + 1, d + 1))
    elif kind == "proj_subspace":
        doc.update(n=d, basis=rows(draw(st.integers(1, d + 1)), d + 1))
    elif kind == "subspace":
        k = draw(st.integers(1, d))
        doc.update(n=d + 1, k=k, basis=rows(k, d + 1))
    elif kind == "hopf_point":
        lam = draw(st.sampled_from([2, -3, [0, 2], [1.5, 2], 1e300, 1.0, [0, 0]]))
        doc.update({"n": d, "lambda": lam, "rep": rows(1, d)[0]})
    elif kind == "vector":
        doc.update(v=rows(1, d)[0])
    else:  # matrix: square most of the time, to act on a subspace or a hopf_point
        doc.update(M=rows(d, d) if draw(st.booleans()) else rows(*draw(st.tuples(
            st.integers(1, 4), st.integers(1, 4)))))
    return doc


@st.composite
def file_contents(draw, kind: str, field: str, d: int) -> bytes:
    """A document, sometimes of another kind, field or size, or damaged, or no JSON at all."""
    if draw(st.integers(0, 24)) == 0:
        return draw(st.sampled_from(NOT_JSON))
    if draw(st.integers(0, 7)) == 0:
        kind = draw(st.sampled_from(KINDS))
    if draw(st.integers(0, 7)) == 0:
        field, d = draw(st.sampled_from(["real", "complex"])), draw(st.integers(1, 4))
    doc = draw(document(kind, field, d))
    damage = draw(st.integers(0, 19))
    if damage == 0 and len(doc) > 1:
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif damage == 1:
        doc["extra"] = 1
    elif damage == 2:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JUNK)
    return json.dumps(doc).encode()


@st.composite
def cases(draw):
    args, kinds = draw(st.sampled_from(TEMPLATES))
    field, d = draw(st.sampled_from(["real", "complex"])), draw(st.integers(1, 3))
    files = [draw(file_contents(kind, field, d)) for kind in kinds]
    params = {name: draw(strategy) for name, strategy in PARAMS.items()}
    return args, files, params, [flag for flag in draw(TOLERANCE_FLAGS) if flag]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
# G rep overflows: 1e308 (1 + i) times 1 + i has an imaginary part past the largest double
@example(case=(["apply", "{0}", "{1}"],
               [b'{"kind": "matrix", "field": "complex", "M": [[[1e308, 1e308]]]}',
                b'{"kind": "hopf_point", "field": "complex", "n": 1, "lambda": 2, '
                b'"rep": [[1.0, 1.0]]}'],
               {}, []))
# the one basis column is subnormal, and so was its norm's largest part
@example(case=(["grassmann", "complement", "{0}"],
               [b'{"kind": "subspace", "field": "complex", "n": 2, "k": 1, '
                b'"basis": [[[0.0, 0.0], [0.0, 2.225073858507e-311]]]}'],
               {}, []))
def test_cli_main_returns_a_documented_code_and_never_raises(case):
    args, files, params, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, content in enumerate(files):
            paths.append(str(Path(tmp) / f"doc{i}.json"))
            Path(paths[-1]).write_bytes(content)
        argv = [arg.format(*paths, **params) for arg in args]
        argv = [argv[0], *flags, *(arg for arg in argv[1:] if arg)]
        code, _, err = run_cli(*argv)
    assert code in ((0, 1, 2, 3, 4) if argv[0] == "check" else (0, 2, 3, 4)), (argv, code)
    if code >= 2:
        assert err.startswith("projgeo: "), (argv, err)
