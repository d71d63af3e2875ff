import json
import re
import subprocess
import sys

import numpy as np
import pytest

from projgeo import jsonio, projective, suites
from projgeo.errors import ZeroVector
from projgeo.jsonio import dumps, encode
from projgeo import (
    ScaleGroup,
    map_from_matrix,
    point_from_vector,
    quotient_project,
    subspace_from_span,
)

from cli_harness import run_cli, run_process


def write_doc(path, obj):
    path.write_text(dumps(encode(obj)) if not isinstance(obj, str) else obj)
    return str(path)


@pytest.fixture
def docs(tmp_path):
    def factory(name, obj):
        return write_doc(tmp_path / name, obj)

    return factory


def test_apply_identity_map(docs):
    p = point_from_vector([1.0, 2.0, 2.0])
    res = run_cli(
        "apply",
        docs("map.json", map_from_matrix(np.eye(3))),
        docs("point.json", p),
    )
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["kind"] == "proj_point"
    assert np.allclose(out["h"], p.h)


def test_apply_swap_matrix_prints_infinity_marker(docs):
    swap = map_from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    origin = point_from_vector(np.array([0.0, 1.0], dtype=complex))
    res = run_cli(
        "apply", docs("m.json", swap), docs("p.json", origin), "--cp1"
    )
    assert res.returncode == 0
    assert json.loads(res.stdout) == {"kind": "extended_complex", "z": "inf"}


def test_apply_matrix_to_subspace(docs):
    s = subspace_from_span(np.eye(4)[:, :2])
    perm = np.eye(4)[[1, 2, 3, 0]]
    res = run_cli(
        "apply",
        docs("g.json", perm),
        docs("s.json", s),
    )
    assert res.returncode == 0
    assert json.loads(res.stdout)["kind"] == "subspace"


def test_apply_hopf_point(docs):
    h = quotient_project([1.0, 1.0])
    res = run_cli("apply", docs("g.json", 2.0 * np.eye(2)), docs("h.json", h))
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["kind"] == "hopf_point"
    # doubling is the group action, so the class (and its rep) is unchanged
    assert np.allclose(out["rep"], h.rep)


def test_apply_malformed_json_exits_2(docs, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "proj_point", ')
    res = run_cli("apply", str(bad), str(bad))
    assert res.returncode == 2
    assert res.stderr


def test_apply_kind_mismatch_exits_3(docs):
    p = point_from_vector([1.0, 0.0])
    res = run_cli("apply", docs("p1.json", p), docs("p2.json", p))
    assert res.returncode == 3


def test_apply_dimension_mismatch_exits_3(docs):
    res = run_cli(
        "apply",
        docs("m.json", map_from_matrix(np.eye(3))),
        docs("p.json", point_from_vector([1.0, 0.0])),
    )
    assert res.returncode == 3


def test_apply_ill_conditioned_exits_4(docs, tmp_path):
    doc = {
        "kind": "proj_map",
        "field": "real",
        "n": 1,
        "M": [[1.0, 0.0], [0.0, 1e-15]],
    }
    f = tmp_path / "m.json"
    f.write_text(json.dumps(doc))
    res = run_cli("apply", str(f), docs("p.json", point_from_vector([1.0, 0.0])))
    assert res.returncode == 4


POINT = '{"kind": "proj_point", "field": "real", "n": 1, "h": [1.0, 0.0]}'


@pytest.mark.parametrize(
    "map_doc, code",
    [('{"kind": "proj_point", ', 2), (POINT, 3),
     ('{"kind": "proj_map", "field": "real", "n": 1, "M": [[1.0, 0.0], [0.0, 1e-15]]}', 4)],
    ids=["malformed-json", "kind-mismatch", "ill-conditioned"],
)
def test_python_m_projgeo_exit_codes(tmp_path, map_doc, code):
    # a process: only it shows how __main__ turns main's return into an exit code
    res = run_process("apply", write_doc(tmp_path / "m.json", map_doc),
                      write_doc(tmp_path / "p.json", POINT))
    assert res.returncode == code
    assert res.stdout == b"" and res.stderr.startswith(b"projgeo: ")


@pytest.mark.parametrize(
    "operand, matrix, code",
    [
        ("subspace", np.ones((4, 3)), 3),
        ("subspace", np.eye(3), 3),
        ("subspace", np.diag([1.0, 1.0, 1.0, 1e-15]), 4),
        ("hopf_point", np.ones((2, 3)), 3),
        ("hopf_point", np.eye(3), 3),
        ("hopf_point", np.diag([1.0, 1e-15]), 4),
    ],
    ids=["gl-not-square", "gl-wrong-size", "gl-singular",
         "hopf-not-square", "hopf-wrong-size", "hopf-singular"],
)
def test_apply_a_bad_matrix_exits_3_for_its_shape_and_4_near_singular(
    docs, operand, matrix, code
):
    target = (subspace_from_span(np.eye(4)[:, :2]) if operand == "subspace"
              else quotient_project([1.0, 1.0]))
    res = run_cli("apply", docs("g.json", matrix), docs("x.json", target))
    assert (res.returncode, res.stdout) == (code, "")


def test_apply_a_non_square_proj_map_document_exits_3(tmp_path, docs):
    doc = {"kind": "proj_map", "field": "real", "n": 1, "M": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}
    path = write_doc(tmp_path / "m.json", json.dumps(doc))
    assert run_cli("apply", path, docs("p.json", point_from_vector([1.0, 0.0]))).returncode == 3


def test_fiber_real_two_rows(docs):
    res = run_cli("fiber", docs("p.json", point_from_vector([1.0, 0.0])))
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "t,x1,x2"
    assert lines[1].split(",") == ["0", "1", "0"]
    assert lines[2].split(",") == ["1", "-1", "-0"]


def test_fiber_complex_rows_match_library(docs):
    from projgeo import complex_fiber_sample

    p = point_from_vector(np.array([1.0, 0.0], dtype=complex))
    res = run_cli("fiber", docs("p.json", p), "--samples", "4")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "t,x1,x2,x3,x4"
    assert len(lines) == 5
    samples = complex_fiber_sample(p, 4)
    for t, line in enumerate(lines[1:]):
        vals = [float(x) for x in line.split(",")]
        assert vals[0] == t
        got = np.array([vals[1] + 1j * vals[2], vals[3] + 1j * vals[4]])
        assert np.max(np.abs(got - samples[t])) < 1e-16


def test_fiber_stereo_adds_columns(docs):
    p = point_from_vector(np.array([1.0, 2.0j], dtype=complex))
    res = run_cli("fiber", docs("p.json", p), "--samples", "8", "--stereo")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "t,x1,x2,x3,x4,X,Y,Z"
    assert len(lines) == 9


def test_fiber_stereo_rejected_off_cp1(docs):
    p = point_from_vector(np.array([1.0, 0.0, 0.0], dtype=complex))
    res = run_cli("fiber", docs("p.json", p), "--stereo")
    assert res.returncode == 3


def test_chart_embed_extract_transition(docs, tmp_path):
    vec = np.array([2.0, 0.5])
    res = run_cli("chart", "embed", docs("w.json", vec), "--j", "1")
    assert res.returncode == 0
    point_doc = tmp_path / "p.json"
    point_doc.write_text(res.stdout)
    res2 = run_cli("chart", "extract", str(point_doc), "--j", "1")
    assert res2.returncode == 0
    assert np.allclose(json.loads(res2.stdout)["v"], vec)
    res3 = run_cli("chart", "transition", docs("w2.json", np.array([0.5])),
                   "--j1", "1", "--j2", "2")
    assert res3.returncode == 0
    assert np.allclose(json.loads(res3.stdout)["v"], [2.0])


def test_chart_extract_absent_prints_null(docs):
    p = point_from_vector([1.0, 0.0, 0.0])
    res = run_cli("chart", "extract", docs("p.json", p), "--j", "2")
    assert res.returncode == 0
    assert res.stdout.strip() == "null"
    # chart-1 coordinate 0 is the point [1 : 0], on chart 2's missing locus
    res2 = run_cli("chart", "transition", docs("w.json", np.array([0.0])),
                   "--j1", "1", "--j2", "2")
    assert res2.returncode == 0
    assert res2.stdout == "null\n"
    # e2 lies in the complement span(e2, e3) of the base span(e1)
    base = subspace_from_span(np.eye(3)[:, :1])
    res3 = run_cli("grassmann", "coords", docs("x.json", subspace_from_span(np.eye(3)[:, 1:2])),
                   "--base", docs("b.json", base))
    assert res3.returncode == 0
    assert res3.stdout == "null\n"


def test_grassmann_subcommands(docs):
    s = subspace_from_span(np.array([[1.0], [1.0j]]))
    res = run_cli("grassmann", "complement", docs("s.json", s))
    assert res.returncode == 0
    comp = json.loads(res.stdout)
    res2 = run_cli("grassmann", "annihilator", docs("s2.json", s))
    assert res2.returncode == 0
    ann = json.loads(res2.stdout)
    assert comp["kind"] == ann["kind"] == "subspace"
    assert not np.allclose(comp["basis"], ann["basis"])

    base = subspace_from_span(np.eye(3)[:, :1])
    coeff = np.array([[0.5], [0.25]])
    res3 = run_cli(
        "grassmann", "graph", "--base", docs("b.json", base),
        "--matrix", docs("a.json", coeff),
    )
    assert res3.returncode == 0
    graph_doc = json.loads(res3.stdout)
    graph_path = docs("graph.json", json.dumps(graph_doc))
    res4 = run_cli("grassmann", "coords", graph_path, "--base", docs("b2.json", base))
    assert res4.returncode == 0
    assert np.allclose(json.loads(res4.stdout)["M"], coeff, atol=1e-12)


def test_hopf_subcommands(docs):
    v = np.array([8.0, 0.0])
    res = run_cli("hopf", "project", docs("v.json", v))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["kind"] == "hopf_point"
    assert np.allclose(doc["rep"], [1.0, 0.0])

    res2 = run_cli("hopf", "equal", docs("a.json", np.array([1.0, 1.0])),
                   docs("b.json", np.array([4.0, 4.0])))
    assert res2.returncode == 0 and res2.stdout.strip() == "true"
    res3 = run_cli("hopf", "equal", docs("c.json", np.array([1.0, 0.0])),
                   docs("d.json", np.array([-1.0, 0.0])))
    assert res3.returncode == 0 and res3.stdout.strip() == "false"
    res4 = run_cli("hopf", "equal", docs("e.json", np.array([1.0, 1.0])),
                   docs("f.json", np.array([9.0, 9.0])), "--lambda", "3")
    assert res4.returncode == 0 and res4.stdout.strip() == "true"

    hopf_path = docs("h.json", quotient_project([4.0, 0.0]))
    res5 = run_cli("hopf", "to-projective", hopf_path)
    assert res5.returncode == 0
    assert json.loads(res5.stdout)["kind"] == "proj_point"


def test_link_command(docs):
    p = point_from_vector(np.array([1.0, 0.0], dtype=complex))
    q = point_from_vector(np.array([0.0, 1.0], dtype=complex))
    res = run_cli("link", docs("p.json", p), docs("q.json", q), "--samples", "256")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert abs(out["linking_number"]) == 1
    assert abs(abs(out["integral"]) - 1.0) < 0.05
    same = run_cli("link", docs("p2.json", p), docs("p3.json", p))
    assert same.returncode == 3


def test_check_suite_exits_zero():
    res = run_cli("check", "--suite", "projective", "--trials", "200", "--seed", "7")
    assert res.returncode == 0
    assert "overall: PASS" in res.stdout


def test_check_deterministic_byte_identical():
    # two runs in one process: no state leaks from one call of main to the next
    a = run_cli("check", "--suite", "all", "--trials", "10", "--seed", "1")
    b = run_cli("check", "--suite", "all", "--trials", "10", "--seed", "1")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


@pytest.mark.parametrize(
    "args",
    [
        ["--suite", "hopf-manifold", "--lambda", "1e8"],
        ["--suite", "all", "--eps", "1e-3"],
        ["--suite", "all", "--eps", "1e-2"],
    ],
    ids=["lambda-1e8", "eps-1e-3", "eps-1e-2"],
)
def test_check_draws_clear_of_eps_and_lambda(args):
    # scaled draws, and images under near-cap maps, used to fall below eps
    # here and abort with ZeroVector
    res = run_cli("check", *args)
    assert res.returncode in (0, 1)
    assert res.stderr == ""
    lines = res.stdout.splitlines()
    assert lines[-1] == ("overall: PASS" if res.returncode == 0 else "overall: FAIL")
    assert all(re.fullmatch(r"[a-z-]+\.[a-z_]+: \d+/\d+ (PASS|FAIL)", line) for line in lines[:-1])


def test_check_error_names_property_and_trial(monkeypatch):
    def trial(rng, i, tol, lam):
        if i == 2:
            raise ZeroVector("cannot project the zero vector")
        return True

    monkeypatch.setitem(suites.SUITES, "fibration", [("probe", trial)])
    assert run_cli("check", "--suite", "fibration", "--trials", "5") == (
        2, "", "projgeo: fibration.probe, trial 2: cannot project the zero vector\n")


def test_check_unknown_suite_exits_2():
    res = run_cli("check", "--suite", "mystery")
    assert res.returncode == 2


def test_env_var_overrides_tolerance(docs):
    # a process: only it reads PROJGEO_EPS from the environment it starts with
    import os

    p = point_from_vector([1.0, 1e-6, 0.0])
    env = dict(os.environ, PROJGEO_EPS="1e-3")
    res = run_process("chart", "extract", docs("p.json", p), "--j", "2", env=env)
    assert res.returncode == 0
    assert res.stdout.strip() == b"null"  # 1e-6 pivot is "zero" at eps 1e-3
    res2 = run_process("chart", "extract", docs("p2.json", p), "--j", "2")
    assert res2.returncode == 0
    assert res2.stdout.strip() != b"null"


def fiber_pair(sep):
    """Two CP^1 points whose fibers are ``sep`` apart in S^3."""
    h = np.array([0.6 - 0.3j, 0.2 + 0.7j]) / np.linalg.norm([0.6 - 0.3j, 0.2 + 0.7j])
    perp = np.array([-np.conj(h[1]), np.conj(h[0])])
    t = 2.0 * np.arcsin(sep / 2.0)
    return point_from_vector(h), point_from_vector(np.cos(t) * h + np.sin(t) * np.exp(1.3j) * perp)


@pytest.mark.parametrize("sep", [1e-3, 1e-4])
def test_link_prints_the_crossing_count(docs, sep):
    # the Gauss integral of these pairs at 2048 samples is -1.24 and -11.04
    p, q = fiber_pair(sep)
    res = run_cli("link", docs("p.json", p), docs("q.json", q))
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert list(out) == ["kind", "samples", "integral", "linking_number"]
    assert out["linking_number"] == -1


def test_link_too_close_to_resolve_exits_2(docs):
    p, q = fiber_pair(1e-6)
    res = run_cli("link", docs("p.json", p), docs("q.json", q))
    assert res.returncode == 2
    assert res.stdout == ""
    assert "too close" in res.stderr


def near_tie_point(docs):
    # |h1| and |h2| are 1e-7 apart: a pivot tie at eps 1e-6, but not at 1e-9
    z = (1.0 - 1e-7) * complex(np.exp(1j))
    return docs("p.json", '{"kind": "proj_point", "field": "complex", "n": 1, '
                          f'"h": [[{z.real!r}, {z.imag!r}], [1.0, 0.0]]}}'), z


def test_chart_extract_near_tie_at_user_eps(docs):
    path, z = near_tie_point(docs)
    res = run_cli("chart", "extract", path, "--j", "1", "--eps", "1e-6")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["kind"] == "vector"
    assert abs(complex(*out["v"][0]) - 1.0 / z) < 1e-12


def test_chart_extract_near_tie_at_env_eps(docs):
    import os

    path, z = near_tie_point(docs)
    env = dict(os.environ, PROJGEO_EPS="1e-6")
    res = run_cli("chart", "extract", path, "--j", "1", env=env)
    assert res.returncode == 0, res.stderr
    assert abs(complex(*json.loads(res.stdout)["v"][0]) - 1.0 / z) < 1e-12


@pytest.mark.parametrize(
    "args,message",
    [
        (["--trials", "0"], "trials must be at least 1"),
        (["--seed", "-1"], "seed must fit in 64 unsigned bits"),
        (["--seed", str(2 ** 64)], "seed must fit in 64 unsigned bits"),
        (["--lambda", "0.5"], "scale must have absolute value larger than 1, got 0.5"),
        (["--lambda", "1+1e-9"], "--lambda must be a real or complex number, got '1+1e-9'"),
    ],
)
def test_check_argument_guards_exit_2(args, message):
    res = run_cli("check", "--suite", "projective", *args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == f"projgeo: {message}\n"


@pytest.mark.parametrize(
    "flags, env_eps, field",
    [
        (["--eps", "inf"], None, "eps_abs"),
        (["--eps", "nan"], None, "eps_abs"),
        (["--cond-max", "inf"], None, "cond_max"),
        ([], "inf", "eps_abs"),
    ],
)
def test_non_finite_tolerance_exits_2_naming_the_field(flags, env_eps, field):
    import os

    env = dict(os.environ)
    env.pop("PROJGEO_EPS", None)
    if env_eps is not None:
        env["PROJGEO_EPS"] = env_eps
    res = run_cli("check", "--suite", "projective", "--trials", "2", *flags, env=env)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith(f"projgeo: {field} must ")
    assert "finite" in res.stderr


def test_check_past_the_range_of_lambda_powers_exits_2_naming_lam_and_m():
    res = run_cli("check", "--suite", "hopf-manifold", "--lambda", "1e200")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == (
        "projgeo: hopf-manifold.equivariance, trial 0: "
        "lam^m leaves the range of doubles at lam = 1e+200, m = 3\n"
    )


def test_check_at_a_huge_lambda_prints_counts_not_a_traceback():
    res = run_cli("check", "--suite", "hopf-manifold", "--lambda", "1e60")
    assert res.returncode in (0, 1)
    assert "Traceback" not in res.stderr
    lines = res.stdout.splitlines()
    assert len(lines) == 6
    for line in lines[:-1]:
        assert re.fullmatch(r"hopf-manifold\.\w+: \d+/100 (PASS|FAIL)", line)
    assert lines[-1] in ("overall: PASS", "overall: FAIL")


# --- pinned contracts of the document reader and the fiber writer ------------

DOCS = {
    "vector": '{"kind": "vector", "field": "real", "v": [2.0, 0.5]}',
    "matrix": '{"kind": "matrix", "field": "real", "M": [[0.5], [0.25]]}',
    "point": '{"kind": "proj_point", "field": "real", "n": 2, "h": [1.0, 0.0, 0.0]}',
    "cp1": '{"kind": "proj_point", "field": "complex", "n": 1, "h": [[0.6, -0.3], [0.2, 0.7]]}',
    "subspace": '{"kind": "subspace", "field": "real", "n": 3, "k": 1, "basis": [[1, 0, 0]]}',
    "hopf_point": '{"kind": "hopf_point", "field": "real", "n": 2, "lambda": 2, "rep": [1.0, 0.0]}',
}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fiber", "vector"], "fiber expects a proj_point document"),
        (["chart", "embed", "point", "--j", "1"], "embed expects a vector document"),
        (["chart", "embed", "matrix", "--j", "1"], "embed expects a vector document"),
        (["chart", "extract", "vector", "--j", "1"], "extract expects a proj_point document"),
        (["chart", "transition", "matrix", "--j1", "1", "--j2", "2"],
         "transition expects a vector document"),
        (["grassmann", "complement", "point"], "complement expects a subspace document"),
        (["grassmann", "annihilator", "vector"], "annihilator expects a subspace document"),
        (["grassmann", "graph", "--base", "point", "--matrix", "matrix"],
         "--base must be a subspace document"),
        (["grassmann", "graph", "--base", "subspace", "--complement", "matrix",
          "--matrix", "matrix"], "--complement must be a subspace document"),
        (["grassmann", "graph", "--base", "subspace", "--matrix", "vector"],
         "--matrix must be a matrix document"),
        (["grassmann", "coords", "hopf_point", "--base", "subspace"],
         "coords expects a subspace document"),
        (["hopf", "project", "matrix"], "project expects a vector document"),
        (["hopf", "equal", "vector", "point"], "equal expects two vector documents"),
        (["hopf", "equal", "matrix", "vector"], "equal expects two vector documents"),
        (["hopf", "to-projective", "vector"], "to-projective expects a hopf_point document"),
        (["link", "cp1", "subspace"], "link expects two proj_point documents"),
        (["apply", "point", "point"],
         "cannot apply a ProjPoint to a ProjPoint; use a proj_map on "
         "proj_point/extended_complex, or a matrix on subspace/hopf_point"),
    ],
)
def test_wrong_document_kind_exits_3_with_its_message(tmp_path, argv, message):
    args = [write_doc(tmp_path / f"{a}.json", DOCS[a]) if a in DOCS else a for a in argv]
    res = run_cli(*args)
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr == f"projgeo: {message}\n"


FIBER_DOCS = {
    "real-n2": '{"kind": "proj_point", "field": "real", "n": 2, "h": [0.3, -0.0, -1.7]}',
    "cp1": DOCS["cp1"],
    "complex-n3": '{"kind": "proj_point", "field": "complex", "n": 3, '
                  '"h": [[1.0, 2.0], [-0.5, 0.25], [0.0, -3.0], [0.1, 0.0]]}',
}


@pytest.mark.parametrize(
    "doc, flags, digest",
    [
        ("real-n2", [], "df354ad20c74d10e8475e5ee666bf7a7ec72a64844e03b9c2baf18026e318c4e"),
        ("cp1", ["--samples", "4096", "--stereo"],
         "fec8fc321aacfce0a5ff94c4ff4e6adbe326171d2b19814ce0695c4ef04c6827"),
        ("complex-n3", ["--samples", "100"],
         "427244ce4e78ac7766290ae5f9e3fffd54036df713bbaf1e721d248f0d54b6bf"),
    ],
)
def test_fiber_csv_bytes_are_pinned(tmp_path, doc, flags, digest):
    # a process: only it shows the bytes that reach stdout
    import hashlib

    path = write_doc(tmp_path / "p.json", FIBER_DOCS[doc])
    res = run_process("fiber", path, *flags)
    assert res.returncode == 0 and res.stderr == b""
    assert hashlib.sha256(res.stdout).hexdigest() == digest


FULL_DOCS = {
    "proj_point": {"field": "real", "n": 1, "h": [1.0, 0.0]},
    "proj_map": {"field": "real", "n": 1, "M": [[1.0, 0.0], [0.0, 1.0]]},
    "proj_subspace": {"field": "real", "n": 2, "basis": [[1, 0, 0]]},
    "subspace": {"field": "real", "n": 3, "k": 1, "basis": [[1, 0, 0]]},
    "hopf_point": {"field": "real", "n": 2, "lambda": 2, "rep": [1.0, 0.0]},
    "vector": {"field": "real", "v": [2.0, 0.5]},
    "matrix": {"field": "real", "M": [[0.5], [0.25]]},
    "extended_complex": {"z": [2.0, 1.0]},
}


@pytest.mark.parametrize(
    "kind, missing",
    [(kind, name) for kind, spec in jsonio._KINDS.items() for name in spec.fields]
    + [("proj_point", "kind")],
)
def test_missing_field_exits_2_naming_kind_and_field(tmp_path, kind, missing):
    assert set(FULL_DOCS) == set(jsonio._KINDS)
    doc = {k: v for k, v in {"kind": kind, **FULL_DOCS[kind]}.items() if k != missing}
    path = write_doc(tmp_path / "doc.json", json.dumps(doc))
    where = "document" if missing == "kind" else f"{kind} document"
    assert run_cli("apply", path, path) == (2, "", f"projgeo: {where} has no field '{missing}'\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"kind": "proj_point", "field": "real", "n": 1, "h": [1.0, 2.0, 3.0]}',
         "proj_point document field 'n': declared 1, but its data give 2"),
        ('{"kind": "vector", "field": "real", "v": 5}',
         "vector document field 'v': expected a list, got 5"),
        ('{"kind": "vector", "field": "real", "v": ["1e0", true, 2]}',
         "vector document field 'v': expected a number, got '1e0'"),
        ('{"kind": "vector", "field": "real", "v": [1.0], "n": 0}',
         "vector document has unknown field 'n'"),
        ('{"kind": "proj_subspace", "field": "real", "n": 2, '
         '"basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}',
         "projective subspace dimension must satisfy 0 <= l < n, got l = 2, n = 2"),
    ],
    ids=["declared-n", "v-not-a-list", "string-entry", "unknown-key", "whole-span"],
)
def test_invalid_document_exits_2_naming_kind_and_field(tmp_path, text, message):
    path = write_doc(tmp_path / "doc.json", text)
    assert run_cli("chart", "embed", path, "--j", "1") == (2, "", f"projgeo: {message}\n")


# --- tolerance flags before and after a sub-command ----------------------------

NEAR_TIE = '{"kind": "proj_point", "field": "real", "n": 2, "h": [1, 1e-6, 0]}'
FLAG_DOCS = {
    **DOCS,
    "near_tie": NEAR_TIE,
    "small": '{"kind": "vector", "field": "real", "v": [1e-6]}',
    "tiny": '{"kind": "vector", "field": "real", "v": [1e-6, 1e-6]}',
    "gl": '{"kind": "matrix", "field": "real", "M": [[1e-6], [0.25]]}',
    "x": '{"kind": "subspace", "field": "real", "n": 3, "k": 1, "basis": [[1e-6, 1, 0]]}',
}
SUBCOMMANDS = [
    ["chart", "embed", "small", "--j", "1"],
    ["chart", "extract", "near_tie", "--j", "2"],
    ["chart", "transition", "small", "--j1", "1", "--j2", "2"],
    ["grassmann", "graph", "--base", "subspace", "--matrix", "gl"],
    ["grassmann", "coords", "x", "--base", "subspace"],
    ["grassmann", "complement", "x"],
    ["grassmann", "annihilator", "x"],
    ["hopf", "project", "tiny"],
    ["hopf", "equal", "tiny", "vector"],
    ["hopf", "to-projective", "hopf_point"],
]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=[" ".join(a[:2]) for a in SUBCOMMANDS])
@pytest.mark.parametrize("flags", [["--eps", "1e-3"], ["--cond-max", "0.5"]])
def test_a_tolerance_flag_gives_one_answer_before_or_after_the_sub_command(
        tmp_path, monkeypatch, argv, flags):
    # None of these sub-commands meets the conditioning cap, so an invalid
    # --cond-max, which exits 2, is what shows that the flag was read.
    monkeypatch.delenv("PROJGEO_EPS", raising=False)
    argv = [write_doc(tmp_path / f"{a}.json", FLAG_DOCS[a]) if a in FLAG_DOCS else a for a in argv]
    before = run_cli(*argv[:1], *flags, *argv[1:])
    after = run_cli(*argv, *flags)
    assert before == after
    if flags[0] == "--cond-max":
        assert after[0] == 2


def test_a_flag_before_the_sub_command_is_not_dropped(tmp_path, monkeypatch):
    monkeypatch.delenv("PROJGEO_EPS", raising=False)
    path = write_doc(tmp_path / "p.json", NEAR_TIE)
    # the 1e-6 coordinate is zero at eps 1e-3, so the point is off chart 2
    assert run_cli("chart", "--eps", "1e-3", "extract", path, "--j", "2") == (0, "null\n", "")
    answer = (0, '{"kind": "vector", "field": "real", "v": [1000000, 0]}\n', "")
    assert run_cli("chart", "extract", path, "--j", "2") == answer
    # given at both places, the flag after the sub-command wins
    assert run_cli("chart", "--eps", "1e-3", "extract", path, "--j", "2",
                   "--eps", "1e-9") == answer
    # PROJGEO_EPS yields to a flag at either place
    monkeypatch.setenv("PROJGEO_EPS", "1e-3")
    assert run_cli("chart", "extract", path, "--j", "2").stdout == "null\n"
    assert run_cli("chart", "--eps", "1e-9", "extract", path, "--j", "2") == answer
    assert run_cli("chart", "extract", path, "--j", "2", "--eps", "1e-9") == answer


def test_importing_the_cli_does_not_load_numpy_random():
    # a process: only a new interpreter shows which modules the import loads
    code = "import sys, projgeo.cli; print('numpy.random' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


def test_to_projective_prints_the_point_of_the_documents_own_lambda(tmp_path):
    path = write_doc(tmp_path / "h.json", quotient_project([30.0, 40.0, 0.0], ScaleGroup(3.0)))
    assert json.loads((tmp_path / "h.json").read_text())["lambda"] == 3
    code, out, err = run_cli("hopf", "to-projective", path)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["kind"], doc["n"]) == ("proj_point", 2)
    assert np.max(np.abs(np.array(doc["h"]) - [0.6, 0.8, 0.0])) < 1e-15
    code, usage, err = run_cli("hopf", "to-projective", "--help")
    assert (code, err) == (0, "")
    assert "--eps" in usage and "--lambda" not in usage


def test_deeply_nested_json_exits_2_naming_the_file(tmp_path):
    path = write_doc(tmp_path / "deep.json", "[" * 100000 + "]" * 100000)
    assert run_cli("apply", path, path) == (2, "", f"projgeo: {path}: JSON nested too deeply\n")


CP2 = {"p": '{"kind": "proj_point", "field": "complex", "n": 2, "h": [[1, 0], [0, 1], [0.5, 0]]}',
       "q": '{"kind": "proj_point", "field": "complex", "n": 2, "h": [[0, 1], [1, 0], [0, 0]]}'}


def test_link_on_two_cp2_documents_exits_3_naming_what_it_got(tmp_path):
    paths = [write_doc(tmp_path / f"{name}.json", doc) for name, doc in CP2.items()]
    assert run_cli("link", *paths) == (
        3, "", "projgeo: expected a point of CP^1, got a complex point with n = 2\n")


@pytest.mark.parametrize("doc, got", [("real-n2", "a real point with n = 2"),
                                      ("complex-n3", "a complex point with n = 3")])
def test_fiber_stereo_off_cp1_exits_3_before_printing(tmp_path, doc, got):
    path = write_doc(tmp_path / "p.json", FIBER_DOCS[doc])
    assert run_cli("fiber", path, "--stereo") == (
        3, "", f"projgeo: expected a point of CP^1, got {got}\n")


def test_a_bad_env_eps_exits_2_naming_the_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("PROJGEO_EPS", "abc")
    path = write_doc(tmp_path / "w.json", DOCS["vector"])
    assert run_cli("chart", "embed", path, "--j", "1") == (
        2, "", "projgeo: $PROJGEO_EPS must be a number, got 'abc'\n")


def test_a_document_that_is_not_utf8_exits_2_naming_the_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"kind": "vector", "field": "real", "v": [1.0], "note": "caf\xe9"}')
    assert run_cli("chart", "embed", str(path), "--j", "1") == (
        2, "", f"projgeo: {path}: not UTF-8 text at byte 60\n")


def test_an_internal_value_error_is_not_reported_as_bad_input(tmp_path, monkeypatch):
    def broken(*args):
        raise ValueError("an internal bug")

    monkeypatch.setattr(projective, "chart_embed", broken)
    path = write_doc(tmp_path / "w.json", DOCS["vector"])
    with pytest.raises(ValueError, match="an internal bug"):
        run_cli("chart", "embed", path, "--j", "1")
