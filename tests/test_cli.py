import json
import re
import subprocess
import sys

import numpy as np
import pytest

from projgeo import cli, suites
from projgeo.errors import ZeroVector
from projgeo.jsonio import dumps, encode
from projgeo import map_from_matrix, point_from_vector, quotient_project, subspace_from_span


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "projgeo", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


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
        assert np.max(np.abs(got - samples[t].x)) < 1e-16


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
    a = run_cli("check", "--suite", "all", "--trials", "10", "--seed", "1")
    b = run_cli("check", "--suite", "all", "--trials", "10", "--seed", "1")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


@pytest.mark.parametrize(
    "args",
    [["--suite", "hopf-manifold", "--lambda", "1e8"], ["--suite", "all", "--eps", "1e-3"]],
    ids=["lambda-1e8", "eps-1e-3"],
)
def test_check_draws_clear_of_eps_and_lambda(args):
    # scaled draws used to fall below eps here and abort with ZeroVector
    res = run_cli("check", *args)
    assert res.returncode in (0, 1)
    assert res.stderr == ""
    lines = res.stdout.splitlines()
    assert lines[-1] == ("overall: PASS" if res.returncode == 0 else "overall: FAIL")
    assert all(re.fullmatch(r"[a-z-]+\.[a-z_]+: \d+/\d+ (PASS|FAIL)", line) for line in lines[:-1])


def test_check_error_names_property_and_trial(monkeypatch, capsys):
    def trial(rng, i, tol, lam):
        if i == 2:
            raise ZeroVector("cannot project the zero vector")
        return True

    monkeypatch.setitem(suites.SUITES, "fibration", [("probe", trial)])
    assert cli.main(["check", "--suite", "fibration", "--trials", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "projgeo: fibration.probe, trial 2: cannot project the zero vector\n"


def test_check_unknown_suite_exits_2():
    res = run_cli("check", "--suite", "mystery")
    assert res.returncode == 2


def test_env_var_overrides_tolerance(docs, tmp_path, monkeypatch):
    import os

    p = point_from_vector([1.0, 1e-6, 0.0])
    env = dict(os.environ, PROJGEO_EPS="1e-3")
    res = run_cli("chart", "extract", docs("p.json", p), "--j", "2", env=env)
    assert res.returncode == 0
    assert res.stdout.strip() == "null"  # 1e-6 pivot is "zero" at eps 1e-3
    res2 = run_cli("chart", "extract", docs("p2.json", p), "--j", "2")
    assert res2.returncode == 0
    assert res2.stdout.strip() != "null"


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
        (["--lambda", "0.5"], "scale must have absolute value larger than 1"),
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


def test_check_at_a_huge_lambda_prints_counts_not_a_traceback():
    res = run_cli("check", "--suite", "hopf-manifold", "--lambda", "1e60")
    assert res.returncode in (0, 1)
    assert "Traceback" not in res.stderr
    lines = res.stdout.splitlines()
    assert len(lines) == 6
    for line in lines[:-1]:
        assert re.fullmatch(r"hopf-manifold\.\w+: \d+/100 (PASS|FAIL)", line)
    assert lines[-1] in ("overall: PASS", "overall: FAIL")
