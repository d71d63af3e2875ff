"""The cli workload: one ``python -m projgeo`` process per op.

Every block of 18 commands runs each command below once (``check``
once per suite), in a seeded order, on JSON documents generated for
that block with plain ``json`` and numpy.  Outputs are checked after
the loop: JSON results against the in-process API on the same
documents, the fiber CSV against a numpy reference, ``check`` against
the in-process suites.

The known-defect input is a separate, fixed probe set that the traced
run makes after the workload: ``chart extract --eps 1e-6`` on a
complex point whose two largest moduli are closer than that eps but
further apart than the default one.
"""

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import numpy as np

import linkload
import refs

TRACE_OPS = 36  # two blocks
MIN_OPS = 108  # six blocks, so that p90 has ten samples beyond it
PROBES = 4
SUITES = ("projective", "grassmann", "hopf-manifold", "fibration")
FIBER_SAMPLES = 4096
LINK_SAMPLES = 512
LINK_SEP = (0.2, math.sqrt(2.0))  # resolved at 512 segments
TIE_EPS = 1e-6

MIX = {
    "op mix": "18 commands per block, one each: apply x4 (proj_map on proj_point and "
              "extended_complex, matrix on subspace and hopf_point), chart extract, "
              "chart transition, grassmann coords/complement/annihilator, hopf "
              "project/equal/to-projective, fiber, link, check x4 (one per suite)",
    "sizes": f"n+1 in {{2,4,8}}, G(k,n) n<=8, fiber --samples {FIBER_SAMPLES} --stereo, "
             f"link --samples {LINK_SAMPLES}, check --trials 20 on each of {', '.join(SUITES)}",
    "defect probes": f"{PROBES} in the traced run, untimed: chart extract --j 1 --eps {TIE_EPS:g} "
                     "on a pivot near-tie (gap 1e-8..5e-7)",
}


class Op:
    __slots__ = ("kind", "argv", "expect", "adversarial")

    def __init__(self, kind, argv, expect, adversarial=False):
        self.kind = kind
        self.argv = argv
        self.expect = expect  # expect(pg) -> (expected value, comparison)
        self.adversarial = adversarial


# --- documents ---------------------------------------------------------------


def _fname(cplx):
    return "complex" if cplx else "real"


def _scalar(x, cplx):
    return [float(x.real), float(x.imag)] if cplx else float(x.real)


def _vec(v, cplx):
    return [_scalar(x, cplx) for x in v]


def proj_point(v, cplx):
    return {"kind": "proj_point", "field": _fname(cplx), "n": len(v) - 1, "h": _vec(v, cplx)}


def proj_map(a, cplx):
    return {"kind": "proj_map", "field": _fname(cplx), "n": len(a) - 1,
            "M": [_vec(row, cplx) for row in a]}


def matrix(a, cplx):
    return {"kind": "matrix", "field": _fname(cplx), "M": [_vec(row, cplx) for row in a]}


def vector(v, cplx):
    return {"kind": "vector", "field": _fname(cplx), "v": _vec(v, cplx)}


def subspace(x, cplx):
    return {"kind": "subspace", "field": _fname(cplx), "n": x.shape[0], "k": x.shape[1],
            "basis": [_vec(col, cplx) for col in x.T]}


def hopf_point(v, lam, cplx):
    return {"kind": "hopf_point", "field": _fname(cplx), "n": len(v),
            "lambda": [float(complex(lam).real), float(complex(lam).imag)], "rep": _vec(v, cplx)}


# --- expected results --------------------------------------------------------


def _load(pg, path):
    with open(path, encoding="utf-8") as fh:
        return pg.jsonio.decode(json.load(fh))


def _encoded(pg, obj):
    return None if obj is None else json.loads(pg.jsonio.dumps(pg.jsonio.encode(obj)))


def same(got, want, tol=1e-12):
    """Structural equality with numbers compared to a relative tolerance."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            same(got[k], want[k], tol) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            same(g, w, tol) for g, w in zip(got, want)
        )
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return got == want and type(got) is type(want)
    if isinstance(want, int):
        return isinstance(got, int) and not isinstance(got, bool) and got == want
    return isinstance(got, (int, float)) and not isinstance(got, bool) and abs(
        got - want
    ) <= tol * (1.0 + abs(want))


def _json_result(compute):
    def expect(pg):
        return _encoded(pg, compute(pg)), "json"
    return expect


def _parse_json(text):
    try:
        return True, json.loads(text)
    except ValueError:
        return False, None


def _fiber_rows(text):
    lines = text.splitlines()
    try:
        return np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    except ValueError:
        return None


def verify(pg, op, code, stdout):
    """Whether one command's exit code and stdout are right."""
    if code != 0:
        return False
    want, how = op.expect(pg)
    if how == "json":
        ok, got = _parse_json(stdout)
        return ok and same(got, want)
    if how == "text":
        return stdout == want
    if how == "fiber":
        rows = _fiber_rows(stdout)
        return rows is not None and rows.shape == want.shape and bool(
            np.max(np.abs(rows - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))
        )
    raise ValueError(f"unknown comparison {how!r}")


# --- block generation --------------------------------------------------------


def _tie_vector(rng, dim):
    """Complex vector whose two largest moduli differ by 1e-8..5e-7 relative."""
    i, j = sorted(rng.choice(dim, size=2, replace=False))
    mods = np.abs(rng.standard_normal(dim)) * 0.1
    gap = math.exp(rng.uniform(math.log(1e-8), math.log(5e-7)))
    mods[j] = 1.0
    mods[i] = 1.0 - gap
    scale = refs.random_scalar(rng, True)
    return scale * mods * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, dim))


def make_block(seed, b, directory):
    """Write the documents of block b and return its ops."""
    rng = np.random.default_rng([2, seed, b])
    os.makedirs(directory, exist_ok=True)

    def write(name, doc):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def field():
        return bool(rng.random() < 0.5)

    def pdim():
        return int(rng.choice((2, 4, 8)))

    ops = []

    # apply: proj_map on proj_point
    cplx, d = field(), pdim()
    m_path = write("map.json", proj_map(refs.random_invertible(rng, d, cplx), cplx))
    p_path = write("point.json", proj_point(refs.random_vector(rng, d, cplx), cplx))
    ops.append(Op("apply map point", ["apply", m_path, p_path], _json_result(
        lambda pg: pg.apply_map(_load(pg, m_path), _load(pg, p_path)))))

    # apply: CP^1 map on an extended complex value
    m1_path = write("map_cp1.json", proj_map(refs.random_invertible(rng, 2, True), True))
    z = complex(refs.random_vector(rng, 1, True)[0])
    z_path = write("z.json", {"kind": "extended_complex", "z": [z.real, z.imag]})
    ops.append(Op("apply map extended", ["apply", m1_path, z_path], _json_result(
        lambda pg: pg.cp1_affine(pg.apply_map(
            _load(pg, m1_path), pg.cp1_from_affine(_load(pg, z_path)))))))

    # apply: matrix on subspace, matrix on hopf point
    cplx = field()
    k, n = ((1, 2), (2, 4), (3, 6), (2, 8), (4, 8))[rng.integers(5)]
    g_path = write("gl.json", matrix(refs.random_invertible(rng, n, cplx), cplx))
    s_path = write("sub.json", subspace(refs.random_vector(rng, n * k, cplx).reshape(n, k), cplx))
    ops.append(Op("apply matrix subspace", ["apply", g_path, s_path], _json_result(
        lambda pg: pg.apply_gl(_load(pg, g_path), _load(pg, s_path)))))
    cplx, dim = field(), pdim()
    lam = (2.0, 1.5 * complex(math.cos(0.7), math.sin(0.7)))[rng.integers(2)] if cplx else 3.0
    gh_path = write("gl_hopf.json", matrix(refs.random_invertible(rng, dim, cplx), cplx))
    hv = refs.random_vector(rng, dim, cplx) * 10.0 ** rng.uniform(-3, 3)
    h_path = write("hopf.json", hopf_point(hv, lam, cplx))
    ops.append(Op("apply matrix hopf", ["apply", gh_path, h_path], _json_result(
        lambda pg: pg.induced_linear(_load(pg, gh_path), _load(pg, h_path)))))

    # chart extract and transition
    cplx, d = field(), pdim()
    j = int(rng.integers(1, d + 1))
    e_path = write("extract.json", proj_point(refs.random_vector(rng, d, cplx), cplx))
    ops.append(Op("chart extract", ["chart", "extract", e_path, "--j", str(j)], _json_result(
        lambda pg, n=d - 1, j=j: pg.chart_extract(pg.AffineChart(n, j), _load(pg, e_path)))))
    cplx, d = field(), pdim()
    j1, j2 = (int(x) for x in rng.integers(1, d + 1, size=2))
    w_path = write("affine.json", vector(refs.random_vector(rng, d - 1, cplx), cplx))
    ops.append(Op("chart transition",
                  ["chart", "transition", w_path, "--j1", str(j1), "--j2", str(j2)],
                  _json_result(lambda pg, n=d - 1: pg.chart_transition(
                      pg.AffineChart(n, j1), pg.AffineChart(n, j2), _load(pg, w_path)))))

    # grassmann coords, complement, annihilator
    cplx = field()
    k, n = ((1, 2), (2, 4), (3, 6), (2, 8), (4, 8))[rng.integers(5)]
    b_path = write("base.json", subspace(refs.random_vector(rng, n * k, cplx).reshape(n, k), cplx))
    x_path = write("coords_sub.json",
                   subspace(refs.random_vector(rng, n * k, cplx).reshape(n, k), cplx))
    ops.append(Op("grassmann coords", ["grassmann", "coords", x_path, "--base", b_path],
                  _json_result(lambda pg: pg.chart_coords(
                      pg.graph_chart(_load(pg, b_path)), _load(pg, x_path)))))
    for action, fn in (("complement", "orthogonal_complement"), ("annihilator", "annihilator")):
        cplx = field()
        k, n = ((1, 2), (2, 4), (3, 6), (2, 8), (4, 8))[rng.integers(5)]
        path = write(f"{action}.json",
                     subspace(refs.random_vector(rng, n * k, cplx).reshape(n, k), cplx))
        ops.append(Op(f"grassmann {action}", ["grassmann", action, path], _json_result(
            lambda pg, path=path, fn=fn: getattr(pg, fn)(_load(pg, path)))))

    # hopf project, equal, to-projective
    cplx, dim = field(), pdim()
    lam = (2.0, 1.5 * complex(math.cos(0.7), math.sin(0.7)))[rng.integers(2)] if cplx else 3.0
    lam_arg = repr(lam) if not cplx else f"{lam.real!r}{lam.imag:+.17g}j"
    v = refs.random_vector(rng, dim, cplx) * 10.0 ** rng.uniform(-3, 3)
    v_path = write("hv.json", vector(v, cplx))
    ops.append(Op("hopf project", ["hopf", "project", v_path, "--lambda", lam_arg], _json_result(
        lambda pg, lam=lam: pg.quotient_project(_load(pg, v_path), pg.ScaleGroup(lam)))))
    same_class = bool(rng.random() < 0.5)
    jpow = int(rng.integers(-3, 4))
    w = v * lam ** jpow if same_class else v * abs(lam) ** (jpow + 0.5)
    w_path2 = write("hw.json", vector(w, cplx))
    ops.append(Op("hopf equal", ["hopf", "equal", v_path, w_path2, "--lambda", lam_arg],
                  lambda pg, s=same_class: ("true\n" if s else "false\n", "text")))
    cplx, dim = field(), pdim()
    tp_path = write("hp.json", hopf_point(refs.random_vector(rng, dim, cplx), 2.0, cplx))
    ops.append(Op("hopf to-projective", ["hopf", "to-projective", tp_path], _json_result(
        lambda pg: pg.to_projective(_load(pg, tp_path)))))

    # fiber, link, check
    fv = refs.random_vector(rng, 2, True)
    f_path = write("fiber.json", proj_point(fv, True))

    def fiber_expect(pg):
        h = refs.canonical(fv)
        t = np.arange(FIBER_SAMPLES)
        ring = np.exp(2j * np.pi * t / FIBER_SAMPLES)[:, None] * h[None, :]
        stereo = pg.fiber_stereo_samples(_load(pg, f_path), FIBER_SAMPLES)
        cols = [t, ring[:, 0].real, ring[:, 0].imag, ring[:, 1].real, ring[:, 1].imag]
        return np.column_stack(cols + [stereo]), "fiber"

    ops.append(Op("fiber", ["fiber", f_path, "--samples", str(FIBER_SAMPLES), "--stereo"],
                  fiber_expect))
    sep = LINK_SEP[0] * math.exp(rng.uniform(0.0, math.log(LINK_SEP[1] / LINK_SEP[0])))
    hp, hq = linkload.pair_at(rng, sep)
    lp = write("link_p.json", proj_point(hp, True))
    lq = write("link_q.json", proj_point(hq, True))

    def link_expect(pg):
        raw = pg.linking_integral(_load(pg, lp), _load(pg, lq), LINK_SAMPLES)
        want = {"kind": "linking", "samples": LINK_SAMPLES, "integral": raw,
                "linking_number": linkload.EXPECTED}
        return want, "json"

    ops.append(Op("link", ["link", lp, lq, "--samples", str(LINK_SAMPLES)], link_expect))
    for suite in SUITES:  # every suite in every block: their costs differ 7-fold
        check_seed = int(rng.integers(0, 2 ** 31))

        def check_expect(pg, suite=suite, check_seed=check_seed):
            lines, failed = [], 0
            for r in pg.suites.run_suite(suite, 20, check_seed):
                failed += r.passed != r.total
                status = "PASS" if r.passed == r.total else "FAIL"
                lines.append(f"{r.name}: {r.passed}/{r.total} {status}\n")
            lines.append("overall: " + ("PASS" if failed == 0 else "FAIL") + "\n")
            return "".join(lines), "text"

        ops.append(Op(f"check {suite}", ["check", "--suite", suite, "--trials", "20",
                                         "--seed", str(check_seed)], check_expect))

    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def make_probes(seed, directory):
    """Write the known-defect documents and return their ops."""
    rng = np.random.default_rng([5, seed])
    os.makedirs(directory, exist_ok=True)
    ops = []
    for i in range(PROBES):
        tv = _tie_vector(rng, int(rng.choice((2, 4, 8))))
        path = os.path.join(directory, f"tie{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(proj_point(tv, True), fh)

        def tie_expect(pg, tv=tv):
            coords = np.delete(tv, 0) / tv[0]
            return {"kind": "vector", "field": "complex", "v": _vec(coords, True)}, "json"

        ops.append(Op("chart extract near-tie",
                      ["chart", "extract", path, "--j", "1", "--eps", repr(TIE_EPS)],
                      tie_expect, adversarial=True))
    return ops


# --- running commands --------------------------------------------------------


def run_inprocess(main, argv):
    """Call ``cli.main(argv)`` with stdout captured; (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        code = main(argv)
        seconds = perf_counter() - t0
    return code, out.getvalue(), seconds
