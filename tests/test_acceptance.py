"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned in the body of its test.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

import projgeo as pg
from projgeo.suites import (
    rand_distinct_points,
    rand_invertible,
    rand_nonzero_scalar,
    rand_nonzero_vector,
    rand_proj_map,
    rand_proj_point,
    rand_subspace,
    rand_vector,
)

FIELDS = ("real", "complex")
DIMS = (1, 2, 3, 5)


def _report(number, name):
    print(f"criterion {number:02d} ({name}): PASS")


def test_criterion_01_functoriality():
    rng = np.random.default_rng(101)
    for i in range(200):
        field, n = FIELDS[i % 2], DIMS[(i // 2) % 4]
        t1 = pg.map_from_matrix(rand_invertible(rng, n + 1, field))
        t2 = pg.map_from_matrix(rand_invertible(rng, n + 1, field))
        p = rand_proj_point(rng, n, field)
        lhs = pg.apply_map(pg.compose(t1, t2), p)
        rhs = pg.apply_map(t1, pg.apply_map(t2, p))
        assert pg.point_distance(lhs, rhs) < 1e-9
    _report(1, "functoriality")


def test_criterion_02_inverse_law():
    rng = np.random.default_rng(102)
    for i in range(200):
        field, n = FIELDS[i % 2], DIMS[(i // 2) % 4]
        t = pg.map_from_matrix(rand_invertible(rng, n + 1, field))
        p = rand_proj_point(rng, n, field)
        back = pg.apply_map(pg.inverse_map(t), pg.apply_map(t, p))
        assert pg.point_distance(back, p) < 1e-9
        ident = pg.compose(t, pg.inverse_map(t))
        assert pg.map_distance(ident, pg.identity_map(n, field)) < 1e-9
    _report(2, "inverse law")


def test_criterion_03_scalar_class():
    rng = np.random.default_rng(103)
    for i in range(100):
        field, n = FIELDS[i % 2], DIMS[(i // 2) % 4]
        a = rand_invertible(rng, n + 1, field)
        alpha = rand_nonzero_scalar(rng, field)
        assert pg.maps_equal(pg.map_from_matrix(a), pg.map_from_matrix(alpha * a))
    for i in range(100):
        field, n = FIELDS[i % 2], DIMS[(i // 2) % 4]
        a = rand_invertible(rng, n + 1, field)
        perturbed = a + 0.1 * rand_vector(rng, (n + 1) ** 2, field).reshape(n + 1, n + 1)
        if pg.cond_estimate(perturbed) > 1e12:
            perturbed = a + 0.05 * np.eye(n + 1)
        assert not pg.maps_equal(pg.map_from_matrix(a), pg.map_from_matrix(perturbed))
    _report(3, "scalar class law")


def test_criterion_04_dimension_formulas():
    for n in range(1, 11):
        assert pg.group_dimension(n, "real") == (n + 1) ** 2 - 1
        assert pg.group_dimension(n, "complex") == (n + 1) ** 2 - 1
        for k in range(1, n):
            assert pg.grassmann_dimension(k, n) == k * (n - k)
    _report(4, "group and Grassmann dimensions")


def test_criterion_05_atlas():
    rng = np.random.default_rng(105)
    bound = 1.0 / np.sqrt(4.0) - 1e-12
    for field in FIELDS:
        loci = [pg.missing_locus(pg.AffineChart(3, j), field) for j in range(1, 5)]
        for _ in range(1000):
            p = rand_proj_point(rng, 3, field)
            c = pg.chart_cover(p)
            assert abs(p.h[c.j - 1]) >= bound
            coords = pg.chart_extract(c, p)
            assert coords is not None
            back = pg.chart_embed(c, coords, field=field)
            assert pg.point_distance(back, p) < 1e-10
            w = rand_vector(rng, 3, field)
            there = pg.chart_extract(c, pg.chart_embed(c, w, field=field))
            assert there is not None and np.max(np.abs(there - w)) < 1e-10
            for j, locus in enumerate(loci, start=1):
                absent = pg.chart_extract(pg.AffineChart(3, j), p) is None
                assert absent == pg.point_membership(p, locus)
    _report(5, "atlas coverage and missing loci")


def test_criterion_06_graph_chart():
    rng = np.random.default_rng(106)
    for i in range(200):
        field = FIELDS[i % 2]
        base = rand_subspace(rng, 5, 2, field)
        chart = pg.graph_chart(base)
        coeffs = rand_vector(rng, 6, field).reshape(3, 2)
        graph = pg.graph_subspace(chart, coeffs)
        assert graph.k == 2
        got = pg.chart_coords(chart, graph)
        assert got is not None
        assert np.max(np.abs(got - coeffs)) < 1e-9
    _report(6, "graph chart round trip")


def test_criterion_07_transitivity():
    rng = np.random.default_rng(107)
    for i in range(100):
        field = FIELDS[i % 2]
        p, q = rand_distinct_points(rng, 3, field)
        t = pg.transitive_witness(p, q)
        assert pg.point_distance(pg.apply_map(t, p), q) < 1e-9
    for i in range(100):
        field = FIELDS[i % 2]
        l1 = rand_subspace(rng, 5, 2, field)
        l2 = rand_subspace(rng, 5, 2, field)
        g = pg.transitive_witness_gr(l1, l2)
        assert pg.projector_distance(pg.apply_gl(g, l1).basis, l2.basis) < 1e-9
    _report(7, "transitivity witnesses")


def test_criterion_08_dualities():
    rng = np.random.default_rng(108)
    for field in FIELDS:
        for _ in range(100):
            n = int(rng.integers(3, 7))
            k = int(rng.integers(1, n))
            s = rand_subspace(rng, n, k, field)
            comp = pg.orthogonal_complement(s)
            ann = pg.annihilator(s)
            assert comp.k == n - k and ann.k == n - k
            assert pg.projector_distance(pg.orthogonal_complement(comp).basis, s.basis) < 1e-10
            assert pg.projector_distance(pg.annihilator(ann).basis, s.basis) < 1e-10
    witness = pg.subspace_from_span(np.array([[1.0], [1.0j]]))
    assert not pg.subspaces_equal(
        pg.annihilator(witness), pg.orthogonal_complement(witness)
    )
    _report(8, "dualities")


def test_criterion_09_double_cover():
    rng = np.random.default_rng(109)
    for i in range(100):
        n = DIMS[i % 4]
        p = rand_proj_point(rng, n, "real")
        fiber = pg.real_fiber(p)
        assert len(fiber) == 2
        x1, x2 = fiber
        assert np.array_equal(x1.x, -x2.x)
        assert abs(np.linalg.norm(x1.x) - 1.0) < 1e-12
        assert abs(np.linalg.norm(x2.x) - 1.0) < 1e-12
        assert pg.point_distance(pg.hopf_project(x1), p) < 1e-12
        assert pg.point_distance(pg.hopf_project(x2), p) < 1e-12
    _report(9, "real double cover")


def test_criterion_10_circle_fibers_and_disjointness():
    rng = np.random.default_rng(110)
    for i in range(200):
        n = 1 if i % 2 == 0 else 2
        p = rand_proj_point(rng, n, "complex")
        for x in pg.complex_fiber_sample(p, 64):
            assert pg.point_distance(pg.hopf_project(x), p) < 1e-10
    for i in range(200):
        n = 1 if i % 2 == 0 else 2
        p, q = rand_distinct_points(rng, n, "complex")
        assert pg.fibers_min_distance(p, q, 64) > 1e-3
    _report(10, "circle fibers and disjointness")


def test_criterion_11_linking():
    rng = np.random.default_rng(111)
    for _ in range(20):
        p, q = rand_distinct_points(rng, 1, "complex")
        started = time.monotonic()
        raw = pg.linking_integral(p, q, 2048)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0
        assert abs(abs(raw) - 1.0) < 0.05
        assert abs(int(round(raw))) == 1
    _report(11, "fiber linking")


def test_criterion_12_mobius_correspondence():
    rng = np.random.default_rng(112)
    for _ in range(50):
        while True:
            a, b, c, d = (complex(*rng.standard_normal(2)) for _ in range(4))
            if abs(a * d - b * c) > 0.1:
                break
        sub = np.random.default_rng(int(rng.integers(0, 2**63)))
        assert pg.mobius_matches_projective(a, b, c, d, 100, rng=sub)
    _report(12, "Mobius correspondence")


def test_criterion_13_hopf_manifold():
    rng = np.random.default_rng(113)
    for lam in (2.0, 3.0, 2.0j):
        group = pg.ScaleGroup(lam)
        fields = FIELDS if group.is_real else ("complex",)
        scale = group.abs_scale
        for i in range(500):
            field = fields[i % len(fields)]
            n = DIMS[(i // len(fields)) % 4]
            v = rand_nonzero_vector(rng, n, field)
            m = int(rng.integers(-10, 11))
            assert pg.hopf_points_equal(v, v * group.power(m, field), group)
            nrm = np.linalg.norm(pg.quotient_project(v, group).rep)
            assert 1.0 - 1e-12 <= nrm < scale * (1.0 - 1e-12)
        for i in range(100):
            field = fields[i % len(fields)]
            n = DIMS[(i // len(fields)) % 4] + 1
            v = rand_nonzero_vector(rng, n, field)
            g = rand_invertible(rng, n, field)
            h = pg.quotient_project(v, group)
            top = pg.to_projective(pg.induced_linear(g, h))
            bottom = pg.apply_map(pg.map_from_matrix(g), pg.to_projective(h))
            assert pg.point_distance(top, bottom) < 1e-9
    _report(13, "scalar-power quotients")


def test_criterion_14_cli_determinism():
    cmd = [sys.executable, "-m", "projgeo", "check",
           "--suite", "all", "--trials", "50", "--seed", "1"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout == second.stdout
    _report(14, "CLI determinism")
