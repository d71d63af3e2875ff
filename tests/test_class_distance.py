"""One distance per space: equality compares classes, not representatives.

Near a pivot tie two scalar multiples of one vector can get different
canonical representatives, because a representative cannot depend
continuously on its line.  The class distances must still read them as
the same class, at the default eps and at a user eps.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import projgeo as pg
from projgeo import cli
from projgeo.suites import rand_invertible, rand_nonzero_scalar, rand_nonzero_vector

FIELDS = ("real", "complex")


def tie_vector(rng, size, field, eps, k):
    """A unit vector whose two largest moduli are eps + k ulp apart, the
    larger one second, so that roundoff decides which one the pivot is."""
    i, j = sorted(rng.choice(size, size=2, replace=False))
    mods = np.abs(rng.standard_normal(size)) * 0.1 / math.sqrt(size)
    mods[[i, j]] = 0.0
    top = math.sqrt((1.0 - float(mods @ mods)) / 2.0)
    mods[j] = top + eps / 2
    mods[i] = mods[j] - eps + k * math.ulp(mods[j])
    if field == "complex":
        return mods * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size))
    return mods * rng.choice((-1.0, 1.0), size)


_TIES = dict(
    seed=st.integers(0, 2**32 - 1),
    field=st.sampled_from(FIELDS),
    eps=st.sampled_from([1e-9, 1e-6]),
    k=st.integers(-3, 3),
)


@settings(max_examples=150, deadline=None)
@given(d=st.sampled_from([2, 4, 8]), **_TIES)
def test_scaled_tie_vectors_are_one_point(seed, field, eps, k, d):
    rng = np.random.default_rng(seed)
    u = tie_vector(rng, d, field, eps, k)
    a = rand_nonzero_scalar(rng, field)
    tol = pg.Tolerance(eps_abs=eps)
    assert pg.points_equal(pg.point_from_vector(a * u, tol), pg.point_from_vector(u, tol), tol)


@settings(max_examples=150, deadline=None)
@given(d=st.sampled_from([2, 3, 4]), **_TIES)
def test_scaled_tie_matrices_are_one_map(seed, field, eps, k, d):
    rng = np.random.default_rng(seed)
    u = tie_vector(rng, d * d, field, eps, k).reshape(d, d)
    assume(pg.cond_estimate(u) < 1e10)
    a = rand_nonzero_scalar(rng, field)
    tol = pg.Tolerance(eps_abs=eps)
    assert pg.maps_equal(pg.map_from_matrix(a * u, tol), pg.map_from_matrix(u, tol), tol)


def _distance_laws(dist, x, y, x_scaled, y_scaled):
    assert dist(x, x) <= 1e-16 and dist(y, y) <= 1e-16
    assert dist(x, y) == pytest.approx(dist(y, x), abs=1e-15)
    assert dist(x_scaled, y) == pytest.approx(dist(x, y), abs=1e-12)
    assert dist(x, y_scaled) == pytest.approx(dist(x, y), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), field=st.sampled_from(FIELDS), n=st.sampled_from([1, 3]))
def test_point_and_map_distances_are_class_functions(seed, field, n):
    rng = np.random.default_rng(seed)
    v, w = rand_nonzero_vector(rng, n + 1, field), rand_nonzero_vector(rng, n + 1, field)
    alpha, beta = rand_nonzero_scalar(rng, field), rand_nonzero_scalar(rng, field)
    point = pg.point_from_vector
    _distance_laws(pg.point_distance, point(v), point(w), point(alpha * v), point(beta * w))
    a, b = rand_invertible(rng, n + 1, field), rand_invertible(rng, n + 1, field)
    mapc = pg.map_from_matrix
    _distance_laws(pg.map_distance, mapc(a), mapc(b), mapc(alpha * a), mapc(beta * b))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lam=st.sampled_from([2.0, 3.0, -3.0, 1.5 + 2j]),
       n=st.sampled_from([1, 3]), m=st.integers(-3, 3))
def test_hopf_distance_is_a_class_function(seed, lam, n, m):
    group = pg.ScaleGroup(lam)
    field = "real" if group.is_real else "complex"
    rng = np.random.default_rng(seed)
    v, w = rand_nonzero_vector(rng, n, field), rand_nonzero_vector(rng, n, field)
    cls = lambda x: pg.quotient_project(x, group)  # noqa: E731
    scale = group.power(m, field)
    _distance_laws(pg.hopf_distance, cls(v), cls(w), cls(scale * v), cls(scale * w))
    assert pg.hopf_distance(cls(v), cls(-v)) > 1e-9  # no power of these lam is -1
    with pytest.raises(pg.FieldMismatch, match="mixed scale groups"):
        pg.hopf_distance(cls(v), pg.quotient_project(v, pg.ScaleGroup(5.0)))


def tie_pair():
    """Two multiples u and a u of one CP^1 vector, at the 1e-12 pivot band,
    whose points hold representatives with different pivots."""
    for seed in range(100):
        rng = np.random.default_rng(seed)
        u = tie_vector(rng, 2, "complex", 1e-12, int(rng.integers(-3, 4)))
        au = rand_nonzero_scalar(rng, "complex") * u
        if np.max(np.abs(pg.point_from_vector(u).h - pg.point_from_vector(au).h)) > 0.1:
            return u, au
    raise AssertionError("no tie pair with two representatives in 100 seeds")


def test_tie_pair_is_one_point_to_every_fiber_computation():
    p, q = (pg.point_from_vector(v) for v in tie_pair())
    assert pg.point_distance(p, q) < 1e-15
    with pytest.raises(pg.SamePoint):
        pg.linking_number(p, q, 2048)
    with pytest.raises(pg.SamePoint):
        pg.fibers_min_distance(p, q, 64)


def test_link_on_a_tie_pair_exits_3(tmp_path, capsys):
    paths = []
    for name, v in zip("pq", tie_pair()):
        doc = {"kind": "proj_point", "field": "complex", "n": 1,
               "h": [[float(z.real), float(z.imag)] for z in v]}
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    assert cli.main(["link", *map(str, paths)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "projgeo: a fiber is not linked with itself\n"
