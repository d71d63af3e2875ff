"""Canonical objects are checked once, where they are made, at any scale.

Every object a library call makes must pass its public constructor
again, hold a read-only array, and not share memory with the caller's
input.  Scale-invariant constructors give the same answer on s * v as on
v for s = 10^k, k in [-300, 300], or raise a typed ProjGeoError.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projgeo as pg
from projgeo import numerics
from projgeo.grassmann import Subspace
from projgeo.hopf_manifold import HopfPoint
from projgeo.projective import ProjMap, ProjPoint
from projgeo.suites import rand_invertible, rand_subspace, rand_vector

# numpy warns when an unscaled sum of squares overflows; norm2 then rescales
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")


def _again(obj):
    """Rebuild an object through its public constructor; the copy's array."""
    if isinstance(obj, ProjPoint):
        return ProjPoint(obj.field, obj.n, obj.h).h, obj.h
    if isinstance(obj, ProjMap):
        return ProjMap(obj.field, obj.n, obj.M).M, obj.M
    if isinstance(obj, Subspace):
        return Subspace(obj.field, obj.n, obj.k, obj.basis).basis, obj.basis
    if isinstance(obj, HopfPoint):
        return HopfPoint(obj.group, obj.rep).rep, obj.rep
    raise TypeError(type(obj).__name__)


def _made(rng, field, d):
    """(name, thunk, input arrays) for every library constructor under test."""
    cplx = field == "complex"
    v, w = rand_vector(rng, d, field), rand_vector(rng, d, field)
    a, g = rand_invertible(rng, d, field), rand_invertible(rng, d, field)
    t, p = pg.map_from_matrix(a), pg.point_from_vector(v)
    span = rand_vector(rng, d * 2, field).reshape(d, 2) if d > 2 else v[:, None].copy()
    s = rand_subspace(rng, d, 1, field)
    chart = pg.graph_chart(s)
    coeffs = rand_vector(rng, d - 1, field).reshape(d - 1, 1)
    affine = rand_vector(rng, d - 1, field)
    group = pg.ScaleGroup(1.5 + 0.5j if cplx else 2.0)
    hp = pg.quotient_project(w, group)
    z = complex(v[0]) if cplx else 0.5
    return [
        ("point_from_vector", lambda: pg.point_from_vector(v), [v]),
        ("apply_map", lambda: pg.apply_map(t, p), []),
        ("compose", lambda: pg.compose(t, pg.map_from_matrix(g)), []),
        ("inverse_map", lambda: pg.inverse_map(t), []),
        ("transitive_witness", lambda: pg.transitive_witness(p, pg.point_from_vector(w)), []),
        ("chart_embed", lambda: pg.chart_embed(pg.AffineChart(d - 1, 1), affine), [affine]),
        ("cp1_from_affine", lambda: pg.cp1_from_affine(z), []),
        ("to_projective", lambda: pg.to_projective(hp), []),
        ("subspace_from_span", lambda: pg.subspace_from_span(span), [span]),
        ("apply_gl", lambda: pg.apply_gl(g, s), [g]),
        ("graph_subspace", lambda: pg.graph_subspace(chart, coeffs), [coeffs]),
        ("orthogonal_complement", lambda: pg.orthogonal_complement(s), []),
        ("annihilator", lambda: pg.annihilator(s), []),
        ("quotient_project", lambda: pg.quotient_project(w, group), [w]),
        ("induced_linear", lambda: pg.induced_linear(g, hp), [g]),
    ]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), field=st.sampled_from(["real", "complex"]),
       d=st.sampled_from([2, 3, 5]))
def test_made_objects_pass_their_constructor_and_stay_read_only(seed, field, d):
    rng = np.random.default_rng(seed)
    for name, make, inputs in _made(rng, field, d):
        if name == "cp1_from_affine" and (field != "complex" or d != 2):
            continue
        out = make()
        rebuilt, held = _again(out)
        assert np.array_equal(rebuilt, held), name
        assert not held.flags.writeable, name
        before = held.copy()
        for arr in inputs:
            assert not np.shares_memory(arr, held), name
            arr *= 3.0
        assert np.array_equal(held, before), name


def test_stored_bases_keep_the_kernels_memory_layout():
    rng = np.random.default_rng(5)
    for field in ("real", "complex"):
        s = rand_subspace(rng, 6, 2, field)
        for made, pair in ((pg.orthogonal_complement(s), s.basis.conj().T),
                           (pg.annihilator(s), s.basis.T)):
            q = numerics.kernel(pair)
            assert np.array_equal(made.basis, q)
            assert made.basis.flags.f_contiguous == q.flags.f_contiguous


# --- scale safety -------------------------------------------------------------

_V = np.array([0.3 - 1.2j, 2.0 + 0.1j, -0.7 + 0.4j])
_A = np.array([[1.0, 0.2j, -0.5], [0.3, -2.0, 0.1 + 1j], [0.0, 0.4, 1.5j]])
_SPAN = np.array([[1.0, 0.5], [-0.2j, 1.0], [0.3, -0.8 + 0.1j]])


def _typed_or(fn):
    """fn(), or None when it raises a ProjGeoError; any other error escapes."""
    try:
        return fn()
    except pg.ProjGeoError:
        return None


def _check_scale(k):
    # the canonical form itself: a representative that does not depend on scale
    s = 10.0 ** k
    p0, t0 = pg.point_from_vector(_V), pg.map_from_matrix(_A)
    x0, s0 = pg.sphere_point(_V), pg.subspace_from_span(_SPAN)

    p = _typed_or(lambda: pg.point_from_vector(s * _V))
    assert p is None or np.max(np.abs(p.h - p0.h)) < 1e-12
    t = _typed_or(lambda: pg.map_from_matrix(s * _A))
    assert t is None or np.max(np.abs(t.M - t0.M)) < 1e-12
    x = _typed_or(lambda: pg.sphere_point(s * _V))
    assert x is None or np.max(np.abs(x.x - x0.x)) < 1e-12
    sub = _typed_or(lambda: pg.subspace_from_span(s * _SPAN))
    assert sub is None or numerics.projector_distance(sub.basis, s0.basis) < 1e-12

    for group in (pg.ScaleGroup(2.0), pg.ScaleGroup(1e60), pg.ScaleGroup(1.5 * np.exp(0.7j))):
        h = _typed_or(lambda: pg.quotient_project(s * _V, group))
        if h is None:
            continue
        nrm = numerics.norm2(h.rep)
        assert 1.0 - 1e-12 <= nrm < group.abs_scale
        # the representative is a scalar multiple of v
        c = np.vdot(_V, h.rep) / np.vdot(_V, _V)
        assert np.max(np.abs(h.rep - c * _V)) <= 1e-12 * nrm


@pytest.mark.parametrize("k", [-300, -200, -160, -10, 0, 10, 154, 160, 200, 300])
def test_scale_invariant_constructors_at_fixed_scales(k):
    _check_scale(k)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(-300, 300))
def test_scale_invariant_constructors_at_any_scale(k):
    _check_scale(k)


def test_results_at_1e200_are_those_of_the_unit_vector():
    # the canonical form itself, so representatives are compared
    v = np.array([1e200, -2e200, 2e200])
    assert np.max(np.abs(pg.point_from_vector(v).h - pg.point_from_vector(v / 3e200).h)) < 1e-15
    a = 1e200 * np.eye(3)[[2, 0, 1]]
    assert np.max(np.abs(pg.map_from_matrix(a).M - pg.map_from_matrix(a / 1e200).M)) < 1e-15
    h = pg.quotient_project(v)
    assert 1.0 <= numerics.norm2(h.rep) < 2.0
    assert np.allclose(h.rep / numerics.norm2(h.rep), v / 3e200, rtol=0.0, atol=1e-15)


def test_norms_past_the_largest_double_and_under_the_smallest_normal_one():
    # the canonical form itself, so representatives are compared
    huge = np.array([1.5e308, -1.5e308, 1e308])
    assert numerics.norm2(huge) == math.inf
    unit = huge / 1e308
    assert np.max(np.abs(pg.point_from_vector(huge).h - pg.point_from_vector(unit).h)) < 1e-15
    assert np.max(np.abs(pg.sphere_point(huge).x - pg.sphere_point(unit).x)) < 1e-15
    sub = pg.subspace_from_span(huge[:, None])
    assert numerics.projector_distance(sub.basis, pg.subspace_from_span(unit[:, None]).basis) < 1e-15
    h = pg.quotient_project(huge)
    assert 1.0 <= numerics.norm2(h.rep) < 2.0

    fine = pg.Tolerance(eps_abs=1e-320)
    tiny = np.array([3e-310, -4e-310])
    ref = pg.point_from_vector(np.array([3.0, -4.0]))
    assert np.max(np.abs(pg.point_from_vector(tiny, fine).h - ref.h)) < 1e-4  # subnormal input
    h = pg.quotient_project(tiny, tol=fine)
    assert 1.0 <= numerics.norm2(h.rep) < 2.0


def test_zero_test_stays_absolute():
    with pytest.raises(pg.ZeroVector):
        pg.point_from_vector(1e-10 * _V)
    with pytest.raises(pg.ZeroVector):
        pg.quotient_project(1e-10 * _V)
    with pytest.raises(pg.ZeroVector):
        pg.sphere_point(1e-10 * _V)
    assert pg.point_from_vector(1e-10 * _V, pg.Tolerance(eps_abs=1e-12)).n == 2
