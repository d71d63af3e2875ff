import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from projgeo import (
    INFINITY,
    ExtendedComplex,
    FieldMismatch,
    InvalidRange,
    SamePoint,
    SingularCoefficients,
    SpherePoint,
    Unresolved,
    complex_fiber_sample,
    cp1_affine,
    cp1_from_affine,
    cp1_to_sphere,
    extended_equal,
    fiber_stereo_samples,
    fibers_min_distance,
    hopf_fibration,
    hopf_project,
    linking_integral,
    linking_number,
    mobius_apply,
    mobius_matches_projective,
    point_distance,
    point_from_vector,
    points_equal,
    real_fiber,
    sphere_point,
    sphere_to_cp1,
)
from projgeo.errors import DimensionMismatch
from projgeo.suites import rand_distinct_points, rand_proj_point

CP = {"field": "complex"}


def cpoint(*coords):
    return point_from_vector(np.array(coords, dtype=complex))


# One guard for every operand that must be a point of CP^1.
CP1_ENTRY_POINTS = {
    "fiber_stereo_samples": lambda p: fiber_stereo_samples(p, 8),
    "linking_number": lambda p: linking_number(cpoint(1.0, 0.5), p, 64),
    "linking_integral": lambda p: linking_integral(p, cpoint(1.0, 0.5), 64),
    "cp1_affine": cp1_affine,
    "cp1_to_sphere": cp1_to_sphere,
}


@pytest.mark.parametrize("name", CP1_ENTRY_POINTS)
def test_one_cp1_guard_names_the_field_and_n_it_got(name):
    call = CP1_ENTRY_POINTS[name]
    expected = r"^expected a point of CP\^1, got a "
    with pytest.raises(FieldMismatch, match=expected + "real point with n = 1$"):
        call(point_from_vector([1.0, 0.5]))
    with pytest.raises(DimensionMismatch, match=expected + "complex point with n = 2$"):
        call(cpoint(1.0, 0.5, 0.25))


# --- projection and fibers ---------------------------------------------------


def test_project_axis_point():
    x = sphere_point([1.0, 0.0, 0.0])
    assert points_equal(hopf_project(x), point_from_vector([1.0, 0.0, 0.0]))


def test_antipodes_project_together():
    rng = np.random.default_rng(41)
    x = sphere_point(rng.standard_normal(4))
    y = sphere_point(-x.x)
    assert points_equal(hopf_project(x), hopf_project(y))


def test_phase_orbit_projects_together():
    rng = np.random.default_rng(42)
    x = sphere_point(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    for theta in rng.uniform(0.0, 2.0 * np.pi, size=8):
        y = sphere_point(np.exp(1j * theta) * x.x)
        assert points_equal(hopf_project(x), hopf_project(y))


def test_real_fiber_axis():
    a, b = real_fiber(point_from_vector([1.0, 0.0]))
    assert_allclose(a.x, [1.0, 0.0])
    assert_allclose(b.x, [-1.0, 0.0])


def test_real_fiber_properties():
    rng = np.random.default_rng(43)
    for _ in range(50):
        p = rand_proj_point(rng, 3, "real")
        a, b = real_fiber(p)
        assert np.array_equal(a.x, -b.x)
        assert abs(np.linalg.norm(a.x) - 1.0) < 1e-12
        assert points_equal(hopf_project(a), p)
        assert points_equal(hopf_project(b), p)


def test_real_fiber_rejects_complex():
    with pytest.raises(FieldMismatch):
        real_fiber(cpoint(1.0, 0.0))


def test_complex_fiber_axis_quarters():
    samples = complex_fiber_sample(cpoint(1.0, 0.0), 4)
    expected = [(1, 0), (1j, 0), (-1, 0), (-1j, 0)]
    for got, want in zip(samples, expected):
        assert np.max(np.abs(got - np.array(want, dtype=complex))) < 1e-15


def test_complex_fiber_projects_to_base():
    rng = np.random.default_rng(44)
    p = rand_proj_point(rng, 2, "complex")
    for x in complex_fiber_sample(p, 64):
        assert point_distance(hopf_project(x), p) < 1e-10


def test_complex_fiber_chord_lengths():
    rng = np.random.default_rng(45)
    p = rand_proj_point(rng, 1, "complex")
    m = 32
    samples = complex_fiber_sample(p, m)
    for _ in range(20):
        t1, t2 = rng.integers(0, m, size=2)
        chord = np.linalg.norm(samples[t1] - samples[t2])
        assert abs(chord - 2.0 * abs(np.sin(np.pi * (t1 - t2) / m))) < 1e-12


def test_complex_fiber_sample_is_one_read_only_array_of_unit_rows():
    p = point_from_vector(np.array([1.0, 2.0 - 1.0j, 0.5j, -3.0]))
    rows = complex_fiber_sample(p, 37)
    assert isinstance(rows, np.ndarray)
    assert rows.shape == (37, 4) and rows.dtype == np.complex128
    assert not rows.flags.writeable
    assert np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)) <= 1e-12
    assert np.array_equal(rows[0], p.h)


def test_hopf_project_takes_rows_and_rejects_non_unit_or_non_finite_ones():
    p = cpoint(1.0, 2.0j)
    for row in complex_fiber_sample(p, 8):
        assert point_distance(hopf_project(row), p) < 1e-15
    for bad in ([2.0, 0.0j], [1.0 + 1e-11, 0.0j], [np.nan, 0.0j], [np.inf, 0.0j]):
        with pytest.raises(ValueError):
            hopf_project(np.array(bad))
    with pytest.raises(ValueError, match="unit norm"):
        hopf_project(np.array([2.0, 0.0j]))


def test_sphere_point_rejects_a_nan_entry():
    # NaN - 1 compares false with any bound, so the unit test must be "<= bound"
    with pytest.raises(ValueError, match="unit norm"):
        SpherePoint("real", 2, np.array([np.nan, 0.0]))


def test_complex_fiber_guards():
    with pytest.raises(FieldMismatch):
        complex_fiber_sample(point_from_vector([1.0, 0.0]), 4)
    with pytest.raises(InvalidRange):
        complex_fiber_sample(cpoint(1.0, 0.0), 0)


# --- disjointness ------------------------------------------------------------


def test_orthogonal_fibers_distance_sqrt2():
    for m in (3, 16, 101):
        d = fibers_min_distance(cpoint(1.0, 0.0), cpoint(0.0, 1.0), m)
        assert abs(d - np.sqrt(2.0)) < 1e-12


def test_min_distance_monotone_refinement():
    rng = np.random.default_rng(46)
    p, q = rand_distinct_points(rng, 1, "complex")
    exact = np.sqrt(2.0 - 2.0 * abs(np.vdot(p.h, q.h)))
    last = np.inf
    for m in (16, 32, 64, 256):
        d = fibers_min_distance(p, q, m)
        assert exact - 1e-12 <= d <= last + 1e-12
        last = d
    assert last > 0.9 * exact


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("m", [1, 3, 16, 101])
def test_min_distance_matches_gram_matrix(n, m):
    rng = np.random.default_rng(100 * n + m)
    thetas = 2.0 * np.pi * np.arange(m) / m
    for _ in range(20):
        p, q = rand_distinct_points(rng, n, "complex")
        xs = np.exp(1j * thetas)[:, None] * p.h
        ys = np.exp(1j * thetas)[:, None] * q.h
        brute = np.sqrt(np.maximum(2.0 - 2.0 * (xs @ ys.conj().T).real, 0.0).min())
        assert abs(fibers_min_distance(p, q, m) - brute) < 1e-12


def test_min_distance_large_m_is_linear():
    # the m x m Gram matrix of samples would take 16 TiB here
    p, q = rand_distinct_points(np.random.default_rng(47), 3, "complex")
    exact = np.sqrt(2.0 - 2.0 * abs(np.vdot(p.h, q.h)))
    assert exact - 1e-12 <= fibers_min_distance(p, q, 2 ** 20) < exact + 1e-9


def test_min_distance_same_point_rejected():
    p = cpoint(1.0, 2.0j)
    with pytest.raises(SamePoint):
        fibers_min_distance(p, p, 16)


# --- linking -----------------------------------------------------------------


def test_linking_of_axis_fibers():
    p, q = cpoint(1.0, 0.0), cpoint(0.0, 1.0)
    raw = linking_integral(p, q, 2048)
    assert abs(abs(raw) - 1.0) < 0.05
    assert abs(linking_number(p, q, 2048)) == 1


def test_linking_symmetric_in_arguments():
    rng = np.random.default_rng(47)
    p, q = rand_distinct_points(rng, 1, "complex")
    assert linking_number(p, q, 256) == linking_number(q, p, 256)


def test_linking_guards():
    p = cpoint(1.0, 1.0)
    with pytest.raises(SamePoint):
        linking_number(p, p, 256)
    with pytest.raises(InvalidRange):
        linking_number(cpoint(1.0, 0.0), cpoint(0.0, 1.0), 32)


def fiber_pair(h, sep, phase):
    """CP^1 points over h and over a point whose fiber is ``sep`` away.

    sep is the fiber separation sqrt(2 - 2 |<h_p, h_q>|) in S^3.
    """
    h = np.asarray(h, dtype=complex) / np.linalg.norm(h)
    perp = np.array([-np.conj(h[1]), np.conj(h[0])])
    t = 2.0 * math.asin(sep / 2.0)
    other = math.cos(t) * h + math.sin(t) * cmath.exp(1j * phase) * perp
    return point_from_vector(h), point_from_vector(other)


def linking_or_unresolved(p, q, m):
    try:
        return linking_number(p, q, m)
    except Unresolved:
        return Unresolved


@st.composite
def cp1_pairs(draw):
    """Distinct CP^1 pairs, separation log-uniform on [1e-6, sqrt 2].

    Half the pairs put the first fiber within 1e-3 ... 1e-6 of the
    stereographic pole, where both fibers are rotated before projecting.
    """
    sep = 10.0 ** draw(st.floats(-6.0, math.log10(math.sqrt(2.0))))
    if draw(st.booleans()):
        # the fiber's distance to the pole is sqrt(2 - 2 |h2|) = 2 sin(tilt / 2)
        tilt = 2.0 * math.asin(0.5 * 10.0 ** draw(st.floats(-6.0, -3.0)))
    else:
        tilt = draw(st.floats(0.0, 0.5 * math.pi))
    phases = [draw(st.floats(0.0, 2.0 * math.pi)) for _ in range(3)]
    h = [math.sin(tilt) * cmath.exp(1j * phases[0]), math.cos(tilt) * cmath.exp(1j * phases[1])]
    p, q = fiber_pair(h, sep, phases[2])
    assume(not points_equal(p, q))
    return p, q


@settings(max_examples=150, deadline=None)
@given(cp1_pairs())
def test_linking_count_is_minus_one_or_unresolved(pair):
    p, q = pair
    got = linking_or_unresolved(p, q, 2048)
    assert got in (-1, Unresolved)
    assert linking_or_unresolved(q, p, 2048) == got
    if got != Unresolved:
        assert linking_number(p, q, 8192) == -1


@pytest.mark.parametrize("sep", [1e-3, 1e-4, 1e-6])
def test_near_coincident_fibers_never_give_a_wrong_count(sep):
    # At these separations and m = 2048 the Gauss integral rounds to wrong
    # integers (-1.84, -17.7 and -1767 on one measured pair); the count
    # gives -1 or refuses.
    p, q = fiber_pair([0.6 - 0.3j, 0.2 + 0.7j], sep, 1.3)
    got = linking_or_unresolved(p, q, 2048)
    assert got in (-1, Unresolved)
    if sep >= 1e-4:
        assert got == -1
    assert linking_number(p, q, 16384) == -1


def test_unresolved_names_separation_samples_and_bound():
    p, q = fiber_pair([0.6 - 0.3j, 0.2 + 0.7j], 1e-6, 1.3)
    with pytest.raises(Unresolved, match=r"1e-06 apart .* 2048 samples: .* = [0-9.e-]+$"):
        linking_number(p, q, 2048)


def test_count_matches_rounded_integral():
    rng = np.random.default_rng(53)
    for _ in range(5):
        sep = 0.0123 * (math.sqrt(2.0) / 0.0123) ** rng.random()
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        p, q = fiber_pair(h, sep, rng.uniform(0.0, 2.0 * math.pi))
        assert linking_number(p, q, 2048) == round(linking_integral(p, q, 2048))


def test_linking_count_does_not_evaluate_the_integral(monkeypatch):
    def refuse(*args):
        raise AssertionError("linking_number must not run the O(m^2) Gauss integral")

    monkeypatch.setattr(hopf_fibration, "linking_integral", refuse)
    assert linking_number(cpoint(1.0, 0.0), cpoint(0.0, 1.0), 2048) == -1


def gauss_reference(p, q, m):
    """The Gauss sum written directly: np.cross of the segments dotted with
    the midpoint differences, 256 rows at a time, on the library's samples."""
    hp, hq = hopf_fibration._linked_pair(p, q, m, hopf_fibration.DEFAULT_TOLERANCE)
    edges = 2.0 * np.pi * np.arange(m) / m
    mids = edges + np.pi / m
    a_edge, a_mid = hopf_fibration._stereo_fiber(hp, edges), hopf_fibration._stereo_fiber(hp, mids)
    b_edge, b_mid = hopf_fibration._stereo_fiber(hq, edges), hopf_fibration._stereo_fiber(hq, mids)
    a_seg = np.roll(a_edge, -1, axis=0) - a_edge
    b_seg = np.roll(b_edge, -1, axis=0) - b_edge
    partial = []
    for i0 in range(0, m, 256):
        r = a_mid[i0:i0 + 256, None, :] - b_mid[None, :, :]
        cross = np.cross(a_seg[i0:i0 + 256, None, :], b_seg[None, :, :])
        num = np.einsum("ijk,ijk->ij", cross, r)
        d2 = np.einsum("ijk,ijk->ij", r, r)
        partial.append(float(np.sum(num / (d2 * np.sqrt(d2)))))
    return math.fsum(partial) / (4.0 * math.pi)


@pytest.mark.parametrize("m", [64, 257, 512, 2048])
def test_linking_integral_matches_reference(m):
    # 257 does not divide the tile; the pole pair is rotated before projecting
    rng = np.random.default_rng(m)
    pairs = [rand_distinct_points(rng, 1, "complex") for _ in range(4 if m < 2048 else 2)]
    pairs.append((cpoint(0.0, 1.0), cpoint(1.0, 0.3j)))
    for p, q in pairs:
        want = gauss_reference(p, q, m)
        assert abs(linking_integral(p, q, m) - want) <= 1e-13 * abs(want)


def test_linking_integral_memory_does_not_grow_with_m():
    p, q = cpoint(1.0, 0.5j), cpoint(0.3, 1.0)
    tracemalloc.start()
    try:
        linking_integral(p, q, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_fiber_stereo_samples_finite_even_through_pole():
    # the fiber over [0 : 1] passes through the default projection pole
    xyz = fiber_stereo_samples(cpoint(0.0, 1.0), 64)
    assert np.all(np.isfinite(xyz))


# --- the extended plane and the 2-sphere -------------------------------------


def test_affine_coordinates():
    assert extended_equal(cp1_affine(cpoint(0.0, 1.0)), 0.0)
    assert cp1_affine(cpoint(1.0, 0.0)).is_infinity
    assert extended_equal(cp1_affine(cpoint(2.0 + 1.0j, 1.0)), 2.0 + 1.0j, eps=1e-12)


def test_affine_inverse():
    assert points_equal(cp1_from_affine(0.0), cpoint(0.0, 1.0))
    assert points_equal(cp1_from_affine(INFINITY), cpoint(1.0, 0.0))


def test_affine_round_trip():
    rng = np.random.default_rng(48)
    for _ in range(100):
        z = ExtendedComplex(complex(*rng.standard_normal(2)) * rng.uniform(0.1, 20.0))
        back = cp1_affine(cp1_from_affine(z))
        assert extended_equal(z, back, eps=1e-12 * max(1.0, abs(z.z)))
    assert cp1_affine(cp1_from_affine(INFINITY)).is_infinity


def test_sphere_poles():
    assert_allclose(cp1_to_sphere(cp1_from_affine(0.0)), [0.0, 0.0, -1.0])
    assert_allclose(cp1_to_sphere(cp1_from_affine(INFINITY)), [0.0, 0.0, 1.0])
    assert point_distance(sphere_to_cp1([0.0, 0.0, -1.0]), cpoint(0.0, 1.0)) == 0.0
    assert point_distance(sphere_to_cp1([0.0, 0.0, 1.0]), cpoint(1.0, 0.0)) == 0.0


def test_sphere_equator():
    rng = np.random.default_rng(49)
    for theta in rng.uniform(0.0, 2.0 * np.pi, size=16):
        xyz = cp1_to_sphere(cp1_from_affine(cmath.exp(1j * theta)))
        assert abs(xyz[2]) < 1e-12


def test_sphere_matches_stereographic_formula():
    rng = np.random.default_rng(50)
    for _ in range(50):
        z = complex(*rng.standard_normal(2)) * rng.uniform(0.1, 5.0)
        got = cp1_to_sphere(cp1_from_affine(z))
        want = np.array([2.0 * z.real, 2.0 * z.imag, abs(z) ** 2 - 1.0]) / (abs(z) ** 2 + 1.0)
        assert np.max(np.abs(got - want)) < 1e-12


def test_sphere_round_trip():
    rng = np.random.default_rng(51)
    for _ in range(50):
        p = rand_proj_point(rng, 1, "complex")
        xyz = cp1_to_sphere(p)
        assert abs(np.linalg.norm(xyz) - 1.0) < 1e-10
        assert point_distance(sphere_to_cp1(xyz), p) < 1e-10


# --- Mobius transformations ---------------------------------------------------


def test_mobius_identity():
    for z in (ExtendedComplex(0.0), ExtendedComplex(3.0 - 2.0j), INFINITY):
        assert extended_equal(mobius_apply(1, 0, 0, 1, z), z, eps=1e-15)


def test_mobius_inversion_conventions():
    assert mobius_apply(0, 1, 1, 0, 0.0).is_infinity
    assert extended_equal(mobius_apply(0, 1, 1, 0, INFINITY), 0.0)
    assert extended_equal(mobius_apply(0, 1, 1, 0, 2.0), 0.5, eps=1e-15)


def test_mobius_affine_fixes_infinity():
    assert mobius_apply(1, 1, 0, 1, INFINITY).is_infinity


def test_mobius_rejects_singular_coefficients():
    with pytest.raises(SingularCoefficients):
        mobius_apply(1, 2, 2, 4, 1.0)
    with pytest.raises(SingularCoefficients):
        mobius_matches_projective(1, 2, 2, 4, 5)


def test_mobius_matches_projective_examples():
    assert mobius_matches_projective(1, 0, 0, 1, 100)
    assert mobius_matches_projective(0, 1, 1, 0, 100)


def test_mobius_matches_projective_random():
    rng = np.random.default_rng(52)
    for _ in range(50):
        while True:
            a, b, c, d = (complex(*rng.standard_normal(2)) for _ in range(4))
            if abs(a * d - b * c) > 0.1:
                break
        sub = np.random.default_rng(int(rng.integers(0, 2**63)))
        assert mobius_matches_projective(a, b, c, d, 100, rng=sub)
