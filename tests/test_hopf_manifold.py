import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from projgeo import (
    DimensionMismatch,
    FieldMismatch,
    HopfPoint,
    InvalidRange,
    ScaleGroup,
    ZeroVector,
    apply_map,
    hopf_distance,
    hopf_points_equal,
    induced_linear,
    map_from_matrix,
    point_distance,
    point_from_vector,
    points_equal,
    quotient_project,
    subspace_from_span,
    subspace_trace_membership,
    to_projective,
)
from projgeo.suites import rand_invertible, rand_nonzero_vector, rand_subspace

TWO = ScaleGroup(2)


@pytest.mark.parametrize("lam, m", [(1e200, 3), (1e200, -3), (1e200 + 1e200j, 3), (2.0, 2000)])
def test_scale_group_power_out_of_range_is_typed(lam, m):
    group = ScaleGroup(lam)
    field = "real" if group.is_real else "complex"
    with pytest.raises(InvalidRange, match=re.escape(f"lam = {group.lam!r}, m = {m}")):
        group.power(m, field)


def test_scale_group_validation():
    with pytest.raises(ValueError):
        ScaleGroup(1.0)
    with pytest.raises(ValueError):
        ScaleGroup(0.5j)
    assert ScaleGroup(2j).abs_scale == 2.0
    assert ScaleGroup().lam == 2.0


def test_project_power_of_two():
    h = quotient_project([8.0, 0.0], TWO)
    assert_allclose(h.rep, [1.0, 0.0])


def test_project_already_in_window():
    h = quotient_project([1.0, 0.0], TWO)
    assert_allclose(h.rep, [1.0, 0.0])


def test_project_scales_up():
    # norm 0.5 doubles once into [1, 2)
    h = quotient_project([0.3, 0.4], TWO)
    assert_allclose(h.rep, [0.6, 0.8])


def test_project_rejects_zero():
    with pytest.raises(ZeroVector):
        quotient_project([0.0, 0.0], TWO)


@pytest.mark.parametrize("lam", [2.0, 3.0, 2.0j, -2.0])
def test_window_law_and_idempotence(lam):
    group = ScaleGroup(lam)
    field = "real" if group.is_real else "complex"
    rng = np.random.default_rng(31)
    a = group.abs_scale
    for _ in range(200):
        v = rand_nonzero_vector(rng, 3, field)
        v = v * a ** int(rng.integers(-8, 9))
        h = quotient_project(v, group)
        nrm = np.linalg.norm(h.rep)
        assert 1.0 - 1e-12 <= nrm < a * (1.0 - 1e-12)
        again = quotient_project(h.rep, group)
        assert np.array_equal(again.rep, h.rep)


def test_window_boundary_snaps_down():
    # norms within roundoff of a window edge resolve to the lower endpoint
    for scale in (1.0, 2.0, 4.0, 1.0 - 1e-16, 4.0 * (1.0 - 1e-16)):
        h = quotient_project([scale, 0.0], TWO)
        assert abs(np.linalg.norm(h.rep) - 1.0) < 1e-12


def test_equal_powers_of_two():
    assert hopf_points_equal([1.0, 1.0], [4.0, 4.0], TWO)


def test_not_equal_generic():
    assert not hopf_points_equal([1.0, 1.0], [2.0, 3.0], TWO)


def test_sign_flip_distinguished_from_projective():
    # -1 is no power of 2: the quotient separates what projective space glues
    assert not hopf_points_equal([1.0, 0.0], [-1.0, 0.0], TWO)
    assert points_equal(
        to_projective(quotient_project([1.0, 0.0], TWO)),
        to_projective(quotient_project([-1.0, 0.0], TWO)),
    )


def test_complex_scale_rotates_per_power():
    group = ScaleGroup(2j)
    v = np.array([1.0 + 0j, 2.0])
    assert hopf_points_equal(v, (2j) ** 3 * v, group)
    assert not hopf_points_equal(v, 8.0 * v, group)  # same norm scale, wrong phase


def test_to_projective_basepoint():
    p = to_projective(quotient_project([4.0, 0.0], TWO))
    assert p.n == 1
    assert points_equal(p, point_from_vector([1.0, 0.0]))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_projection_constant_on_classes(field):
    rng = np.random.default_rng(32)
    for _ in range(50):
        v = rand_nonzero_vector(rng, 4, field)
        m = int(rng.integers(-6, 7))
        w = v * TWO.power(m, field)
        assert hopf_points_equal(v, w, TWO)
        pv = to_projective(quotient_project(v, TWO))
        pw = to_projective(quotient_project(w, TWO))
        assert points_equal(pv, pw)


def test_induced_identity():
    h = quotient_project([1.0, 1.0], TWO)
    moved = induced_linear(np.eye(2), h)
    assert hopf_distance(moved, h) < 1e-15


@pytest.mark.parametrize("field", ["real", "complex"])
def test_induced_linear_well_defined(field):
    rng = np.random.default_rng(33)
    for _ in range(50):
        v = rand_nonzero_vector(rng, 3, field)
        g = rand_invertible(rng, 3, field)
        a = induced_linear(g, quotient_project(v, TWO))
        b = induced_linear(g, quotient_project(v * TWO.power(3, field), TWO))
        assert hopf_distance(a, b) < 1e-9


@pytest.mark.parametrize("lam", [2.0, 3.0, 2.0j])
def test_compatibility_square(lam):
    group = ScaleGroup(lam)
    field = "real" if group.is_real else "complex"
    rng = np.random.default_rng(34)
    for _ in range(50):
        v = rand_nonzero_vector(rng, 3, field)
        g = rand_invertible(rng, 3, field)
        h = quotient_project(v, group)
        top = to_projective(induced_linear(g, h))
        bottom = apply_map(map_from_matrix(g), to_projective(h))
        assert point_distance(top, bottom) < 1e-9


@pytest.mark.parametrize("field", ["real", "complex"])
def test_fiber_over_projective_point_is_scalar_window(field):
    # classes over one line correspond to scalars alpha with |alpha| in [1, 2):
    # every such multiple projects to the same line, and distinct scalars in
    # the window give distinct classes
    rng = np.random.default_rng(36)
    line = to_projective(quotient_project(rand_nonzero_vector(rng, 3, field), TWO))
    unit = line.h
    seen = []
    mags = (1.0, 1.3, 1.9)
    phases = (1.0, -1.0) if field == "real" else (1.0, -1.0, 1j, np.exp(0.7j))
    for mag in mags:
        for phase in phases:
            h = quotient_project(mag * phase * unit, TWO)
            assert points_equal(to_projective(h), line)
            assert abs(np.linalg.norm(h.rep) - mag) < 1e-12  # alpha survives intact
            seen.append(h)
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            assert hopf_distance(seen[i], seen[j]) > 1e-9


def test_trace_membership_axes():
    e1 = subspace_from_span(np.eye(3)[:, :1])
    assert subspace_trace_membership(quotient_project([2.0, 0.0, 0.0], TWO), e1)
    assert not subspace_trace_membership(quotient_project([0.0, 1.0, 1.0], TWO), e1)


def test_trace_membership_invariant_under_action():
    rng = np.random.default_rng(35)
    for _ in range(25):
        s = rand_subspace(rng, 4, 2, "real")
        v = s.basis @ rand_nonzero_vector(rng, 2, "real")
        for m in range(-5, 6):
            h = quotient_project(v * 2.0 ** m, TWO)
            assert subspace_trace_membership(h, s)


def test_field_and_dimension_guards():
    with pytest.raises(FieldMismatch):
        quotient_project([1.0, 0.0], ScaleGroup(2j))
    with pytest.raises(DimensionMismatch):
        hopf_points_equal([1.0, 0.0], [1.0, 0.0, 0.0], TWO)
    h = quotient_project([1.0, 0.0], TWO)
    with pytest.raises(DimensionMismatch):
        induced_linear(np.eye(3), h)


def test_induced_linear_answers_when_the_image_passes_the_largest_double():
    # (1e308 + 1e308 i)(1 + i) = 2e308 i, and the class has smaller members
    h = quotient_project([1.0 + 1.0j], TWO)
    g = np.array([[1e308 + 1e308j]])
    got = induced_linear(g, h)
    assert got.rep.tobytes() == induced_linear(g / 2, h).rep.tobytes()
    assert got.rep.tolist() == [1.1125369292536007j]
    # near lam = 1 the smaller member is lam^-k rep with k about 1.4e6
    group = ScaleGroup(1.0 + 1e-6)
    got = induced_linear([[1.7976931e308]], quotient_project([1.0 + 5e-7], group))
    shift = math.log(got.rep[0]) - math.log(1.7976931e308) - math.log(1.0 + 5e-7)
    assert abs(math.remainder(shift, math.log(group.abs_scale))) < 1e-9


@pytest.mark.parametrize("lam", [2.0, 1.5 * np.exp(0.7j), 1e100, -3.0])
def test_induced_linear_of_a_huge_matrix_is_the_projective_image(lam):
    # G's largest singular value stays under the largest double, so that the
    # conditioning guard can take its SVD
    group = ScaleGroup(lam)
    rng = np.random.default_rng(36)
    overflowed = 0
    for i in range(40):
        field = "complex" if i % 2 or not group.is_real else "real"
        v = rand_nonzero_vector(rng, 1 + i % 3, field)
        g = rand_invertible(rng, 1 + i % 3, field)
        big = g / np.linalg.norm(g, 2) * (rng.uniform(0.5, 1.0) * np.finfo(np.float64).max)
        h = quotient_project(v, group)
        with np.errstate(over="ignore", invalid="ignore"):
            overflowed += not np.isfinite(big @ h.rep).all()
        top = to_projective(induced_linear(big, h))
        bottom = apply_map(map_from_matrix(g), to_projective(h))
        assert point_distance(top, bottom) < 1e-9
    assert overflowed >= 3


def test_hopf_point_validation():
    with pytest.raises(ValueError):
        HopfPoint(TWO, np.array([4.0, 0.0]))  # norm outside [1, 2)
