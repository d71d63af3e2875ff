import numpy as np
import pytest
from numpy.testing import assert_allclose

from projgeo import (
    AffineChart,
    DimensionMismatch,
    IllConditioned,
    ProjMap,
    ProjPoint,
    Tolerance,
    ZeroVector,
    apply_map,
    chart_cover,
    chart_embed,
    chart_extract,
    chart_transition,
    compose,
    group_dimension,
    identity_map,
    inverse_map,
    map_from_matrix,
    map_distance,
    maps_equal,
    missing_locus,
    point_distance,
    point_from_vector,
    point_membership,
    points_equal,
    proj_subspace_from_span,
    projective,
    subspace_image,
    subspaces_equal,
    transitive_witness,
)
from projgeo.suites import (
    rand_distinct_points,
    rand_invertible,
    rand_nonzero_scalar,
    rand_nonzero_vector,
    rand_proj_map,
    rand_proj_point,
    rand_vector,
)


# --- points ---------------------------------------------------------------


def test_point_scaling_invariance():
    assert_allclose(point_from_vector([2.0, 0.0, 0.0]).h, [1.0, 0.0, 0.0])


def test_point_phase_stripped():
    assert_allclose(point_from_vector([0.0, 0.0, 3.0j]).h, [0.0, 0.0, 1.0])


def test_point_unit_normalization():
    assert_allclose(point_from_vector([1.0, 1.0, 1.0, 1.0]).h, [0.5] * 4)


def test_point_rejects_zero_vector():
    with pytest.raises(ZeroVector):
        point_from_vector([0.0, 0.0])
    # only an exact zero: a vector of any size spans its line
    assert np.array_equal(point_from_vector([1e-12, 0.0]).h, [1.0, 0.0])


@pytest.mark.parametrize("field", ["real", "complex"])
def test_point_canonical_under_random_scalars(field):
    # the canonical form itself: scalar multiples get one representative
    rng = np.random.default_rng(2)
    for _ in range(200):
        v = rand_nonzero_vector(rng, 4, field)
        alpha = rand_nonzero_scalar(rng, field)
        assert np.max(np.abs(point_from_vector(v).h - point_from_vector(alpha * v).h)) < 1e-12


def test_points_equal_negative_scalar():
    assert points_equal(point_from_vector([1.0, 2.0]), point_from_vector([-3.0, -6.0]))


def test_points_equal_distinct_axes():
    assert not points_equal(point_from_vector([1.0, 0.0]), point_from_vector([0.0, 1.0]))


def test_points_equal_complex_unit():
    # (-1, i) really is i * (i, 1), so the two lines coincide
    assert_allclose(1j * np.array([1j, 1.0]), np.array([-1.0, 1j]))
    assert points_equal(point_from_vector([1j, 1.0]), point_from_vector([-1.0, 1j]))


def test_points_equal_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        points_equal(point_from_vector([1.0, 0.0]), point_from_vector([1.0, 0.0, 0.0]))


# --- maps -----------------------------------------------------------------


def test_map_scalar_matrix_canonical_form():
    t = map_from_matrix(2.0 * np.eye(3))
    assert_allclose(t.M, np.eye(3) / np.sqrt(3.0))


def test_map_scalar_invariance():
    rng = np.random.default_rng(4)
    a = rand_invertible(rng, 4, "real")
    # the canonical form itself: scalar multiples get one representative
    assert np.max(np.abs(map_from_matrix(a).M - map_from_matrix(5.0 * a).M)) < 1e-12
    assert np.max(np.abs(map_from_matrix(a).M - map_from_matrix(-a).M)) < 1e-12


def test_map_rejects_ill_conditioned():
    with pytest.raises(IllConditioned):
        map_from_matrix(np.diag([1.0, 1e-15]))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_near_cap_maps_send_every_direction_to_a_point(field):
    # |T h| is cond(T)^-1 / |T|_F, under eps, on the smallest right singular
    # vector; the image is still the line of u_min, to about cond * 2^-53
    rng = np.random.default_rng(8)
    u, _ = np.linalg.qr(rand_vector(rng, 16, field).reshape(4, 4))
    v, _ = np.linalg.qr(rand_vector(rng, 16, field).reshape(4, 4))
    t = map_from_matrix(u @ np.diag([1.0, 0.5, 0.2, 1e-9]) @ v.conj().T)
    image = apply_map(t, point_from_vector(v[:, 3]))
    assert point_distance(image, point_from_vector(u[:, 3])) < 1e-6
    # a matrix of any size is its scalar class: 1e-10 I is the identity
    assert map_distance(map_from_matrix(1e-10 * np.eye(2)), identity_map(1)) < 1e-15


def test_apply_identity():
    rng = np.random.default_rng(6)
    p = rand_proj_point(rng, 3, "complex")
    assert points_equal(apply_map(identity_map(3, "complex"), p), p)


def test_apply_diagonal_by_hand():
    p = point_from_vector(np.array([1.0, 1.0]) / np.sqrt(2.0))
    image = apply_map(map_from_matrix(np.diag([1.0, 2.0])), p)
    assert points_equal(image, point_from_vector([1.0, 2.0]))


def test_apply_permutation():
    swap = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    image = apply_map(map_from_matrix(swap), point_from_vector([1.0, 0.0, 0.0]))
    assert points_equal(image, point_from_vector([0.0, 1.0, 0.0]))


def test_compose_with_identity():
    rng = np.random.default_rng(8)
    t = rand_proj_map(rng, 2, "real")
    assert maps_equal(compose(t, identity_map(2, "real")), t)


def test_compose_with_inverse_is_identity():
    rng = np.random.default_rng(9)
    t = rand_proj_map(rng, 2, "complex")
    assert maps_equal(compose(t, inverse_map(t)), identity_map(2, "complex"))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_compose_matches_stepwise_application(field):
    rng = np.random.default_rng(10)
    for _ in range(50):
        t1, t2 = rand_proj_map(rng, 3, field), rand_proj_map(rng, 3, field)
        p = rand_proj_point(rng, 3, field)
        lhs = apply_map(compose(t1, t2), p)
        rhs = apply_map(t1, apply_map(t2, p))
        assert point_distance(lhs, rhs) < 1e-9


def test_inverse_diagonal():
    t = inverse_map(map_from_matrix(np.diag([1.0, 2.0, 4.0])))
    assert maps_equal(t, map_from_matrix(np.diag([1.0, 0.5, 0.25])))


def test_inverse_round_trip_on_points():
    rng = np.random.default_rng(12)
    t = rand_proj_map(rng, 4, "real")
    for _ in range(50):
        p = rand_proj_point(rng, 4, "real")
        back = apply_map(inverse_map(t), apply_map(t, p))
        assert point_distance(back, p) < 1e-9


def test_maps_equal_cases():
    rng = np.random.default_rng(14)
    a = rand_invertible(rng, 3, "real")
    assert maps_equal(map_from_matrix(a), map_from_matrix(7.0 * a))
    assert not maps_equal(map_from_matrix(np.eye(3)), map_from_matrix(np.diag([1.0, 1.0, 2.0])))
    c = rand_invertible(rng, 3, "complex")
    theta = rng.uniform(0.0, 2.0 * np.pi)
    assert maps_equal(map_from_matrix(c), map_from_matrix(np.exp(1j * theta) * c))


@pytest.mark.parametrize("n,expected", [(1, 3), (2, 8), (3, 15)])
def test_group_dimension(n, expected):
    assert group_dimension(n) == expected


# --- charts ---------------------------------------------------------------


def test_chart_embed_origin():
    p = chart_embed(AffineChart(2, 3), [0.0, 0.0])
    assert points_equal(p, point_from_vector([0.0, 0.0, 1.0]))


def test_chart_embed_direct():
    p = chart_embed(AffineChart(2, 1), [1.0, 1.0])
    assert points_equal(p, point_from_vector([1.0, 1.0, 1.0]))


def test_chart_embed_injective():
    rng = np.random.default_rng(16)
    c = AffineChart(3, 2)
    for _ in range(50):
        w1, w2 = rand_vector(rng, 3, "real"), rand_vector(rng, 3, "real")
        assert not points_equal(chart_embed(c, w1), chart_embed(c, w2))


def test_chart_extract_direct_division():
    got = chart_extract(AffineChart(2, 1), point_from_vector([1.0, 5.0, 7.0]))
    assert_allclose(got, [5.0, 7.0], atol=1e-14)


def test_chart_extract_absent_on_missing_locus():
    assert chart_extract(AffineChart(2, 2), point_from_vector([1.0, 0.0, 0.0])) is None


@pytest.mark.parametrize("field", ["real", "complex"])
def test_chart_round_trip(field):
    rng = np.random.default_rng(17)
    for j in range(1, 6):
        c = AffineChart(4, j)
        w = rand_vector(rng, 4, field)
        got = chart_extract(c, chart_embed(c, w))
        assert np.max(np.abs(got - w)) < 1e-12


def test_chart_cover_pivot():
    assert chart_cover(point_from_vector([0.0, 0.0, 1.0])).j == 3
    assert chart_cover(point_from_vector([1.0, 1.0, 1.0])).j == 1  # smallest index on ties


def test_chart_cover_bound_cp3():
    rng = np.random.default_rng(18)
    for _ in range(1000):
        p = rand_proj_point(rng, 3, "complex")
        c = chart_cover(p)
        assert abs(p.h[c.j - 1]) >= 0.5  # 1/sqrt(n+1) with n = 3


def test_missing_locus_shape():
    locus = missing_locus(AffineChart(2, 1))
    assert locus.l == 1
    assert_allclose(locus.basis, np.eye(3)[:, 1:])


def test_missing_locus_dimension_zero():
    locus = missing_locus(AffineChart(1, 2))
    assert locus.l == 0
    assert point_membership(point_from_vector([1.0, 0.0]), locus)


def test_missing_locus_membership_equivalence():
    rng = np.random.default_rng(19)
    c = AffineChart(3, 2)
    locus = missing_locus(c, "complex")
    for _ in range(100):
        p = rand_proj_point(rng, 3, "complex")
        assert (chart_extract(c, p) is None) == point_membership(p, locus)
        on_locus = point_from_vector(locus.basis @ rand_nonzero_vector(rng, 3, "complex"))
        assert chart_extract(c, on_locus) is None
        assert point_membership(on_locus, locus)


def test_chart_transition_same_chart_is_identity():
    rng = np.random.default_rng(20)
    c = AffineChart(2, 2)
    w = rand_vector(rng, 2, "real")
    assert_allclose(chart_transition(c, c, w), w, atol=1e-14)


def test_chart_transition_line_atlas():
    # on RP^1 the two charts overlap on t != 0, where the change reads 1/t
    c1, c2 = AffineChart(1, 1), AffineChart(1, 2)
    for t in (0.5, -2.0, 3.0):
        assert_allclose(chart_transition(c1, c2, [t]), [1.0 / t], atol=1e-14)
    assert chart_transition(c1, c2, [0.0]) is None


def test_chart_transition_round_trip():
    rng = np.random.default_rng(21)
    c1, c2 = AffineChart(3, 1), AffineChart(3, 4)
    for _ in range(50):
        w = rand_vector(rng, 3, "complex")
        there = chart_transition(c1, c2, w)
        if there is None:
            continue
        back = chart_transition(c2, c1, there)
        assert np.max(np.abs(back - w)) < 1e-9


# --- subspaces and transitivity --------------------------------------------


def test_point_membership_axes():
    span12 = proj_subspace_from_span(np.eye(3)[:, :2])
    assert point_membership(point_from_vector([0.0, 1.0, 0.0]), span12)
    assert not point_membership(point_from_vector([0.0, 0.0, 1.0]), span12)


def test_point_membership_constructed():
    rng = np.random.default_rng(22)
    s = proj_subspace_from_span(rand_vector(rng, 8, "complex").reshape(4, 2))
    for _ in range(50):
        p = point_from_vector(s.basis @ rand_nonzero_vector(rng, 2, "complex"))
        assert point_membership(p, s)


def test_subspace_image_identity_and_permutation():
    tight = Tolerance(eps_abs=1e-12)
    s = proj_subspace_from_span(np.eye(3)[:, :1])
    same = subspace_image(identity_map(2, "real"), s)
    assert subspaces_equal(same.linear, s.linear, tight)
    cycle = np.roll(np.eye(3), 1, axis=0)
    moved = subspace_image(map_from_matrix(cycle), s)
    expected = proj_subspace_from_span(cycle @ np.eye(3)[:, :1])
    assert subspaces_equal(moved.linear, expected.linear, tight)


def test_subspace_image_preserves_membership():
    rng = np.random.default_rng(24)
    for _ in range(25):
        s = proj_subspace_from_span(rand_vector(rng, 8, "real").reshape(4, 2))
        t = rand_proj_map(rng, 3, "real")
        p = point_from_vector(s.basis @ rand_nonzero_vector(rng, 2, "real"))
        assert point_membership(apply_map(t, p), subspace_image(t, s))


def test_transitive_witness_fixed_point():
    p = point_from_vector([1.0, 2.0, 3.0])
    t = transitive_witness(p, p)
    assert points_equal(apply_map(t, p), p)


def test_transitive_witness_rotation_on_line():
    p, q = point_from_vector([1.0, 0.0]), point_from_vector([0.0, 1.0])
    t = transitive_witness(p, q)
    assert points_equal(apply_map(t, p), q)
    # the witness construction is unitary, hence perfectly conditioned
    assert np.max(np.abs(t.M @ t.M.conj().T - np.eye(2) / 2.0)) < 1e-12


def test_transitive_witness_random_cp3():
    rng = np.random.default_rng(25)
    for _ in range(100):
        p, q = rand_distinct_points(rng, 3, "complex")
        t = transitive_witness(p, q)
        assert point_distance(apply_map(t, p), q) < 1e-9


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("d", [2, 4, 8])
@pytest.mark.parametrize("first_zero", [False, True])
def test_unitary_completion_and_witness(field, d, first_zero):
    rng = np.random.default_rng(d)
    for _ in range(20):
        v = rand_nonzero_vector(rng, d, field)
        if first_zero:
            v[0] = 0.0
        h = point_from_vector(v).h
        u = projective._complete_to_unitary(h)
        assert u.dtype == h.dtype
        assert np.array_equal(u[:, 0], h)
        assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12
        p, q = point_from_vector(v), rand_proj_point(rng, d - 1, field)
        assert points_equal(apply_map(transitive_witness(p, q), p), q)


def test_custom_tolerance_threads_through():
    tight = Tolerance(eps_abs=1e-13, cond_max=1e6)
    p = point_from_vector([1.0, 0.0])
    q = point_from_vector([1.0, 5e-13])
    assert not points_equal(p, q, tight)
    assert points_equal(p, q, Tolerance(eps_abs=1e-6))


# --- tolerance path -----------------------------------------------------------

LOOSE = Tolerance(eps_abs=1e-6)
SCALARS = (1.0, -2.5, 1e-3 * np.exp(0.4j), 7e4 * np.exp(-2.1j))

# The near-tie tests below check that the canonical form reads no eps, so
# they compare representatives, not classes.


def test_point_near_tie_at_user_eps():
    # |v1| and |v2| are 1e-7 apart, within eps 1e-6 but outside the 1e-12 pivot band
    v = np.array([(1.0 - 1e-7) * np.exp(1j), 1.0])
    p = point_from_vector(v)
    assert p.h[1].real > 0.0 and p.h[1].imag == 0.0
    assert np.max(np.abs(point_from_vector(p.h).h - p.h)) < 1e-15
    for a in SCALARS:
        assert np.max(np.abs(point_from_vector(a * v).h - p.h)) < 1e-12


def test_map_near_tie_at_user_eps():
    a0 = np.array([[(1.0 - 1e-7) * np.exp(1j), 0.3], [0.2j, 1.0]])
    t = map_from_matrix(a0, LOOSE)
    assert np.array_equal(t.M, map_from_matrix(a0).M)
    assert t.M[1, 1].real > 0.0 and t.M[1, 1].imag == 0.0
    assert np.max(np.abs(map_from_matrix(t.M, LOOSE).M - t.M)) < 1e-15
    for a in SCALARS:
        assert np.max(np.abs(map_from_matrix(a * a0, LOOSE).M - t.M)) < 1e-12


def test_constructors_reject_non_canonical_representatives():
    with pytest.raises(ValueError, match="pivot coordinate must be real and positive"):
        ProjPoint("real", 1, [-1.0, 0.0])
    m = np.array([[-0.8, 0.3], [0.4, 0.2]])
    with pytest.raises(ValueError, match="pivot entry must be real and positive"):
        ProjMap("real", 1, m / np.linalg.norm(m))
    with pytest.raises(ValueError, match="unit norm"):
        ProjPoint("real", 1, [2.0, 0.0])
    with pytest.raises(DimensionMismatch):
        ProjMap("real", 2, np.eye(2) / np.sqrt(2.0))
