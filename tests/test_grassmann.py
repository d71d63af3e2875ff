import numpy as np
import pytest
from numpy.testing import assert_allclose

from projgeo import (
    AffineChart,
    IllConditioned,
    InvalidInput,
    InvalidRange,
    NotCanonical,
    ShapeMismatch,
    Subspace,
    Tolerance,
    annihilator,
    apply_gl,
    chart_coords,
    from_projective_point,
    graph_chart,
    graph_subspace,
    grassmann_dimension,
    missing_locus,
    orthogonal_complement,
    point_from_vector,
    points_equal,
    proj_subspace_from_span,
    projector_distance,
    subspace_from_span,
    subspace_image,
    subspaces_equal,
    to_projective_point,
    transitive_witness_gr,
)
from projgeo.jsonio import dumps, encode
from projgeo.suites import (
    rand_invertible,
    rand_nonzero_scalar,
    rand_proj_map,
    rand_subspace,
    rand_vector,
)


def span(*columns):
    return subspace_from_span(np.column_stack([np.asarray(c) for c in columns]))


# --- graph charts -----------------------------------------------------------


def test_graph_chart_transversality_at_user_eps():
    base = span([1.0, 0.0])
    tilted = span([1.0, 1e-7])  # stacked basis: smallest singular value ~7e-8
    assert np.linalg.svd(np.hstack([base.basis, tilted.basis]), compute_uv=False)[-1] < 1e-7
    graph_chart(base, tilted)
    with pytest.raises(ValueError, match="not transverse"):
        graph_chart(base, tilted, Tolerance(eps_abs=1e-6))


def test_graph_at_zero_is_base():
    rng = np.random.default_rng(1)
    base = rand_subspace(rng, 5, 2, "real")
    chart = graph_chart(base)
    assert subspaces_equal(graph_subspace(chart, np.zeros((3, 2))), base)


def test_graph_line_of_slope_t():
    chart = graph_chart(span([1.0, 0.0]), span([0.0, 1.0]))
    for t in (0.0, 1.5, -2.0):
        got = graph_subspace(chart, np.array([[t]]))
        assert subspaces_equal(got, span([1.0, t]))


def test_graph_dimension_and_transversality():
    rng = np.random.default_rng(2)
    for _ in range(25):
        base = rand_subspace(rng, 6, 2, "complex")
        chart = graph_chart(base)
        coeffs = rand_vector(rng, 8, "complex").reshape(4, 2)
        got = graph_subspace(chart, coeffs)
        assert got.k == 2
        stacked = np.hstack([got.basis, chart.complement.basis])
        assert np.linalg.svd(stacked, compute_uv=False)[-1] > 1e-6


def test_graph_rejects_bad_shape():
    chart = graph_chart(span([1.0, 0.0, 0.0]))
    with pytest.raises(ShapeMismatch):
        graph_subspace(chart, np.zeros((3, 3)))


def test_chart_coords_of_base_is_zero():
    rng = np.random.default_rng(3)
    base = rand_subspace(rng, 5, 2, "real")
    chart = graph_chart(base)
    assert np.max(np.abs(chart_coords(chart, base))) < 1e-12


def test_chart_coords_absent_for_complement():
    base = span([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0])
    comp = span([0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0])
    chart = graph_chart(base, comp)
    assert chart_coords(chart, comp) is None


@pytest.mark.parametrize("field", ["real", "complex"])
def test_chart_coords_round_trip(field):
    rng = np.random.default_rng(4)
    for _ in range(50):
        base = rand_subspace(rng, 5, 2, field)
        chart = graph_chart(base)
        coeffs = rand_vector(rng, 6, field).reshape(3, 2)
        got = chart_coords(chart, graph_subspace(chart, coeffs))
        assert got is not None
        assert np.max(np.abs(got - coeffs)) < 1e-9


def test_graph_then_coords_on_transverse_subspace():
    rng = np.random.default_rng(5)
    base = rand_subspace(rng, 5, 2, "complex")
    chart = graph_chart(base)
    x = rand_subspace(rng, 5, 2, "complex")
    coords = chart_coords(chart, x)
    assert coords is not None  # a random subspace misses the complement a.s.
    assert projector_distance(graph_subspace(chart, coords).basis, x.basis) < 1e-9


@pytest.mark.parametrize(
    "k,n,expected", [(1, 4, 3), (2, 4, 4), (3, 6, 9)]
)
def test_grassmann_dimension(k, n, expected):
    assert grassmann_dimension(k, n) == expected


def test_grassmann_dimension_invalid_range():
    with pytest.raises(InvalidRange):
        grassmann_dimension(0, 4)
    with pytest.raises(InvalidRange):
        grassmann_dimension(4, 4)


# --- the GL action -----------------------------------------------------------


def test_apply_gl_identity():
    rng = np.random.default_rng(6)
    s = rand_subspace(rng, 4, 2, "real")
    assert projector_distance(apply_gl(np.eye(4), s).basis, s.basis) < 1e-12


def test_apply_gl_permutation():
    s = span([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0])
    perm = np.eye(4)[[2, 3, 0, 1]]
    expected = span([0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0])
    assert subspaces_equal(apply_gl(perm, s), expected)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_apply_gl_composition_and_scaling(field):
    rng = np.random.default_rng(7)
    for _ in range(25):
        s = rand_subspace(rng, 5, 2, field)
        g1, g2 = rand_invertible(rng, 5, field), rand_invertible(rng, 5, field)
        assert (
            projector_distance(
                apply_gl(g1 @ g2, s).basis, apply_gl(g1, apply_gl(g2, s)).basis
            )
            < 1e-9
        )
        alpha = rand_nonzero_scalar(rng, field)
        assert projector_distance(apply_gl(alpha * g1, s).basis, apply_gl(g1, s).basis) < 1e-9


def test_apply_gl_rejects_singular():
    s = span([1.0, 0.0, 0.0])
    with pytest.raises(IllConditioned):
        apply_gl(np.diag([1.0, 1.0, 0.0]), s)


def test_transitive_witness_identity_case():
    rng = np.random.default_rng(8)
    s = rand_subspace(rng, 4, 2, "real")
    assert projector_distance(apply_gl(transitive_witness_gr(s, s), s).basis, s.basis) < 1e-10


def test_transitive_witness_axes():
    l1, l2 = span([1.0, 0.0, 0.0]), span([0.0, 1.0, 0.0])
    g = transitive_witness_gr(l1, l2)
    assert projector_distance(apply_gl(g, l1).basis, l2.basis) < 1e-10
    assert np.max(np.abs(g @ g.conj().T - np.eye(3))) < 1e-10  # unitary witness


def test_transitive_witness_random_pairs():
    rng = np.random.default_rng(9)
    for _ in range(100):
        l1 = rand_subspace(rng, 5, 2, "complex")
        l2 = rand_subspace(rng, 5, 2, "complex")
        moved = apply_gl(transitive_witness_gr(l1, l2), l1)
        assert projector_distance(moved.basis, l2.basis) < 1e-9


# --- dualities ---------------------------------------------------------------


def test_orthogonal_complement_axes():
    assert subspaces_equal(orthogonal_complement(span([1.0, 0.0, 0.0])), span([0.0, 1.0, 0.0], [0.0, 0.0, 1.0]))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_complement_involution_and_dimension(field):
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, n))
        s = rand_subspace(rng, n, k, field)
        comp = orthogonal_complement(s)
        assert comp.k == n - k
        assert np.max(np.abs(s.basis.conj().T @ comp.basis)) < 1e-10
        assert projector_distance(orthogonal_complement(comp).basis, s.basis) < 1e-10


def test_annihilator_real_matches_complement():
    s = span([1.0, 0.0, 0.0])
    assert subspaces_equal(annihilator(s), orthogonal_complement(s))


def test_annihilator_complex_line():
    # functionals killing (1, i) solve f1 + i f2 = 0, i.e. the (-i, 1) line
    s = subspace_from_span(np.array([[1.0], [1.0j]]))
    ann = annihilator(s)
    assert np.max(np.abs(s.basis.T @ ann.basis)) < 1e-12
    expected = subspace_from_span(np.array([[-1.0j], [1.0]]))
    assert subspaces_equal(ann, expected)
    # ... and over C that is not the Hermitian complement
    assert not subspaces_equal(ann, orthogonal_complement(s))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_annihilator_involution(field):
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, n))
        s = rand_subspace(rng, n, k, field)
        ann = annihilator(s)
        assert ann.k == n - k
        assert projector_distance(annihilator(ann).basis, s.basis) < 1e-10


# --- lines are projective points ---------------------------------------------


@pytest.mark.parametrize("field", ["real", "complex"])
def test_lines_round_trip_through_projective_points(field):
    rng = np.random.default_rng(12)
    for _ in range(25):
        line = rand_subspace(rng, 4, 1, field)
        p = to_projective_point(line)
        assert p.n == 3
        back = from_projective_point(p)
        assert projector_distance(back.basis, line.basis) < 1e-12
        assert points_equal(to_projective_point(back), p)


def test_point_to_line_and_back():
    p = point_from_vector([1.0, 2.0, 2.0])
    assert points_equal(to_projective_point(from_projective_point(p)), p)


# --- projective subspaces, held as their linear subspaces ---------------------


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_projective_subspace_is_a_view_of_its_linear_subspace(field, n):
    rng = np.random.default_rng(30 + n)
    for l in range(n):
        for _ in range(5):
            x = rand_vector(rng, (n + 1) * (l + 1), field).reshape(n + 1, l + 1)
            s = proj_subspace_from_span(x)
            assert np.array_equal(s.basis, subspace_from_span(x).basis)
            assert (s.field, s.n, s.l) == (field, n, l)
            t = rand_proj_map(rng, n, field)
            assert np.array_equal(subspace_image(t, s).basis, apply_gl(t.M, s.linear).basis)
    for j in range(1, n + 2):
        assert missing_locus(AffineChart(n, j), field).l == n - 1


def test_projective_subspace_document_is_pinned():
    s = proj_subspace_from_span(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
    assert dumps(encode(s)) == (
        '{"kind": "proj_subspace", "field": "real", "n": 2, '
        '"basis": [[0.70710678118654746, 0.70710678118654746, 0], [0, 0, 1]]}'
    )


def test_subspace_and_chart_errors_are_typed_and_name_their_values():
    with pytest.raises(NotCanonical, match=r"max \|B\^H B - I\| = 3, bound 1e-10"):
        Subspace("real", 3, 1, [[2.0], [0.0], [0.0]])
    with pytest.raises(NotCanonical, match=r"= nan, bound 1e-10"):
        Subspace("real", 3, 1, [[np.nan], [0.0], [0.0]])
    with pytest.raises(InvalidRange, match="0 <= l < n, got l = 2, n = 2"):
        proj_subspace_from_span(np.eye(3))
    transverse = r"not transverse: smallest singular value \S+ <= eps 1e-09"
    with pytest.raises(InvalidInput, match=transverse):
        graph_chart(span([1.0, 0.0]), span([1.0, 0.0]))
