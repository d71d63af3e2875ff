import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import projgeo as pg
from projgeo.errors import IllConditioned, NotSquare, RankDeficientToZero
from projgeo.numerics import (
    Tolerance,
    cond_estimate,
    in_span,
    invert,
    kernel,
    norm2,
    orthonormalize,
    projector_distance,
    require_conditioned,
)


def svd_projector(m, rank):
    """Independent span projector built straight from the SVD."""
    u, s, _ = np.linalg.svd(m)
    basis = u[:, :rank]
    return basis @ basis.conj().T


def test_invert_identity():
    assert_allclose(invert(np.eye(3)), np.eye(3))


def test_invert_diagonal():
    assert_allclose(invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))


def test_invert_residual_random():
    rng = np.random.default_rng(11)
    while True:
        a = rng.uniform(-1.0, 1.0, size=(5, 5))
        if cond_estimate(a) < 1e3:
            break
    residual = np.linalg.norm(a @ invert(a) - np.eye(5))
    assert residual < 1e-10


def test_invert_rejects_rectangular():
    with pytest.raises(NotSquare):
        invert(np.ones((2, 3)))


def test_invert_rejects_ill_conditioned():
    with pytest.raises(IllConditioned):
        invert(np.diag([1.0, 1e-15]))
    with pytest.raises(IllConditioned):
        invert(np.diag([1.0, 0.0]))


def test_invert_involution():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n))
        if cond_estimate(a) > 1e6:
            continue
        assert np.max(np.abs(invert(invert(a)) - a)) < 1e-8


def test_orthonormalize_axis_rescale():
    m = np.array([[3.0, 0.0], [0.0, 0.0], [0.0, 5.0]])
    q = orthonormalize(m)
    assert_allclose(q, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))


def test_orthonormalize_collapses_dependent_columns():
    q = orthonormalize(np.array([[1.0, 2.0], [1.0, 2.0]]))
    assert q.shape == (2, 1)
    assert_allclose(q[:, 0], np.array([1.0, 1.0]) / np.sqrt(2.0))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_orthonormalize_random_full_rank(field):
    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 3))
    if field == "complex":
        m = m + 1j * rng.standard_normal((6, 3))
    q = orthonormalize(m)
    assert q.shape == (6, 3)
    assert np.max(np.abs(q.conj().T @ q - np.eye(3))) < 1e-12
    assert np.linalg.norm(q @ q.conj().T - svd_projector(m, 3)) < 1e-10


def test_orthonormalize_idempotent():
    rng = np.random.default_rng(13)
    q = orthonormalize(rng.standard_normal((5, 2)))
    assert projector_distance(orthonormalize(q), q) < 1e-12


def test_orthonormalize_zero_columns():
    with pytest.raises(RankDeficientToZero):
        orthonormalize(np.zeros((3, 2)))
    # an eps of 1 or more drops every column of a nonzero span
    with pytest.raises(RankDeficientToZero, match="drops every column"):
        orthonormalize(np.eye(2), Tolerance(eps_abs=1e300))


def test_kernel_coordinate_functional():
    k = kernel(np.array([[1.0, 0.0, 0.0]]))
    assert k.shape == (3, 2)
    expected = np.eye(3)[:, 1:]
    assert np.linalg.norm(k @ k.conj().T - expected @ expected.T) < 1e-12


def test_kernel_zero_map():
    k = kernel(np.zeros((2, 2)))
    assert k.shape == (2, 2)
    assert np.max(np.abs(k.conj().T @ k - np.eye(2))) < 1e-12


def test_kernel_random_low_rank():
    rng = np.random.default_rng(23)
    m = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 5))
    k = kernel(m)
    assert k.shape == (5, 3)
    assert np.linalg.norm(m @ k) < 1e-9


def test_kernel_rank_nullity():
    rng = np.random.default_rng(29)
    for _ in range(25):
        rows, cols = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        r = int(rng.integers(1, min(rows, cols) + 1))
        m = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
        assert kernel(m).shape[1] + np.linalg.matrix_rank(m) == cols


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(eps_abs=0.0)
    with pytest.raises(ValueError):
        Tolerance(cond_max=1.0)


def test_require_conditioned_names_estimate_and_cap():
    tol = Tolerance(cond_max=1e3)
    require_conditioned(np.diag([1.0, 1e-3]), tol)
    with pytest.raises(IllConditioned, match=r"^condition estimate 1\.000e\+04 exceeds cap 1\.000e\+03$"):
        require_conditioned(np.diag([1.0, 1e-4]), tol)


# rows orthogonal, norms 1.5 sqrt 2 and sqrt 2 times 1e308: condition 1.5,
# though the largest singular value passes the largest double
_HUGE = np.array([[1.5e308, 1.5e308], [-1e308, 1e308]])
_HUGER = np.array([[1.7e308, 1.7e308], [-1.7e308, 1.7e308]])  # every singular value passes it


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_condition_estimate_of_matrices_past_the_largest_double():
    assert cond_estimate(_HUGE) == pytest.approx(1.5, rel=1e-14)
    assert cond_estimate(_HUGER) == pytest.approx(1.0, rel=1e-14)
    assert cond_estimate(np.diag([1.7e308, 1e-300])) == math.inf
    with pytest.raises(IllConditioned, match=r"estimate 1\.700e\+18 exceeds"):
        require_conditioned(np.diag([1.7e308, 1e290]), Tolerance())


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_guarded_operations_take_matrices_past_the_largest_double():
    # scaling by a power of two is exact, so each answer is that of the scaled matrix
    s = 2.0 ** -1000
    for a in (_HUGE, _HUGER):
        assert pg.map_distance(pg.map_from_matrix(a), pg.map_from_matrix(a * s)) < 1e-15
        sub = pg.subspace_from_span(np.array([[0.6], [0.8]]))  # a G v past the largest double
        assert pg.subspaces_equal(pg.apply_gl(a, sub), pg.apply_gl(a * s, sub), Tolerance(1e-15))
        h = pg.quotient_project(np.array([0.6, 0.8]), pg.ScaleGroup(2.0))
        assert pg.hopf_distance(pg.induced_linear(a, h), pg.induced_linear(a * s, h)) < 1e-15


def test_in_span_residual_against_eps():
    basis = np.eye(3)[:, :2]
    assert in_span(np.array([0.6, 0.8, 0.0]), basis, Tolerance())
    assert not in_span(np.array([0.6, 0.8, 1e-6]), basis, Tolerance())
    assert in_span(np.array([0.6, 0.8, 1e-6]), basis, Tolerance(eps_abs=1e-5))


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"eps_abs": math.inf}, "eps_abs"),
        ({"eps_abs": math.nan}, "eps_abs"),
        ({"cond_max": math.inf}, "cond_max"),
        ({"cond_max": math.nan}, "cond_max"),
    ],
)
def test_tolerance_rejects_non_finite_values(kwargs, field):
    value = next(iter(kwargs.values()))
    with pytest.raises(ValueError, match=rf"^{field} must .* finite, got {value!r}$"):
        Tolerance(**kwargs)


def _views(a):
    """The array itself and views of it in other memory layouts."""
    _, _, vh = np.linalg.svd(a)
    return [
        a, a.T, np.asfortranarray(a), a[:, 0], a[:, -1], a[0], a[::2], a[:, ::-1],
        vh[1:].conj().T, vh.T, a.ravel(),
    ]


@pytest.mark.parametrize("cplx", [False, True])
def test_norm2_is_numpy_norm_bit_for_bit_in_range(cplx):
    rng = np.random.default_rng(61)
    for _ in range(200):
        rows, cols = (int(d) for d in rng.integers(1, 9, size=2))
        a = rng.standard_normal((rows, cols))
        if cplx:
            a = a + 1j * rng.standard_normal((rows, cols))
        a *= 10.0 ** rng.uniform(-100.0, 100.0)
        for x in _views(a):
            got, want = norm2(x), np.linalg.norm(x)
            assert type(got) is float
            assert got == want, (x.shape, x.strides)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_norm2_at_the_edges_of_the_doubles():
    assert norm2(np.zeros(3)) == 0.0
    assert norm2(np.zeros((0,))) == 0.0
    assert norm2(np.array([3e200, 4e200])) == pytest.approx(5e200, rel=1e-15)
    assert norm2(np.array([3e-200j, 4e-200])) == pytest.approx(5e-200, rel=1e-15)
    assert norm2(np.array([5e-324, 0.0])) == 5e-324
    # complex entries whose largest part is subnormal: a complex divide by it overflows
    assert norm2(np.array([0j, 2.225073858507e-311j])) == 2.225073858507e-311
    assert norm2(np.array([5e-324j, 0.0])) == 5e-324
    assert norm2(np.array([3e-320 + 4e-320j])) == 5e-320
    assert norm2(np.array([1.5e308, 1.5e308])) == math.inf
    assert norm2(np.array([1.0, math.inf])) == math.inf
    assert math.isnan(norm2(np.array([1.0, math.nan])))


_ENTRY = st.one_of(
    st.just(0.0),
    st.floats(1e-2, 1e2),
    st.floats(-1e2, -1e-2),
)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    re=st.lists(_ENTRY, min_size=1, max_size=8),
    im=st.lists(_ENTRY, min_size=8, max_size=8),
    cplx=st.booleans(),
    k=st.integers(-300, 300),
)
def test_norm2_commutes_with_powers_of_ten(re, im, cplx, k):
    x = np.array(re)
    if cplx:
        x = x + 1j * np.array(im[: len(re)])
    want = 10.0 ** k * norm2(x)
    assume(0.0 < want < math.inf)
    _assert_norm2_commutes(x, k)


def _assert_norm2_commutes(x, k):
    s = 10.0 ** k
    want = s * norm2(x)
    # s * x rounds each entry once; both norms round a few more times
    assert abs(norm2(s * x) - want) <= 16 * math.ulp(want)


@pytest.mark.parametrize("k", range(-165, -149))
def test_norm2_commutes_with_powers_of_ten_where_squares_are_subnormal(k):
    # the sum of squares of 10^k x falls under the smallest normal double
    # here, a band that uniform draws of k in [-300, 300] rarely reach
    rng = np.random.default_rng(-k)
    for size in (1, 2, 5, 8):
        x = rng.uniform(1e-2, 1e2, size) * rng.choice((-1.0, 1.0), size)
        _assert_norm2_commutes(x, k)
        _assert_norm2_commutes(x + 1j * rng.uniform(-1e2, 1e2, size), k)
