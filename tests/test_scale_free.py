"""A line is never rejected for its size.

RP^n and CP^n are the lines through the origin, so whether an input
defines a line cannot depend on its scale.  Every builder and predicate
here gives the same class, or raises the same typed error, for s v as for
v, at s = 10^k for every k in [-300, 300]; the quotient by the powers of
lam does so for s a power of lam.  Only an exact zero is degenerate.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import projgeo as pg

# numpy warns when an unscaled sum of squares overflows; norm2 then rescales
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")


def _outcome(fn):
    """fn(), or the type of the ProjGeoError it raises; any other error escapes."""
    try:
        return fn()
    except pg.ProjGeoError as e:
        return type(e)


def _same(x, y, equal) -> bool:
    """Both the same typed error, or both answers and ``equal`` on them."""
    if isinstance(x, type) or isinstance(y, type):
        return x is y
    return equal(x, y)


def _draws(rng, field, kind):
    """(vector, matrix, span, Mobius coefficients), generic or degenerate by ``kind``."""
    def vec(n):
        x = rng.standard_normal(n)
        return x + 1j * rng.standard_normal(n) if field == "complex" else x

    v, a, span, m = vec(3), vec(9).reshape(3, 3), vec(6).reshape(3, 2), vec(4)
    if kind == "degenerate":  # zero, singular, rank one, parallel rows
        v = np.zeros_like(v)
        a = np.outer(vec(3), vec(3))
        span[:, 1] = 2.0 * span[:, 0]
        m[2:] = 2.0 * m[:2]
    return v, a, span, [complex(x) for x in m]


def _extended_close(x, y) -> bool:
    if x.is_infinity or y.is_infinity:
        return x.is_infinity and y.is_infinity
    return abs(x.z - y.z) <= 1e-9 * (1.0 + abs(x.z))


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(-300, 300),
    seed=st.integers(0, 2**32 - 1),
    field=st.sampled_from(["real", "complex"]),
    kind=st.sampled_from(["generic", "degenerate"]),
)
@example(k=-10, seed=0, field="real", kind="generic")
@example(k=-300, seed=1, field="complex", kind="generic")
@example(k=-300, seed=2, field="complex", kind="degenerate")
def test_builders_and_predicates_answer_alike_at_every_scale(k, seed, field, kind):
    rng = np.random.default_rng(seed)
    v, a, span, (ma, mb, mc, md) = _draws(rng, field, kind)
    s = 10.0 ** k
    z = complex(rng.standard_normal(), rng.standard_normal())

    pairs = [
        (lambda x: pg.point_from_vector(x * v), pg.points_equal),
        (lambda x: pg.map_from_matrix(x * a), pg.maps_equal),
        (lambda x: pg.sphere_point(x * v), lambda p, q: np.max(np.abs(p - q)) < 1e-12),
        (lambda x: pg.subspace_from_span(x * span),
         lambda p, q: p.k == q.k and pg.subspaces_equal(p, q)),
        (lambda x: pg.proj_subspace_from_span(x * span),
         lambda p, q: p.l == q.l and pg.subspaces_equal(p.linear, q.linear)),
        (lambda x: pg.mobius_apply(x * ma, x * mb, x * mc, x * md, z), _extended_close),
        (lambda x: pg.mobius_matches_projective(x * ma, x * mb, x * mc, x * md, 5),
         lambda p, q: p == q),
    ]
    for i, (make, equal) in enumerate(pairs):
        assert _same(_outcome(lambda: make(1.0)), _outcome(lambda: make(s)), equal), (i, s)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(-300, 300),
    seed=st.integers(0, 2**32 - 1),
    lam=st.sampled_from([2.0, -3.0, 1.5 + 2j, 1e4j]),
    zero=st.booleans(),
)
@example(k=-10, seed=0, lam=2.0, zero=False)
@example(k=-300, seed=1, lam=1.5 + 2j, zero=False)
def test_quotient_project_answers_alike_at_every_power_of_lam(k, seed, lam, zero):
    # s = lam^m with |s| near 10^k: s v and v are one class
    group = pg.ScaleGroup(lam)
    field = "real" if group.is_real else "complex"
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(3)
    if field == "complex":
        v = v + 1j * rng.standard_normal(3)
    if zero:
        v = np.zeros_like(v)
    s = group.power(round(k * math.log(10.0) / math.log(group.abs_scale)), field)
    x = _outcome(lambda: pg.quotient_project(v, group))
    y = _outcome(lambda: pg.quotient_project(s * v, group))
    # the representatives differ by the roundoff of two powers of lam, of a norm up to |lam|
    assert _same(x, y, lambda p, q: pg.hopf_distance(p, q) < 1e-12 * group.abs_scale)
