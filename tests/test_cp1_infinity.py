"""CP^1 as lines: the sphere chart reads no eps, and inf has one rule.

A point of CP^1 is a line [h1 : h2]; it is inf exactly when |h2| <= eps on
the unit representative.  ``sphere_to_cp1`` builds the line without any
threshold, and ``mobius_apply`` decides inf on the same quantity as
``cp1_affine``, so the direct formula and the projective action agree at
every eps.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from projgeo import (
    INFINITY,
    Tolerance,
    apply_map,
    cp1_affine,
    cp1_from_affine,
    cp1_to_sphere,
    map_from_matrix,
    mobius_apply,
    point_distance,
    point_from_vector,
    sphere_to_cp1,
)

EPS = (1e-9, 1e-6, 1e-2)


def cpoint(*coords):
    return point_from_vector(np.array(coords, dtype=complex))


@pytest.mark.parametrize("eps", [1e-9, 1e-2])
def test_the_sphere_round_trip_keeps_a_point_near_the_pole(eps):
    # |h2| = 2e-5 sits inside the band that a pole snap at eps 1e-9 reached
    p = cpoint(1.0, 2e-5)
    back = sphere_to_cp1(cp1_to_sphere(p))
    assert point_distance(back, p) <= 1e-15
    tol = Tolerance(eps)
    assert cp1_affine(back, tol).is_infinity == cp1_affine(p, tol).is_infinity == (eps > 2e-5)


@settings(max_examples=300, deadline=None)
@given(
    log_t=st.floats(-300.0, 0.0),
    phi=st.floats(0.0, 2.0 * math.pi),
    north=st.booleans(),
)
@example(log_t=math.log10(2e-5), phi=0.0, north=True)
@example(log_t=math.log10(math.sqrt(0.5e-9)), phi=1.0, north=True)
@example(log_t=-8.0, phi=2.0, north=False)
def test_the_sphere_chart_is_exact_near_both_poles(log_t, phi, north):
    small = 10.0 ** log_t * cmath.exp(1j * phi)
    p = cpoint(1.0, small) if north else cpoint(small, 1.0)
    xyz = cp1_to_sphere(p)
    back = sphere_to_cp1(xyz)
    assert point_distance(back, p) <= 1e-15
    assert np.max(np.abs(cp1_to_sphere(back) - xyz)) <= 1e-15


_COEF = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    a=_COEF, b=_COEF, c=_COEF, d=_COEF,
    log_r=st.floats(-14.0, 0.0),
    phi=st.floats(0.0, 2.0 * math.pi),
    at_inf=st.booleans(),
    eps=st.sampled_from(EPS),
)
# near the pole -d/c = -1: |c z + d| = 0.015 is over eps 1e-2 on the raw pair,
# but under it on the unit representative (|h2| = 0.0076)
@example(a=2, b=0, c=1, d=1, log_r=math.log10(0.015), phi=0.0, at_inf=False, eps=1e-2)
# at inf: |c| = 0.005 is under eps 1e-2 on the raw pair, |h2| = 0.98 is not
@example(a=0.001, b=-10, c=0.005, d=10, log_r=0.0, phi=0.0, at_inf=True, eps=1e-2)
@example(a=1, b=2, c=3, d=4, log_r=-9.0, phi=0.5, at_inf=False, eps=1e-9)
def test_mobius_apply_decides_inf_as_the_projective_action_does(
    a, b, c, d, log_r, phi, at_inf, eps
):
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    assume(abs(a * d - b * c) > 0.5)
    if at_inf:
        z = INFINITY
    else:
        assume(abs(c) > 1e-3)
        z = -d / c + 10.0 ** log_r * cmath.exp(1j * phi)
    tol = Tolerance(eps)
    direct = mobius_apply(a, b, c, d, z, tol)
    image = apply_map(map_from_matrix(np.array([[a, b], [c, d]]), tol), cp1_from_affine(z))
    via = cp1_affine(image, tol)
    assert direct.is_infinity == via.is_infinity
    if not direct.is_infinity:  # compared as lines, which stays well-conditioned near the pole
        assert point_distance(cp1_from_affine(direct), image) < 1e-12


def test_mobius_apply_takes_huge_values_on_the_scaled_line():
    # at z = 1e308, 2 z and 10 z overflow; the pairs divided by z do not
    assert mobius_apply(2, 1, 1, 1, 1e308).z == 2.0
    w = mobius_apply(0, 1, 10, 1, 1e308)
    assert not w.is_infinity and abs(w.z - 1e-309) <= 1e-323
