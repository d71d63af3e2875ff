"""The HopfPoint window is the set of representatives that quotient_project returns.

The window is [1 - 1e-12, |lam| (1 - 1e-12)), exactly one factor of |lam|
wide, so each class has one representative in it.  ``quotient_project``
snaps a norm at or above the upper edge down one power and lifts a norm
that roundoff left just under the lower edge onto it.  The constructor
accepts exactly those norms, projecting a representative returns it bit for
bit, and v and lam v get the same representative.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projgeo import (
    HopfPoint, NotCanonical, ScaleGroup, Tolerance, hopf_distance, hopf_points_equal, norm2,
    quotient_project,
)
from projgeo.hopf_manifold import _LOW

TWO = ScaleGroup(2)
TINY = Tolerance(1e-320)  # no draw here is a zero vector


@pytest.mark.parametrize("rep", [[2.0000000002, 0.0], [0.9999999999, 0.0]])
def test_the_constructor_rejects_what_quotient_project_never_makes(rep):
    # both were held, 1 apart from the representative that quotient_project makes
    with pytest.raises(NotCanonical, match="outside the window"):
        HopfPoint(TWO, rep)
    assert hopf_distance(quotient_project(rep, TWO), quotient_project(rep, TWO)) == 0.0


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("lam", [2.0, 1.5 + 2j, 1.0 + 1e-9])
def test_the_window_edges_sit_where_they_are_derived(n, lam):
    group = ScaleGroup(lam)
    upper = group.abs_scale * _LOW
    edges = [(_LOW, True), (math.nextafter(_LOW, 0.0), False),
             (math.nextafter(upper, 0.0), True), (upper, False)]
    for nrm, inside in edges:
        rep = np.zeros(n, dtype=complex)
        rep[0] = nrm
        assert norm2(rep) == nrm
        if inside:
            assert np.array_equal(HopfPoint(group, rep).rep, rep)
            assert np.array_equal(quotient_project(rep, group).rep, rep)
        else:
            with pytest.raises(NotCanonical):
                HopfPoint(group, rep)
            assert not np.array_equal(quotient_project(rep, group).rep, rep)


# norms across the window at lam = 2, where every rescale is exact; the
# first lies under 1 - 1e-12, so v is not a representative but 2 v is
@pytest.mark.parametrize("nrm", [1.0 - 1.1e-12, _LOW, 1.0 - 1e-13, 1.0, 1.5,
                                 math.nextafter(2.0 * _LOW, 0.0)])
def test_v_and_lam_v_get_the_same_representative_at_lam_2(nrm):
    v = np.array([nrm, 0.0])
    assert np.array_equal(quotient_project(v, TWO).rep, quotient_project(2.0 * v, TWO).rep)
    assert hopf_points_equal(v, 2.0 * v, TWO)


@settings(max_examples=200, deadline=None)
@given(
    lam=st.sampled_from([1.5 + 2j, 1e4j, -3.0 + 0.5j, 1.000001j]),
    place=st.floats(1e-6, 1.0 - 1e-6),
    k=st.integers(-30, 30),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(lam=1.5 + 2j, place=0.5, k=1, seed=0)
def test_v_and_a_power_of_lam_get_one_representative_at_a_complex_lam(lam, place, k, seed):
    # clear of the edges by far more than roundoff, the two representatives
    # differ by the roundoff of lam^k only
    group = ScaleGroup(lam)
    a = group.abs_scale
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = w * (_LOW * a ** place / norm2(w))
    h = quotient_project(v, group, TINY)
    assert np.array_equal(h.rep, v)
    assert hopf_distance(h, quotient_project(v * lam ** k, group, TINY)) < 1e-12


_SCALES = (1.0 + 1e-9, 1.000001, 2.0, -3.0, 1e4, 1e60, 1e4j, 1.5 + 2j,
           23.88341222814015 + 7.388005166533489j, 33j)


@settings(max_examples=400, deadline=None)
@given(
    lam=st.sampled_from(_SCALES),
    n=st.integers(1, 8),
    power=st.floats(-1.0, 1.0),
    edge=st.sampled_from([_LOW, 1.0]),
    ulps=st.integers(-8, 8),
    seed=st.none() | st.integers(0, 2 ** 32 - 1),
    real=st.booleans(),
)
# |lam| = 25: the snapped norm of this one comes out under 1 - 1e-12 by the
# roundoff of lam^-187, and is lifted onto the edge
@example(lam=23.88341222814015 + 7.388005166533489j, n=2, power=187 / 217,
         edge=_LOW, ulps=0, seed=None, real=False)
def test_quotient_project_stays_in_the_window_at_its_edges(lam, n, power, edge, ulps, seed, real):
    group = ScaleGroup(lam)
    a = group.abs_scale
    k = round(power * math.floor(700.0 / math.log(a)))
    if seed is None:
        w = np.eye(n, dtype=complex)[0]
    else:
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if real and group.is_real:
        w = w.real
    v = w * (a ** k * edge * (1.0 + ulps * 2.0 ** -53) / norm2(w))
    h = quotient_project(v, group, TINY)  # the constructor's check runs inside
    assert _LOW <= norm2(h.rep) < a * _LOW
    assert np.array_equal(quotient_project(h.rep, group, TINY).rep, h.rep)
    assert np.array_equal(HopfPoint(group, h.rep).rep, h.rep)
