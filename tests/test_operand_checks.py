"""Each operand check is written once and raises one typed error.

Every matrix that must be invertible passes one guard, which coerces it
once: NotSquare (a DimensionMismatch) off the square, DimensionMismatch
at the wrong size, InvalidInput on a non-finite entry, FieldMismatch on
complex entries for the real field, IllConditioned past the cap.  The
public constructors test a representative with the same canonical-form
and window checks as the builders, and raise NotCanonical.
"""

import numpy as np
import pytest

import projgeo as pg
from projgeo import numerics
from projgeo.errors import (
    DimensionMismatch,
    FieldMismatch,
    IllConditioned,
    InvalidInput,
    NotCanonical,
    NotSquare,
)
from projgeo.hopf_manifold import HopfPoint, ScaleGroup
from projgeo.projective import ProjMap, ProjPoint
from projgeo.suites import rand_invertible, rand_subspace, rand_vector


@pytest.mark.parametrize("field", ["real", "complex"])
def test_each_guarded_entry_point_coerces_its_matrix_once(monkeypatch, field):
    rng = np.random.default_rng(3)
    g = rand_invertible(rng, 3, field)
    t = pg.map_from_matrix(rand_invertible(rng, 3, field))
    s = rand_subspace(rng, 3, 1, field)
    h = pg.quotient_project(rand_vector(rng, 3, field))
    seen = []
    coerce = numerics._coerce

    def counting(arr, want):
        seen.append(arr)
        return coerce(arr, want)

    monkeypatch.setattr(numerics, "_coerce", counting)
    for name, call, m in [
        ("map_from_matrix", lambda: pg.map_from_matrix(g), g),
        ("invert", lambda: numerics.invert(g), g),
        ("inverse_map", lambda: pg.inverse_map(t), t.M),
        ("apply_gl", lambda: pg.apply_gl(g, s), g),
        ("induced_linear", lambda: pg.induced_linear(g, h), g),
    ]:
        seen.clear()
        call()
        assert sum(a.shape == m.shape and np.array_equal(a, m) for a in seen) == 1, name


def _guarded(name):
    """The entry point as a function of a matrix, in a real 3-dimensional setting."""
    s = pg.subspace_from_span(np.eye(3)[:, :1])
    h = pg.quotient_project([1.0, 0.0, 0.0])
    return {
        "map_from_matrix": lambda m: pg.map_from_matrix(m, field="real"),
        "invert": numerics.invert,
        "apply_gl": lambda m: pg.apply_gl(m, s),
        "induced_linear": lambda m: pg.induced_linear(m, h),
    }[name]


_NAN, _INF, _CPLX = np.eye(3), np.eye(3), np.eye(3, dtype=complex)
_NAN[0, 1], _INF[2, 2], _CPLX[1, 0] = np.nan, np.inf, 1j

_CASES = [  # (matrix, error, entry points that apply)
    (np.ones((3, 2)), NotSquare, None),
    (np.ones((2, 3)), NotSquare, None),
    (np.eye(2), DimensionMismatch, ("apply_gl", "induced_linear")),
    (_NAN, InvalidInput, None),
    (_INF, InvalidInput, None),
    (_CPLX, FieldMismatch, ("map_from_matrix", "apply_gl", "induced_linear")),
]


@pytest.mark.parametrize("name", ["map_from_matrix", "invert", "apply_gl", "induced_linear"])
def test_the_guard_raises_one_typed_error_per_fault(name):
    call = _guarded(name)
    for m, error, where in _CASES:
        if where is not None and name not in where:
            continue
        with pytest.raises(error) as info:
            call(m)
        if error is NotSquare:
            assert isinstance(info.value, DimensionMismatch)
        if error is DimensionMismatch:
            assert not isinstance(info.value, NotSquare)
    cap = r"^condition estimate 1\.000e\+13 exceeds cap 1\.000e\+12$"
    with pytest.raises(IllConditioned, match=cap):
        call(np.diag([1.0, 1.0, 1e-13]))
    call(np.diag([1.0, 1.0, 1e-11]))


def test_constructors_raise_not_canonical_naming_norm_and_pivot():
    pivot = r"pivot coordinate must be real and positive: \|norm - 1\| = 0, pivot -1\+0j at index 0"
    with pytest.raises(NotCanonical, match=pivot):
        ProjPoint("real", 1, [-1.0, 0.0])
    m = np.array([[-0.8, 0.3], [0.4, 0.2]])
    with pytest.raises(NotCanonical, match=r"pivot entry must be real and positive: .* at index 0"):
        ProjMap("real", 1, m / np.linalg.norm(m))
    with pytest.raises(NotCanonical, match=r"must have unit norm: \|norm - 1\| = 1, pivot 2\+0j"):
        ProjPoint("real", 1, [2.0, 0.0])
    with pytest.raises(NotCanonical, match="unit norm"):
        ProjMap("complex", 1, np.eye(2))
    with pytest.raises(NotCanonical, match="unit norm"):
        ProjPoint("real", 1, [np.nan, 0.0])
    # canonical only at an eps of 0.2 or more: the pivot band takes no eps
    with pytest.raises(NotCanonical, match=r"positive: .* pivot -0\.8\+0j at index 1"):
        ProjPoint("real", 1, [0.6, -0.8])
    with pytest.raises(NotCanonical, match=r"^representative norm 3 outside the window "
                                           r"\[0\.999999999999, 1\.999999999998\)$"):
        HopfPoint(pg.ScaleGroup(2.0), np.array([3.0, 0.0]))
    with pytest.raises(NotCanonical,
                       match=r"norm 0\.5 outside the window \[0\.999999999999, 1\.4999999999985\)"):
        HopfPoint(pg.ScaleGroup(1.5j), np.array([0.5j, 0.0]))


def test_the_hopf_point_constructor_holds_a_float_copy():
    h = HopfPoint(ScaleGroup(2.0), ["1", "0"])
    assert h.rep.dtype == np.float64 and h.field == "real"
    assert np.array_equal(h.rep, [1.0, 0.0])
    assert HopfPoint(ScaleGroup(2.0), [1, 0]).rep.dtype == np.float64
    assert HopfPoint(ScaleGroup(1.5j), [1j, 0]).rep.dtype == np.complex128
    mine = np.array([1.0, 0.0])
    HopfPoint(ScaleGroup(2.0), mine)
    assert mine.flags.writeable


def test_a_complex_scale_rejects_a_real_vector_once_for_every_entry_point():
    group, message = ScaleGroup(1.5j), "^a complex scale does not act on real vectors$"
    for call in (lambda: HopfPoint(group, [1.0, 0.0]),
                 lambda: pg.quotient_project([1.0, 0.0], group),
                 lambda: group.power(2, "real")):
        with pytest.raises(FieldMismatch, match=message):
            call()
