"""Seeded property suites behind the ``check`` command.

Each property is a predicate over one seeded trial, and a suite is a
fixed ordered list of properties.  ``run_suite`` is the only code that
loops over trials: it counts the passes of each property and reports
them as a (passed, total) pair.  The sampling helpers at the top double
as reusable generators for the pytest suite.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from projgeo import grassmann, hopf_fibration, hopf_manifold, numerics, projective
from projgeo.errors import ProjGeoError
from projgeo.numerics import COMPLEX, REAL, Tolerance

_FIELDS = (REAL, COMPLEX)
_DIMS = (1, 2, 3, 5)


# --- seeded sampling helpers ---------------------------------------------


def rand_vector(rng: np.random.Generator, dim: int, field: str) -> np.ndarray:
    v = rng.standard_normal(dim)
    if field == COMPLEX:
        v = v + 1j * rng.standard_normal(dim)
    return v


def rand_nonzero_vector(rng, dim, field) -> np.ndarray:
    while True:
        v = rand_vector(rng, dim, field)
        if numerics.norm2(v) > 1e-3:
            return v


def rand_nonzero_scalar(rng, field):
    mag = rng.uniform(0.25, 4.0)
    if field == COMPLEX:
        return mag * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return mag if rng.random() < 0.5 else -mag


def rand_invertible(rng, n, field) -> np.ndarray:
    """Random square matrix, regenerated until its condition is under 1e6."""
    while True:
        a = rand_vector(rng, n * n, field).reshape(n, n)
        if numerics.cond_estimate(a) < 1e6:
            return a


def rand_proj_point(rng, n, field, tol=numerics.DEFAULT_TOLERANCE) -> projective.ProjPoint:
    return projective.point_from_vector(rand_nonzero_vector(rng, n + 1, field), tol)


def rand_proj_map(rng, n, field, tol=numerics.DEFAULT_TOLERANCE) -> projective.ProjMap:
    return projective.map_from_matrix(rand_invertible(rng, n + 1, field), tol)


def rand_distinct_points(rng, n, field, tol=numerics.DEFAULT_TOLERANCE):
    p = rand_proj_point(rng, n, field, tol)
    while True:
        q = rand_proj_point(rng, n, field, tol)
        if not projective.points_equal(p, q, tol):
            return p, q


def rand_subspace(rng, n, k, field, tol=numerics.DEFAULT_TOLERANCE) -> grassmann.Subspace:
    while True:
        s = grassmann.subspace_from_span(rand_vector(rng, n * k, field).reshape(n, k), tol)
        if s.k == k:
            return s


def _cycle(i: int) -> tuple[str, int]:
    return _FIELDS[i % 2], _DIMS[(i // 2) % len(_DIMS)]


# --- projective ----------------------------------------------------------


def _prop_scalar_invariance(rng, i, tol, lam):
    field, n = _cycle(i)
    v = rand_nonzero_vector(rng, n + 1, field)
    alpha = rand_nonzero_scalar(rng, field)
    p1 = projective.point_from_vector(v, tol)
    p2 = projective.point_from_vector(alpha * v, tol)
    a = rand_invertible(rng, n + 1, field)
    beta = rand_nonzero_scalar(rng, field)
    t1 = projective.map_from_matrix(a, tol)
    t2 = projective.map_from_matrix(beta * a, tol)
    # the canonical form itself: one representative, not only one class
    return np.max(np.abs(p1.h - p2.h)) < 1e-12 and np.max(np.abs(t1.M - t2.M)) < 1e-12


def _prop_functoriality(rng, i, tol, lam):
    field, n = _cycle(i)
    t1 = rand_proj_map(rng, n, field, tol)
    t2 = rand_proj_map(rng, n, field, tol)
    p = rand_proj_point(rng, n, field, tol)
    lhs = projective.apply_map(projective.compose(t1, t2, tol), p)
    rhs = projective.apply_map(t1, projective.apply_map(t2, p))
    return projective.point_distance(lhs, rhs) < 1e-9


def _prop_inverse_law(rng, i, tol, lam):
    field, n = _cycle(i)
    t = rand_proj_map(rng, n, field, tol)
    p = rand_proj_point(rng, n, field, tol)
    ident = projective.identity_map(n, field)
    round_trip = projective.apply_map(projective.inverse_map(t, tol), projective.apply_map(t, p))
    composed = projective.compose(t, projective.inverse_map(t, tol), tol)
    return (
        projective.point_distance(round_trip, p) < 1e-9
        and projective.map_distance(composed, ident) < 1e-9
    )


def _prop_atlas_cover(rng, i, tol, lam):
    field, n = _cycle(i)
    p = rand_proj_point(rng, n, field, tol)
    chart = projective.chart_cover(p)
    coords = projective.chart_extract(chart, p, tol)
    if coords is None:
        return False
    pivot_ok = abs(p.h[chart.j - 1]) >= 1.0 / np.sqrt(n + 1) - 1e-12
    back = projective.chart_embed(chart, coords, field)
    w = rand_vector(rng, n, field)
    there = projective.chart_extract(chart, projective.chart_embed(chart, w, field), tol)
    return (
        pivot_ok
        and projective.point_distance(back, p) < 1e-10
        and there is not None
        and np.max(np.abs(there - w)) < 1e-10
    )


def _prop_missing_locus(rng, i, tol, lam):
    field, n = _cycle(i)
    p = rand_proj_point(rng, n, field, tol)
    good = True
    for j in range(1, n + 2):
        chart = projective.AffineChart(n, j)
        locus = grassmann.missing_locus(chart, field)
        absent = projective.chart_extract(chart, p, tol) is None
        if absent != grassmann.point_membership(p, locus, tol):
            good = False
        # a point manufactured on the locus must be invisible to the chart;
        # its coefficients are scaled up, if need be, to clear the zero test
        coeffs = rand_nonzero_vector(rng, n, field)
        coeffs = coeffs * max(1.0, 4.0 * tol.eps_abs / numerics.norm2(coeffs))
        on_locus = projective.point_from_vector(locus.basis @ coeffs, tol)
        if projective.chart_extract(chart, on_locus, tol) is not None:
            good = False
        if not grassmann.point_membership(on_locus, locus, tol):
            good = False
    return good


def _prop_transitivity(rng, i, tol, lam):
    field, n = _cycle(i)
    p = rand_proj_point(rng, n, field, tol)
    q = rand_proj_point(rng, n, field, tol)
    image = projective.apply_map(projective.transitive_witness(p, q), p)
    return projective.point_distance(image, q) < 1e-9


# --- grassmann -----------------------------------------------------------

_GR_SHAPES = ((2, 1), (3, 1), (4, 2), (5, 2), (6, 3))


def _gr_cycle(i: int) -> tuple[str, int, int]:
    n, k = _GR_SHAPES[(i // 2) % len(_GR_SHAPES)]
    return _FIELDS[i % 2], n, k


def _prop_graph_roundtrip(rng, i, tol, lam):
    field, n, k = _gr_cycle(i)
    base = rand_subspace(rng, n, k, field, tol)
    chart = grassmann.graph_chart(base, tol=tol)
    coeffs = rand_vector(rng, (n - k) * k, field).reshape(n - k, k)
    graph = grassmann.graph_subspace(chart, coeffs, tol)
    recovered = grassmann.chart_coords(chart, graph, tol)
    zero = grassmann.chart_coords(chart, grassmann.graph_subspace(chart, np.zeros((n - k, k)), tol), tol)
    return (
        graph.k == k
        and recovered is not None
        and np.max(np.abs(recovered - coeffs)) < 1e-9
        and zero is not None
        and np.max(np.abs(zero)) < 1e-9
    )


def _prop_group_action(rng, i, tol, lam):
    field, n, k = _gr_cycle(i)
    s = rand_subspace(rng, n, k, field, tol)
    g1 = rand_invertible(rng, n, field)
    g2 = rand_invertible(rng, n, field)
    ident = grassmann.apply_gl(np.eye(n), s, tol)
    composed = grassmann.apply_gl(g1 @ g2, s, tol)
    stepped = grassmann.apply_gl(g1, grassmann.apply_gl(g2, s, tol), tol)
    scaled = grassmann.apply_gl(rand_nonzero_scalar(rng, field) * g1, s, tol)
    once = grassmann.apply_gl(g1, s, tol)
    return (
        numerics.projector_distance(ident.basis, s.basis) < 1e-12
        and numerics.projector_distance(composed.basis, stepped.basis) < 1e-9
        and numerics.projector_distance(scaled.basis, once.basis) < 1e-9
    )


def _prop_gr_transitivity(rng, i, tol, lam):
    field, n, k = _gr_cycle(i)
    l1 = rand_subspace(rng, n, k, field, tol)
    l2 = rand_subspace(rng, n, k, field, tol)
    g = grassmann.transitive_witness_gr(l1, l2)
    moved = grassmann.apply_gl(g, l1, tol)
    return numerics.projector_distance(moved.basis, l2.basis) < 1e-9


def _prop_complement_involution(rng, i, tol, lam):
    field, n, k = _gr_cycle(i)
    s = rand_subspace(rng, n, k, field, tol)
    comp = grassmann.orthogonal_complement(s, tol)
    back = grassmann.orthogonal_complement(comp, tol)
    orth = np.max(np.abs(s.basis.conj().T @ comp.basis))
    return (
        comp.k == n - k
        and orth < 1e-10
        and numerics.projector_distance(back.basis, s.basis) < 1e-10
    )


def _prop_annihilator_involution(rng, i, tol, lam):
    field, n, k = _gr_cycle(i)
    s = rand_subspace(rng, n, k, field, tol)
    ann = grassmann.annihilator(s, tol)
    back = grassmann.annihilator(ann, tol)
    pairing = np.max(np.abs(s.basis.T @ ann.basis))
    return (
        ann.k == n - k
        and pairing < 1e-10
        and numerics.projector_distance(back.basis, s.basis) < 1e-10
    )


def _prop_projective_consistency(rng, i, tol, lam):
    field = _FIELDS[i % 2]
    n = _DIMS[(i // 2) % len(_DIMS)] + 1
    line = rand_subspace(rng, n, 1, field, tol)
    point = grassmann.to_projective_point(line)
    back = grassmann.from_projective_point(point)
    p2 = grassmann.to_projective_point(back)
    return (
        numerics.projector_distance(back.basis, line.basis) < 1e-10
        and projective.points_equal(point, p2, tol)
    )


# --- hopf manifold -------------------------------------------------------


def _hopf_trial(i: int, lam) -> tuple[hopf_manifold.ScaleGroup, str, int]:
    """The scale group, field and shape-cycle index of trial ``i``: the
    fields the scale acts on alternate fastest.  It draws nothing."""
    group = hopf_manifold.ScaleGroup(lam)
    fields = (REAL, COMPLEX) if group.is_real else (COMPLEX,)
    return group, fields[i % len(fields)], i // len(fields)


# A vector scaled by a power of |lam| must keep its norm inside
# (2 eps, _NORM_CAP): no check may treat it as zero, and its squared norm
# must not overflow.
_NORM_CAP = 1e150


def _clear_powers(v, a: float, tol: Tolerance, lowest: int, count: int) -> tuple[int, int]:
    """Bounds (lo, hi) of the powers k by which a property scales ``v``.

    The run is ``count`` powers long, from ``lowest`` or from the first
    power above it at which |v| a^k exceeds 2 eps, and it stops before
    |v| a^k reaches _NORM_CAP.  At the default eps and lam it is
    (lowest, lowest + count - 1), so the seeded draws stay the same.
    """
    nrm, log_a = numerics.norm2(v), math.log(a)
    lo = max(lowest, math.floor(math.log(2.0 * tol.eps_abs / nrm) / log_a) + 1)
    hi = min(lo + count - 1, math.ceil(math.log(_NORM_CAP / nrm) / log_a) - 1)
    return lo, hi


def _prop_canonical_window(rng, i, tol, lam):
    group, field, j = _hopf_trial(i, lam)
    a = group.abs_scale
    n = _DIMS[j % len(_DIMS)]
    v = rand_nonzero_vector(rng, n, field)
    lo, hi = _clear_powers(v, a, tol, -6, 13)
    v = v * (a ** rng.integers(lo, hi + 1))  # spread norms across many windows
    h = hopf_manifold.quotient_project(v, group, tol)
    nrm = numerics.norm2(h.rep)
    again = hopf_manifold.quotient_project(h.rep, group, tol)
    return (
        1.0 - 1e-12 <= nrm < a * (1.0 - 1e-12)
        and np.array_equal(again.rep, h.rep)  # the canonical form: projecting is idempotent
    )


def _prop_class_equality(rng, i, tol, lam):
    group, field, j = _hopf_trial(i, lam)
    n = _DIMS[j % len(_DIMS)]
    v = rand_nonzero_vector(rng, n, field)
    lo, hi = _clear_powers(v, group.abs_scale, tol, -8, 17)
    m = int(rng.integers(lo, hi + 1))
    w = v * group.power(m, field)
    same = hopf_manifold.hopf_points_equal(v, w, group, tol)
    other = hopf_manifold.hopf_points_equal(v, v + rand_nonzero_vector(rng, n, field), group, tol)
    flipped = hopf_manifold.hopf_points_equal(v, -v, group, tol)
    return same and not other and not flipped


def _prop_projection_factorizes(rng, i, tol, lam):
    group, field, j = _hopf_trial(i, lam)
    n = _DIMS[j % len(_DIMS)] + 1
    v = rand_nonzero_vector(rng, n, field)
    lo, hi = _clear_powers(v, group.abs_scale, tol, -6, 13)
    m = int(rng.integers(lo, hi + 1))
    w = v * group.power(m, field)
    pv = hopf_manifold.to_projective(hopf_manifold.quotient_project(v, group, tol))
    pw = hopf_manifold.to_projective(hopf_manifold.quotient_project(w, group, tol))
    return projective.points_equal(pv, pw, tol)


def _prop_equivariance(rng, i, tol, lam):
    group, field, j = _hopf_trial(i, lam)
    n = _DIMS[j % len(_DIMS)] + 1
    v = rand_nonzero_vector(rng, n, field)
    g = rand_invertible(rng, n, field)
    h = hopf_manifold.quotient_project(v, group, tol)
    h_alt = hopf_manifold.quotient_project(v * group.power(3, field), group, tol)
    moved = hopf_manifold.induced_linear(g, h, tol)
    moved_alt = hopf_manifold.induced_linear(g, h_alt, tol)
    top = hopf_manifold.to_projective(moved)
    t = projective.map_from_matrix(g, tol)
    bottom = projective.apply_map(t, hopf_manifold.to_projective(h))
    return (
        hopf_manifold.hopf_distance(moved, moved_alt) < 1e-9
        and projective.point_distance(top, bottom) < 1e-9
    )


def _prop_trace_invariance(rng, i, tol, lam):
    group, field, j = _hopf_trial(i, lam)
    n, k = _GR_SHAPES[j % len(_GR_SHAPES)]
    s = rand_subspace(rng, n, k, field, tol)
    inside = s.basis @ rand_nonzero_vector(rng, k, field)
    outside = rand_nonzero_vector(rng, n, field)
    a = group.abs_scale
    lo, hi = _clear_powers(inside, a, tol, -5, 11)
    votes = []
    for m in range(lo, hi + 1):
        hv = hopf_manifold.quotient_project(inside * group.power(m, field), group, tol)
        votes.append(hopf_manifold.subspace_trace_membership(hv, s, tol))
    outside = outside * a ** _clear_powers(outside, a, tol, 0, 1)[0]
    h_out = hopf_manifold.quotient_project(outside, group, tol)
    generic_out = hopf_manifold.subspace_trace_membership(h_out, s, tol)
    return all(votes) and not generic_out


# --- fibration -----------------------------------------------------------


def _prop_real_double_cover(rng, i, tol, lam):
    n = _DIMS[i % len(_DIMS)]
    p = rand_proj_point(rng, n, REAL, tol)
    x1, x2 = hopf_fibration.real_fiber(p)
    back1 = hopf_fibration.hopf_project(x1)
    back2 = hopf_fibration.hopf_project(x2)
    return (
        np.array_equal(x1.x, -x2.x)
        and abs(numerics.norm2(x1.x) - 1.0) < 1e-12
        and projective.point_distance(back1, p) < 1e-10
        and projective.point_distance(back2, p) < 1e-10
    )


def _prop_circle_fiber(rng, i, tol, lam):
    m = 16
    n = _DIMS[i % len(_DIMS)]
    p = rand_proj_point(rng, n, COMPLEX, tol)
    samples = hopf_fibration.complex_fiber_sample(p, m)
    good = all(
        projective.point_distance(hopf_fibration.hopf_project(x), p) < 1e-10 for x in samples
    )
    t1, t2 = int(rng.integers(0, m)), int(rng.integers(0, m))
    chord = numerics.norm2(samples[t1] - samples[t2])
    expected = 2.0 * abs(np.sin(np.pi * (t1 - t2) / m))
    return good and abs(chord - expected) < 1e-12


def _prop_disjointness(rng, i, tol, lam):
    n = 1 if i % 2 == 0 else 2
    p, q = rand_distinct_points(rng, n, COMPLEX, tol)
    sampled = hopf_fibration.fibers_min_distance(p, q, 64, tol)
    exact = np.sqrt(max(0.0, 2.0 - 2.0 * abs(np.vdot(p.h, q.h))))
    return sampled > 1e-3 and sampled >= exact - 1e-12


def _prop_sphere_chart(rng, i, tol, lam):
    p = rand_proj_point(rng, 1, COMPLEX, tol)
    xyz = hopf_fibration.cp1_to_sphere(p)
    back = hopf_fibration.sphere_to_cp1(xyz)
    z = hopf_fibration.cp1_affine(p, tol)
    z_back = hopf_fibration.cp1_affine(hopf_fibration.cp1_from_affine(z), tol)
    return (
        abs(numerics.norm2(xyz) - 1.0) < 1e-10
        and projective.point_distance(back, p) < 1e-10
        and hopf_fibration.extended_equal(z, z_back, 1e-10)
    )


def _prop_mobius_agreement(rng, i, tol, lam):
    while True:
        a, b, c, d = (complex(rng.standard_normal(), rng.standard_normal()) for _ in range(4))
        if abs(a * d - b * c) > 0.1:
            break
    sub = np.random.default_rng(int(rng.integers(0, 2**63)))
    return hopf_fibration.mobius_matches_projective(a, b, c, d, 20, tol, rng=sub)


def _prop_linking_unit(rng, i, tol, lam):
    p, q = rand_distinct_points(rng, 1, COMPLEX, tol)
    raw = hopf_fibration.linking_integral(p, q, 512, tol)
    return abs(abs(raw) - 1.0) < 0.05 and abs(hopf_fibration.linking_number(p, q, 512, tol)) == 1


# --- registry ------------------------------------------------------------


class PropertyResult(NamedTuple):
    name: str
    passed: int
    total: int


# Each entry is (name, trial) or (name, trial, cap): a trial is
# (rng, trial index, tol, lam) -> passed, and the cap bounds the number of
# trials of a costly property.
SUITES: dict[str, list[tuple]] = {
    "projective": [
        ("scalar_invariance", _prop_scalar_invariance),
        ("functoriality", _prop_functoriality),
        ("inverse_law", _prop_inverse_law),
        ("atlas_cover", _prop_atlas_cover),
        ("missing_locus", _prop_missing_locus),
        ("transitivity", _prop_transitivity),
    ],
    "grassmann": [
        ("graph_roundtrip", _prop_graph_roundtrip),
        ("group_action", _prop_group_action),
        ("transitivity", _prop_gr_transitivity),
        ("complement_involution", _prop_complement_involution),
        ("annihilator_involution", _prop_annihilator_involution),
        ("projective_consistency", _prop_projective_consistency),
    ],
    "hopf-manifold": [
        ("canonical_window", _prop_canonical_window),
        ("class_equality", _prop_class_equality),
        ("projection_factorizes", _prop_projection_factorizes),
        ("equivariance", _prop_equivariance),
        ("trace_invariance", _prop_trace_invariance),
    ],
    "fibration": [
        ("real_double_cover", _prop_real_double_cover),
        ("circle_fiber", _prop_circle_fiber),
        ("disjointness", _prop_disjointness),
        ("sphere_chart", _prop_sphere_chart),
        ("mobius_agreement", _prop_mobius_agreement),
        ("linking_unit", _prop_linking_unit, 3),
    ],
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suite(
    name: str,
    trials: int,
    seed: int,
    tol: Tolerance = numerics.DEFAULT_TOLERANCE,
    lam: complex | float = 2.0,
) -> list[PropertyResult]:
    """Run one suite (or all of them) and return per-property results.

    Fully deterministic for a fixed (name, trials, seed) triple: each
    suite derives its generator from the seed and its own name, and its
    properties draw from it in registry order, trial by trial.  A
    ProjGeoError raised inside a trial is re-raised as the same type,
    its message prefixed with the property and the trial index.
    """
    if name == "all":
        results = []
        for sub in SUITES:
            results.extend(run_suite(sub, trials, seed, tol, lam))
        return results
    index = list(SUITES).index(name)
    rng = np.random.default_rng([index, seed])
    results = []
    for prop_name, trial, *cap in SUITES[name]:
        label = f"{name}.{prop_name}"
        total = min([trials, *cap])
        passed = 0
        for i in range(total):
            try:
                if trial(rng, i, tol, lam):
                    passed += 1
            except ProjGeoError as exc:
                raise type(exc)(f"{label}, trial {i}: {exc}") from exc
        results.append(PropertyResult(label, passed, total))
    return results
