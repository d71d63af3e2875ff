"""Unit-sphere projections onto projective space and their fibers.

Over R the unit sphere S^n double-covers RP^n: the fiber over a point is
an antipodal pair.  Over C the unit sphere of C^{n+1} maps onto CP^n
with circle fibers {e^{it} h}; distinct fibers never meet, and for n = 1
any two of them form a linked pair of circles in S^3.  The linking number
is counted exactly as the signed crossings of one fiber through the flat
disk that the other bounds in R^3; a discretized Gauss double integral
gives an independent cross-check.

The n = 1 base space CP^1 is also exposed as the extended complex plane
C u {inf} (affine coordinate z = h1/h2) and as the round 2-sphere via
stereographic projection; under that identification projective maps act
as Mobius transformations z -> (a z + b)/(c z + d).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from projgeo.errors import (
    DegenerateProjection,
    DimensionMismatch,
    FieldMismatch,
    InvalidInput,
    InvalidRange,
    SamePoint,
    SingularCoefficients,
    Unresolved,
)
from projgeo.numerics import (
    COMPLEX,
    DEFAULT_TOLERANCE,
    REAL,
    Tolerance,
    _unit,
    as_vector,
    dtype_for,
    field_of,
    norm2,
)
from projgeo.projective import (
    ProjPoint,
    _point_of,
    apply_map,
    map_from_matrix,
    points_equal,
)


def _require_unit(rows: np.ndarray) -> np.ndarray:
    """``rows``, after checking that each row (or the one vector) has unit
    norm to 1e-12; a row with an inf or nan entry fails too."""
    if not np.all(np.abs(np.linalg.norm(rows, axis=-1) - 1.0) <= 1e-12):
        raise InvalidInput("sphere points must have unit norm")
    return rows


@dataclass(frozen=True, eq=False)
class SpherePoint:
    """A unit vector of F^{n_amb}, i.e. a point of the unit sphere."""

    field: str
    n_amb: int
    x: np.ndarray

    def __post_init__(self):
        arr = np.array(self.x, dtype=dtype_for(self.field))
        if arr.ndim != 1 or arr.shape[0] != self.n_amb:
            raise DimensionMismatch(
                f"expected {self.n_amb} coordinates, got shape {arr.shape}"
            )
        _require_unit(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "x", arr)


def sphere_point(
    v, tol: Tolerance = DEFAULT_TOLERANCE, field: str | None = None
) -> SpherePoint:
    """Normalize a nonzero vector onto the unit sphere."""
    u = _unit(as_vector(v, field), tol.eps_abs, "normalize")
    return SpherePoint(field_of(u), u.shape[0], u)


@dataclass(frozen=True)
class ExtendedComplex:
    """A value of C u {inf}; ``z is None`` encodes the point at infinity."""

    z: complex | None = None

    def __post_init__(self):
        if self.z is not None:
            val = complex(self.z)
            if not (math.isfinite(val.real) and math.isfinite(val.imag)):
                raise InvalidInput(f"finite value required, got {self.z}; use INFINITY otherwise")
            object.__setattr__(self, "z", val)

    @property
    def is_infinity(self) -> bool:
        return self.z is None

    def __repr__(self):
        return "INFINITY" if self.z is None else f"ExtendedComplex({self.z!r})"


INFINITY = ExtendedComplex(None)


def as_extended(value) -> ExtendedComplex:
    """Coerce a complex number (or ExtendedComplex) to ExtendedComplex."""
    if isinstance(value, ExtendedComplex):
        return value
    return ExtendedComplex(complex(value))


def extended_equal(a, b, eps: float = DEFAULT_TOLERANCE.eps_abs) -> bool:
    """Equality on C u {inf}: inf matches only inf, finite values within eps."""
    ea, eb = as_extended(a), as_extended(b)
    if ea.is_infinity or eb.is_infinity:
        return ea.is_infinity and eb.is_infinity
    return abs(ea.z - eb.z) <= eps


def hopf_project(x) -> ProjPoint:
    """The point of projective space on the line through a sphere point:
    a SpherePoint, or a unit vector such as a row of a fiber sample."""
    return _point_of(x.x if isinstance(x, SpherePoint) else _require_unit(as_vector(x)))


def real_fiber(p: ProjPoint) -> tuple[SpherePoint, SpherePoint]:
    """Both preimages on the sphere of a real projective point.

    The fiber of the double cover S^n -> RP^n is the antipodal pair
    {h, -h} of the canonical unit representative.
    """
    if p.field != REAL:
        raise FieldMismatch("real fibers exist over the real field only")
    return (
        SpherePoint(REAL, p.n + 1, p.h),
        SpherePoint(REAL, p.n + 1, -p.h),
    )


def complex_fiber_sample(p: ProjPoint, m: int) -> np.ndarray:
    """m equally spaced points on the circle fiber over a complex point,
    as the rows of a read-only complex (m, n+1) array.

    Row t is e^{2 pi i t / m} h for t = 0, ..., m-1; every row is a unit
    vector that projects back to ``p``, and chord lengths follow the
    circle geometry |x_t - x_s| = 2 |sin(pi (t - s) / m)|.
    """
    if p.field != COMPLEX:
        raise FieldMismatch("circle fibers exist over the complex field only")
    if m < 1:
        raise InvalidRange("need at least one sample")
    phases = np.exp(2j * np.pi * np.arange(m) / m)
    rows = _require_unit(phases[:, None] * p.h)
    rows.setflags(write=False)
    return rows


def fibers_min_distance(
    p: ProjPoint, q: ProjPoint, m: int, tol: Tolerance = DEFAULT_TOLERANCE
) -> float:
    """Minimum distance between m-point samples of two circle fibers.

    Strictly positive whenever the base points differ; the exact
    distance between the full circles is sqrt(2 - 2 |<h_p, h_q>|), which
    the sampled minimum approaches from above as m grows.  Sample s of
    one fiber and sample t of the other are sqrt(2 - 2 Re(w^(s-t) c))
    apart, with w = e^{2 pi i / m} and c = <h_q, h_p>, so only the m
    differences k = s - t need checking: O(m) time and memory.
    """
    if p.field != COMPLEX or q.field != COMPLEX:
        raise FieldMismatch("circle fibers exist over the complex field only")
    if p.n != q.n:
        raise DimensionMismatch(f"mixed dimensions: {p.n} vs {q.n}")
    if m < 1:
        raise InvalidRange("need at least one sample")
    if points_equal(p, q, tol):
        raise SamePoint("fibers coincide; disjointness distance is undefined")
    thetas = 2.0 * np.pi * np.arange(m) / m
    d2 = np.maximum(2.0 - 2.0 * (np.exp(1j * thetas) * np.vdot(q.h, p.h)).real, 0.0)
    return float(np.sqrt(d2.min()))


# --- linking of fibers in S^3 -------------------------------------------

# The 3-sphere sits in R^4 = C^2 via (Re h1, Im h1, Re h2, Im h2) and is
# projected to R^3 stereographically from the pole -e4 (the point (0, -i)
# of C^2).  When a fiber passes within this gap of the pole, both fibers
# are first moved by one fixed rotation from the list below.
_POLE_GAP = 1e-3
_FALLBACK_ANGLES = (0.0, 1.0, 2.0)

# Pairs of segments per tile of the Gauss sum: each (rows, m) work array
# then holds 2**16 doubles (512 KiB), whatever m is.
_GAUSS_PAIRS = 2 ** 16


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _pole_clearance(h: np.ndarray) -> float:
    # min over t of |e^{it} h - (0, -i)| = sqrt(2 - 2 |h2|)
    return math.sqrt(max(0.0, 2.0 - 2.0 * abs(h[1])))


def _stereo_fiber(h: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """R^3 stereographic images of the fiber points e^{i theta} h, one row per theta."""
    z = np.exp(1j * thetas)[:, None] * h[None, :]
    x4 = np.stack([z[:, 0].real, z[:, 0].imag, z[:, 1].real, z[:, 1].imag], axis=-1)
    return x4[:, :3] / (1.0 + x4[:, 3:4])


def _clear_pole(*reps: np.ndarray) -> tuple[np.ndarray, ...]:
    for angle in _FALLBACK_ANGLES:
        rot = _rotation(angle)
        moved = tuple(rot @ h for h in reps)
        if all(_pole_clearance(h) > _POLE_GAP for h in moved):
            return moved
    raise DegenerateProjection("no pole-avoiding rotation found")


def _require_cp1(*points: ProjPoint) -> None:
    """The one CP^1 operand check: FieldMismatch for a real point,
    DimensionMismatch for a complex point of CP^n with n != 1."""
    for p in points:
        if p.field != COMPLEX or p.n != 1:
            error = FieldMismatch if p.field != COMPLEX else DimensionMismatch
            raise error(f"expected a point of CP^1, got a {p.field} point with n = {p.n}")


def fiber_stereo_samples(p: ProjPoint, m: int) -> np.ndarray:
    """R^3 stereographic coordinates of m fiber samples over a CP^1 point.

    The fiber is rotated by a fixed rotation first whenever it passes
    near the projection pole, so the output is always finite.
    """
    _require_cp1(p)
    if m < 1:
        raise InvalidRange("need at least one sample")
    (h,) = _clear_pole(p.h)
    return _stereo_fiber(h, 2.0 * np.pi * np.arange(m) / m)


def _linked_pair(
    p: ProjPoint, q: ProjPoint, m: int, tol: Tolerance
) -> tuple[np.ndarray, np.ndarray]:
    """Validated fiber representatives of a linking computation, moved off the pole."""
    _require_cp1(p, q)
    if m < 64:
        raise InvalidRange("need at least 64 segments per fiber")
    if points_equal(p, q, tol):
        raise SamePoint("a fiber is not linked with itself")
    return _clear_pole(p.h, q.h)


def linking_integral(
    p: ProjPoint, q: ProjPoint, m: int, tol: Tolerance = DEFAULT_TOLERANCE
) -> float:
    """Gauss double integral of the two fibers, before rounding.

    Both fibers are projected stereographically to R^3 and discretized
    into m segments each; the integrand is evaluated with the midpoint
    rule, (a_i x b_j) . (A_i - B_j) / |A_i - B_j|^3 for segment vectors
    a, b and midpoints A, B.  By the triple-product identity
    (a x b) . (A - B) = b . (A x a) - a . (b x B) the numerators of a
    tile of rows i are two (rows x 3)(3 x m) matrix products against
    u_i = A_i x a_i and w_j = b_j x B_j, computed once in O(m).  The
    squared distances are summed from the three coordinate differences,
    never expanded as |A|^2 + |B|^2 - 2 A . B, which cancels for nearby
    points.  A tile is max(1, 2**16 // m) rows, so its work arrays stay
    near 512 KiB each whatever m is.  Each tile is summed by numpy and
    the tile sums, in row order, by ``math.fsum``: the order is fixed,
    so the result is deterministic for a given m.
    """
    hp, hq = _linked_pair(p, q, m, tol)

    edges = 2.0 * np.pi * np.arange(m) / m
    mids = edges + np.pi / m

    a_edge, a_mid = _stereo_fiber(hp, edges), _stereo_fiber(hp, mids)
    b_edge, b_mid = _stereo_fiber(hq, edges), _stereo_fiber(hq, mids)
    a_seg = np.roll(a_edge, -1, axis=0) - a_edge
    b_seg = np.roll(b_edge, -1, axis=0) - b_edge
    u = np.cross(a_mid, a_seg)
    w_t = np.cross(b_seg, b_mid).T

    rows = max(1, _GAUSS_PAIRS // m)
    partial: list[float] = []
    for i0 in range(0, m, rows):
        i1 = min(i0 + rows, m)
        num = u[i0:i1] @ b_seg.T
        num -= a_seg[i0:i1] @ w_t
        d2 = np.subtract.outer(a_mid[i0:i1, 0], b_mid[:, 0])
        d2 *= d2
        for k in (1, 2):
            diff = np.subtract.outer(a_mid[i0:i1, k], b_mid[:, k])
            diff *= diff
            d2 += diff
        r3 = np.sqrt(d2)
        r3 *= d2
        num /= r3
        partial.append(float(num.sum()))
    return math.fsum(partial) / (4.0 * math.pi)


def _diameter_ends(h: np.ndarray, *half_turns: float) -> np.ndarray:
    """R^3 images of the fiber points the given numbers of half turns after
    the one nearest the pole (0, -i), one row each."""
    # e^{i t} h is nearest the pole when i e^{i t} h2 is real and positive
    nearest = -cmath.phase(h[1]) - 0.5 * math.pi
    return _stereo_fiber(h, nearest + np.array(half_turns) * math.pi)


def _stereo_radius(h: np.ndarray) -> float:
    """Radius of the R^3 circle a fiber projects to (see :func:`_stereo_circle`)."""
    near, far = _diameter_ends(h, 0.0, 1.0)
    return 0.5 * norm2(near - far)


def _stereo_circle(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Centre, unit normal and radius of the R^3 circle a fiber projects to.

    The fiber's points nearest to and farthest from the pole land at the
    two ends of a diameter: the reflection of R^4 that fixes the pole and
    maps the fiber to itself fixes exactly those two points.  So centre and
    radius come from them alone, which stays accurate when the circle is
    large.  The point a quarter turn after the nearest one fixes the plane;
    taking the three in order of increasing theta makes the normal follow
    the fiber's direction of travel by the right-hand rule.
    """
    near, quarter, far = _diameter_ends(h, 0.0, 0.5, 1.0)
    centre = 0.5 * (near + far)
    # the cross product (near - centre) x (quarter - centre), written out:
    # np.cross costs far more than this on a single pair of 3-vectors
    (a0, a1, a2), (b0, b1, b2) = (near - centre).tolist(), (quarter - centre).tolist()
    normal = np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    return centre, normal / norm2(normal), 0.5 * norm2(near - far)


def _fiber_separation(hp: np.ndarray, hq: np.ndarray) -> float:
    # sqrt(2 - 2 |<hp, hq>|) for unit vectors of C^2, rewritten through
    # |det|^2 = 1 - |<hp, hq>|^2 so that close fibers lose no digits.
    det = abs(hp[0] * hq[1] - hp[1] * hq[0])
    return det * math.sqrt(2.0 / (1.0 + math.sqrt(max(0.0, 1.0 - det * det))))


def linking_number(
    p: ProjPoint, q: ProjPoint, m: int, tol: Tolerance = DEFAULT_TOLERANCE
) -> int:
    """Linking number of the fibers over two distinct CP^1 points.

    Under stereographic projection both fibers are round circles in R^3.
    The fiber over ``p`` bounds a flat disk, found in closed form; the
    fiber over ``q`` is sampled as an m-gon, and the result is the signed
    number of its edges that pass through that disk, with the sign taken
    from the direction of travel of the ``p`` fiber by the right-hand rule.
    A vertex lying on the disk's plane is counted once (half-open rule).
    The cost is O(m) time and memory, and the answer is exact, never a
    rounded integral.

    The count is guarded: the fibers are sep = sqrt(2 - 2 |<h_p, h_q>|)
    apart in S^3 and, since inverse stereographic projection stretches
    lengths by at most 2, at least sep / 2 apart in R^3, while an m-gon
    strays from its circle of radius r by at most the sagitta
    r (1 - cos(pi / m)).  With r the larger of the two radii, so that the
    guard is symmetric in ``p`` and ``q``, :class:`Unresolved` is raised
    when sep / 2 <= 4 r (1 - cos(pi / m)); a larger ``m`` resolves closer
    fibers.  :func:`linking_integral` computes the same number as a Gauss
    integral for cross-checking.
    """
    hp, hq = _linked_pair(p, q, m, tol)
    centre, normal, radius = _stereo_circle(hp)
    sep = _fiber_separation(hp, hq)
    # 4 r (1 - cos(pi / m)), written as 8 r sin^2(pi / 2m) to keep its digits
    bound = 8.0 * max(radius, _stereo_radius(hq)) * math.sin(0.5 * math.pi / m) ** 2
    if sep / 2.0 <= bound:
        raise Unresolved(
            f"fibers {sep:.3g} apart are too close for {m} samples: "
            f"sep / 2 must exceed 4 r (1 - cos(pi / m)) = {bound:.3g}"
        )

    verts = _stereo_fiber(hq, 2.0 * np.pi * np.arange(m) / m) - centre
    height = verts @ normal
    above = height >= 0.0
    start = np.flatnonzero(above != np.roll(above, -1))
    stop = (start + 1) % m
    t = height[start] / (height[start] - height[stop])
    hits = verts[start] + t[:, None] * (verts[stop] - verts[start])
    # hits lie in the plane, so |hit| is the distance from the centre within it;
    # an edge ending above the plane passes along the normal and counts +1
    inside = np.einsum("ij,ij->i", hits, hits) < radius * radius
    return int(np.sum(np.where(above[stop], 1, -1)[inside]))


# --- CP^1 as the extended plane and the 2-sphere ------------------------


def cp1_affine(p: ProjPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> ExtendedComplex:
    """Affine coordinate z = h1/h2 of a CP^1 point; inf when |h2| <= eps on
    the unit representative, the one rule for inf on CP^1."""
    _require_cp1(p)
    if abs(p.h[1]) <= tol.eps_abs:
        return INFINITY
    return ExtendedComplex(complex(p.h[0] / p.h[1]))


def cp1_from_affine(z) -> ProjPoint:
    """CP^1 point with affine coordinate ``z``; inf maps to [1 : 0]."""
    ez = as_extended(z)
    if ez.is_infinity:
        vec = np.array([1.0, 0.0], dtype=np.complex128)
    elif abs(ez.z) <= 1.0:
        vec = np.array([ez.z, 1.0], dtype=np.complex128)
    else:  # the same line, scaled to stay well-conditioned for huge |z|
        vec = np.array([1.0, 1.0 / ez.z], dtype=np.complex128)
    return _point_of(vec)


def cp1_to_sphere(p: ProjPoint) -> np.ndarray:
    """Unit point of S^2 in R^3 identified with a CP^1 point.

    This is the inverse stereographic image of the affine coordinate,
    z -> (2 Re z, 2 Im z, |z|^2 - 1) / (|z|^2 + 1), written directly in
    homogeneous coordinates so that inf lands on the north pole
    (0, 0, 1) by the same formula.
    """
    _require_cp1(p)
    h1, h2 = complex(p.h[0]), complex(p.h[1])
    w = h1 * h2.conjugate()
    return np.array([2.0 * w.real, 2.0 * w.imag, abs(h1) ** 2 - abs(h2) ** 2])


def sphere_to_cp1(xyz) -> ProjPoint:
    """CP^1 point of a unit vector of R^3, the inverse of :func:`cp1_to_sphere`.

    The vector (x, y, z), rescaled onto the sphere, is the line
    [x + iy : 1 - z] = [1 + z : x - iy], as x^2 + y^2 = (1 - z)(1 + z); the
    second form is taken when z >= 0, so that no entry cancels.  No
    tolerance is read, and the north pole maps to [1 : 0].
    """
    v = as_vector(xyz, REAL)
    if v.shape[0] != 3:
        raise DimensionMismatch(f"expected 3 coordinates, got {v.shape[0]}")
    nrm = norm2(v)
    if abs(nrm - 1.0) > 1e-6:
        raise InvalidInput(f"expected a unit vector of R^3, got norm {nrm!r}")
    x, y, z = v / nrm
    pair = (1.0 + z, complex(x, -y)) if z >= 0.0 else (complex(x, y), 1.0 - z)
    return _point_of(np.array(pair, dtype=np.complex128))


# --- Mobius transformations ---------------------------------------------


def mobius_apply(a, b, c, d, z, tol: Tolerance = DEFAULT_TOLERANCE) -> ExtendedComplex:
    """Evaluate z -> (a z + b) / (c z + d) on C u {inf}.

    The matrix [[a, b], [c, d]] sends the line [z : 1] to [num : den] =
    [a z + b : c z + d], or [a : c] when z is inf.  The value is inf when
    |den| <= eps |(num, den)|, the rule of :func:`cp1_affine`, so the two
    agree at every eps.  For |z| > 1 the pair is divided by z first, as
    :func:`cp1_from_affine` scales the line, so that no product overflows.
    """
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    if abs(a * d - b * c) <= tol.eps_abs:
        raise SingularCoefficients("need a d - b c != 0")
    ez = as_extended(z)
    if ez.is_infinity or abs(ez.z) > 1.0:
        w = 0.0 if ez.is_infinity else 1.0 / ez.z
        num, den = a + b * w, c + d * w
    else:
        num, den = a * ez.z + b, c * ez.z + d
    if abs(den) <= tol.eps_abs * math.hypot(abs(num), abs(den)):
        return INFINITY
    return ExtendedComplex(num / den)


def mobius_matches_projective(
    a, b, c, d, samples: int, tol: Tolerance = DEFAULT_TOLERANCE,
    rng: np.random.Generator | None = None,
) -> bool:
    """Check the Mobius form against the projective action on CP^1.

    Routes ``samples`` random affine values (plus 0, inf, and the pole
    -d/c when it exists) through the matrix [[a, b], [c, d]] acting on
    CP^1 and compares with the direct formula; True when every value
    agrees within 1e-9, with inf matching only inf.
    """
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    if abs(a * d - b * c) <= tol.eps_abs:
        raise SingularCoefficients("need a d - b c != 0")
    if rng is None:
        rng = np.random.default_rng(0)
    t = map_from_matrix(np.array([[a, b], [c, d]]), tol, field=COMPLEX)

    zs: list[ExtendedComplex] = [ExtendedComplex(0j), INFINITY]
    if abs(c) > tol.eps_abs:
        zs.append(ExtendedComplex(-d / c))
    for _ in range(samples):
        zs.append(ExtendedComplex(complex(rng.standard_normal(), rng.standard_normal())))

    for z in zs:
        direct = mobius_apply(a, b, c, d, z, tol)
        via_cp1 = cp1_affine(apply_map(t, cp1_from_affine(z)), tol)
        if not extended_equal(direct, via_cp1, 1e-9):
            return False
    return True
