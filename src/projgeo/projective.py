"""Real and complex projective spaces in numerical coordinates.

A point of RP^n or CP^n is a line through the origin of F^{n+1}.  Points
are stored by a canonical representative of that line: the unit vector
whose pivot coordinate is real and strictly positive, the pivot being the
first entry within 1e-12 of the largest modulus, whatever the eps.  Maps
are stored at unit Frobenius norm with the same pivot convention: two
invertible matrices act identically on lines exactly when they differ by a
nonzero scalar.  One check, :func:`_check_canonical`, tests both, for the
builders and the constructors.

The representative is only how a class is stored and printed: no choice
of one can depend continuously on the line (the Hopf bundle has no global
section), so within roundoff of a pivot tie a line can have two of them.
Equality is therefore a class distance, :func:`point_distance` and
:func:`map_distance`, which gives the same value for every representative.

The affine chart with index j identifies F^n with the set of lines
meeting the affine hyperplane {x : x_j = 1}; the n+1 coordinate charts
cover the whole space, and chart j misses exactly the projectivized
hyperplane {x_j = 0}, :func:`projgeo.grassmann.missing_locus`.
"""

import math
from dataclasses import dataclass

import numpy as np

from projgeo import numerics
from projgeo.errors import (
    DimensionMismatch,
    FieldMismatch,
    InvalidRange,
    NotCanonical,
)
from projgeo.numerics import (
    COMPLEX,
    DEFAULT_TOLERANCE,
    REAL,
    Tolerance,
    as_vector,
    dtype_for,
)


def _pivot_index(values: np.ndarray) -> int:
    """Index of the first entry within 1e-12 of the largest modulus; no eps."""
    mods = np.abs(values)
    return int((mods >= mods.max() - 1e-12).argmax())


def _canonical(values: np.ndarray, zero: float) -> np.ndarray:
    """The unit multiple of a nonzero array, flattened row-major and set
    read-only, whose pivot entry is real and positive.

    A norm at or below ``zero`` raises ZeroVector: eps for user input, 0.0
    for arrays that cannot vanish, such as images under guarded maps.
    The result passes :func:`_check_canonical` at the pivot just chosen.
    """
    u = numerics._unit(values, zero, "projectivize").ravel()
    k = _pivot_index(u)
    a = u[k]
    if u.dtype.kind == "c":
        r = u * (abs(a) / a)
    else:
        r = u if a > 0 else -u
    _check_canonical(r, k, values.ndim == 2)
    r.setflags(write=False)
    return r


def _real_positive(x):
    """Whether an entry, or each entry of an array, is real and positive."""
    return (x.real > 0.0) & (abs(x.imag) <= 1e-12)


def _check_canonical(flat: np.ndarray, k: int, matrix: bool) -> None:
    """The one test of a canonical representative, flattened row-major, at
    its pivot index ``k``: unit norm, and a real positive pivot, each to
    1e-12.  A NaN entry fails it."""
    deviation, top = abs(math.sqrt(np.vdot(flat, flat).real) - 1.0), complex(flat[k])
    if deviation <= 1e-12 and _real_positive(top):
        return
    what = (f"pivot {'entry' if matrix else 'coordinate'} must be real and positive"
            if deviation <= 1e-12 else "canonical representative must have unit norm")
    raise NotCanonical(f"{what}: |norm - 1| = {deviation:.3g}, pivot {top:.3g} "
                       f"at index {k} (bounds 1e-12)")


def _made(cls, **fields):
    """A frozen ``cls`` holding ``fields``, made without its __post_init__:
    for arrays that projgeo has just built and that its caller checks."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _frozen_canonical(values, field: str, shape: tuple, expected: str) -> np.ndarray:
    """Read-only copy of a representative that :func:`_canonical` yields, tested
    at the first real positive entry (row-major) within 2e-12 of the largest
    modulus (the pivot band plus the roundoff of the phase), else the largest."""
    arr = np.array(values, dtype=dtype_for(field))
    if arr.shape != shape:
        raise DimensionMismatch(f"expected {expected}, got shape {arr.shape}")
    flat = arr.ravel()
    mods = abs(flat)
    ok = _real_positive(flat) & (mods >= mods.max() - 2e-12)
    k = int(ok.argmax()) if ok.any() else int(mods.argmax())
    _check_canonical(flat, k, arr.ndim == 2)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ProjPoint:
    """A point of RP^n (field "real") or CP^n (field "complex").

    ``h`` holds the canonical unit representative of the underlying
    line.  Build instances with :func:`point_from_vector`; two points are
    compared by :func:`point_distance`, not by their representatives.
    """

    field: str
    n: int
    h: np.ndarray

    def __post_init__(self):
        arr = _frozen_canonical(
            self.h, self.field, (self.n + 1,), f"{self.n + 1} homogeneous coordinates"
        )
        object.__setattr__(self, "h", arr)


@dataclass(frozen=True, eq=False)
class ProjMap:
    """A projective linear transformation of RP^n or CP^n.

    ``M`` is the canonical representative of its scalar class: unit
    Frobenius norm, pivot entry (row-major order) real and positive.
    """

    field: str
    n: int
    M: np.ndarray

    def __post_init__(self):
        d = self.n + 1
        arr = _frozen_canonical(self.M, self.field, (d, d), f"a {d}x{d} matrix")
        object.__setattr__(self, "M", arr)


@dataclass(frozen=True)
class AffineChart:
    """The j-th coordinate affine chart of an n-dimensional projective space.

    It embeds F^n as the lines through the affine hyperplane {x_j = 1};
    indices run over j = 1, ..., n+1.
    """

    n: int
    j: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidRange("projective dimension must be at least 1")
        if not 1 <= self.j <= self.n + 1:
            raise InvalidRange(f"chart index must lie in 1..{self.n + 1}")


def _same_space(a, b) -> None:
    if a.field != b.field:
        raise FieldMismatch(f"mixed fields: {a.field} vs {b.field}")
    if a.n != b.n:
        raise DimensionMismatch(f"mixed dimensions: {a.n} vs {b.n}")


def point_from_vector(
    v, tol: Tolerance = DEFAULT_TOLERANCE, field: str | None = None
) -> ProjPoint:
    """Canonical point on the line through a nonzero vector of F^{n+1}.

    All nonzero scalar multiples of ``v`` produce the same canonical
    coordinates (up to roundoff well under 1e-12).
    """
    return _point_of(as_vector(v, field), tol.eps_abs)


def _point_of(v: np.ndarray, zero: float = 0.0) -> ProjPoint:
    """Point on the line of a finite float64 or complex128 vector, which
    needs no coercion.  By default only an exact zero is rejected: projgeo
    passes here vectors that cannot vanish, such as images under guarded maps."""
    h = _canonical(v, zero)
    return _made(ProjPoint, field=COMPLEX if h.dtype.kind == "c" else REAL, n=h.shape[0] - 1, h=h)


def _class_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entry of a - w b, with w the unit phase of <b, a> (its sign
    over R; 1 when <b, a> = 0) that turns b toward a.  For unit a and b it
    is the same for every unit representative of either class."""
    c = np.vdot(b, a)  # flattens matrices
    w = c / abs(c) if c != 0 else 1.0
    return float(np.max(np.abs(a - w * b)))


def point_distance(p: ProjPoint, q: ProjPoint) -> float:
    """Distance between the lines of two points: 0 for the same line,
    whichever representatives they hold.  Equality of points is this
    distance under eps."""
    _same_space(p, q)
    return _class_distance(p.h, q.h)


def points_equal(p: ProjPoint, q: ProjPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Whether two points are the same line, i.e. scalar multiples."""
    return point_distance(p, q) < tol.eps_abs


def map_from_matrix(
    A, tol: Tolerance = DEFAULT_TOLERANCE, field: str | None = None
) -> ProjMap:
    """Projective map induced by an invertible matrix.

    Parameters
    ----------
    A : array_like
        Invertible (n+1) x (n+1) matrix over R or C.  Matrices that
        differ by a nonzero scalar induce the same map and canonicalize
        to the same representative.
    tol : Tolerance
        Supplies the conditioning cap.

    Raises
    ------
    NotSquare
        If the matrix is not square; it is a DimensionMismatch.
    IllConditioned
        If the condition estimate exceeds ``tol.cond_max``.
    """
    return _map_class(numerics._invertible(A, tol, field), tol.eps_abs)


def _map_class(a: np.ndarray, zero: float = 0.0) -> ProjMap:
    """Class of a square matrix, unguarded: for inverses of guarded matrices
    (cond(A^-1) = cond(A)) and for unitaries built here.  By default only an
    exact zero is rejected, as in :func:`_point_of`."""
    m = _canonical(a, zero).reshape(a.shape)
    return _made(ProjMap, field=COMPLEX if m.dtype.kind == "c" else REAL, n=m.shape[0] - 1, M=m)


def map_distance(t1: ProjMap, t2: ProjMap) -> float:
    """Distance between the scalar classes of two maps, read on their unit
    Frobenius-norm matrices as :func:`point_distance` reads on vectors."""
    _same_space(t1, t2)
    return _class_distance(t1.M, t2.M)


def maps_equal(t1: ProjMap, t2: ProjMap, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Whether two maps coincide as transformations (scalar classes agree)."""
    return map_distance(t1, t2) < tol.eps_abs


def apply_map(t: ProjMap, p: ProjPoint) -> ProjPoint:
    """Image of a point under a projective map.

    T h is never zero, since T passed the conditioning guard, so only an
    exact zero is rejected.  Near the cap the image's direction is accurate
    to about cond(T) times the unit roundoff 2^-53.
    """
    _same_space(t, p)
    return _point_of(t.M @ p.h)


def compose(t1: ProjMap, t2: ProjMap, tol: Tolerance = DEFAULT_TOLERANCE) -> ProjMap:
    """Composite map: apply ``t2`` first, then ``t1``."""
    _same_space(t1, t2)
    return _map_class(numerics._invertible(t1.M @ t2.M, tol))


def inverse_map(t: ProjMap, tol: Tolerance = DEFAULT_TOLERANCE) -> ProjMap:
    """Inverse transformation, the class of the inverse matrix."""
    return _map_class(numerics.invert(t.M, tol))


def identity_map(n: int, field: str = REAL) -> ProjMap:
    """The identity transformation of an n-dimensional projective space."""
    return _map_class(np.eye(n + 1, dtype=dtype_for(field)))


def group_dimension(n: int, field: str = REAL) -> int:
    """Dimension of the projective linear group acting on P^n.

    The count is (n+1)^2 - 1, read as a real dimension over R and as a
    complex dimension over C.
    """
    if n < 1:
        raise InvalidRange("projective dimension must be at least 1")
    return (n + 1) ** 2 - 1


def chart_embed(c: AffineChart, w, field: str | None = None) -> ProjPoint:
    """Point of the chart with affine coordinates ``w`` in F^n.

    The homogeneous vector carries ``w`` in the positions other than j
    (ambient order preserved) and 1 in position j; the map is injective.
    """
    wv = as_vector(w, field)
    if wv.shape[0] != c.n:
        raise DimensionMismatch(f"chart expects {c.n} affine coordinates")
    return _point_of(np.concatenate((wv[: c.j - 1], [1.0], wv[c.j - 1 :])))


def chart_extract(
    c: AffineChart, p: ProjPoint, tol: Tolerance = DEFAULT_TOLERANCE
) -> np.ndarray | None:
    """Affine coordinates of ``p`` in the chart, or None off the chart.

    Points on the missing locus {h_j = 0} have no coordinates there;
    absence is a value, not an error.
    """
    if p.n != c.n:
        raise DimensionMismatch(f"mixed dimensions: {c.n} vs {p.n}")
    piv = p.h[c.j - 1]
    if abs(piv) <= tol.eps_abs:
        return None
    return np.delete(p.h, c.j - 1) / piv


def chart_cover(p: ProjPoint) -> AffineChart:
    """A chart guaranteed to contain ``p``.

    Returns the chart of the stored pivot coordinate, so no tolerance
    reaches it: a unit vector in n+1 coordinates has max modulus at least
    1/sqrt(n+1), and the pivot is within 1e-12 of it, so the extracted
    coordinates are always well-scaled.
    """
    return AffineChart(p.n, _pivot_index(p.h) + 1)


def chart_transition(
    c1: AffineChart, c2: AffineChart, w, tol: Tolerance = DEFAULT_TOLERANCE,
    field: str | None = None,
) -> np.ndarray | None:
    """Coordinates in ``c2`` of the point with coordinates ``w`` in ``c1``.

    None when the embedded point lies on the missing locus of ``c2``.
    """
    if c1.n != c2.n:
        raise DimensionMismatch(f"mixed dimensions: {c1.n} vs {c2.n}")
    return chart_extract(c2, chart_embed(c1, w, field), tol)


def transitive_witness(p: ProjPoint, q: ProjPoint) -> ProjMap:
    """A projective map sending ``p`` to ``q``.

    Completes each representative to a unitary matrix whose first column
    it is, and returns the class of U_q U_p^H, a unitary and hence
    perfectly conditioned witness.
    """
    _same_space(p, q)
    up = _complete_to_unitary(p.h)
    uq = _complete_to_unitary(q.h)
    return _map_class(uq @ up.conj().T)


def _complete_to_unitary(h: np.ndarray) -> np.ndarray:
    """A unitary matrix with the unit vector ``h`` as its first column.

    With phi the phase of h_0 (1 when h_0 = 0), the Householder reflection
    along v = conj(phi) h + e_1 maps e_1 to -conj(phi) h, and rescaling
    its first column by -phi gives h.  Since v^H v = 2 + 2 |h_0| >= 2 the
    reflection is well defined for every h, in closed form.
    """
    phase = h[0] / abs(h[0]) if h[0] != 0 else 1.0
    v = np.conj(phase) * h
    v[0] += 1.0
    u = np.eye(h.shape[0], dtype=h.dtype) - np.outer(v, v.conj()) * (2.0 / np.vdot(v, v).real)
    u[:, 0] = h
    return u
