"""Real and complex projective spaces in numerical coordinates.

A point of RP^n or CP^n is a line through the origin of F^{n+1}.  Points
are stored by a canonical representative of that line: the unit vector
whose pivot coordinate is real and strictly positive, the pivot being
the entry of largest modulus (smallest index wins near-ties).  Invertible
matrices
act on lines and so descend to projective maps; two matrices act
identically exactly when they differ by a nonzero scalar, so maps are
stored at unit Frobenius norm with the same pivot convention.  Canonical
forms turn equality of points and maps into coordinatewise comparison.

The affine chart with index j identifies F^n with the set of lines
meeting the affine hyperplane {x : x_j = 1}; the n+1 coordinate charts
cover the whole space, and chart j misses exactly the projectivized
hyperplane {x_j = 0}.
"""

import math
from dataclasses import dataclass

import numpy as np

from projgeo import numerics
from projgeo.errors import (
    DimensionMismatch,
    FieldMismatch,
    IllConditioned,
    InvalidRange,
    NotCanonical,
    ZeroVector,
)
from projgeo.numerics import (
    COMPLEX,
    DEFAULT_TOLERANCE,
    REAL,
    Tolerance,
    as_matrix,
    as_vector,
    dtype_for,
    field_of,
)


_NORMAL_MIN = np.finfo(np.float64).tiny


def _pivot_index(values: np.ndarray, eps: float) -> int:
    """Index of the largest-modulus entry, smallest index on near-ties."""
    mods = np.abs(values)
    return int((mods >= mods[mods.argmax()] - eps).argmax())


def _canonical(values: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The unit multiple of a nonzero array, flattened row-major, whose
    pivot entry is real and positive.

    This is the one check of a representative that projgeo makes itself:
    the result is tested here, at the pivot just chosen, against the
    bounds of the ProjPoint and ProjMap constructors.
    """
    nrm = numerics.norm2(values)
    if nrm <= tol.eps_abs:
        raise ZeroVector("cannot projectivize the zero vector")
    if not _NORMAL_MIN <= nrm < math.inf:  # a power of two rescales exactly
        return _canonical(values * (2.0 ** -64 if nrm > 1.0 else 2.0 ** 64), tol)
    u = (values / nrm).ravel()
    k = _pivot_index(u, tol.eps_abs)
    a = u[k]
    if u.dtype.kind == "c":
        r = u * (abs(a) / a)
    else:
        r = u if a > 0 else -u
    deviation, top = abs(math.sqrt(np.vdot(r, r).real) - 1.0), r[k]
    if deviation > 1e-12 or not (top.real > 0.0 and abs(top.imag) <= 1e-12):
        raise NotCanonical(
            f"representative off canonical form: |norm - 1| = {deviation:.3g}, "
            f"pivot {complex(top):.3g} at index {k} (bounds 1e-12)"
        )
    return r


def _trusted(cls, arr: np.ndarray, n: int, name: str):
    """A ProjPoint or ProjMap around a representative that :func:`_canonical`
    has just made and checked: set read-only, neither copied nor checked again."""
    arr.setflags(write=False)
    obj = object.__new__(cls)
    object.__setattr__(obj, "field", COMPLEX if arr.dtype.kind == "c" else REAL)
    object.__setattr__(obj, "n", n)
    object.__setattr__(obj, name, arr)
    return obj


def _frozen_canonical(values, field: str, shape: tuple, expected: str) -> np.ndarray:
    """Read-only copy of a representative that :func:`_canonical` yields at
    some eps > 0: unit norm, and some entry (row-major) real and positive
    and larger in modulus than every entry before it."""
    arr = np.array(values, dtype=dtype_for(field))
    if arr.shape != shape:
        raise DimensionMismatch(f"expected {expected}, got shape {arr.shape}")
    matrix = arr.ndim == 2
    flat = arr.ravel()
    mods = np.abs(flat)
    if abs(math.sqrt(mods @ mods) - 1.0) > 1e-12:
        norm = "Frobenius norm" if matrix else "norm"
        raise ValueError(f"canonical representative must have unit {norm}")
    top = complex(flat[mods.argmax()])  # the first largest entry, the usual pivot
    if not (top.real > 0.0 and abs(top.imag) <= 1e-12):
        ok = (flat.real > 0.0) & (np.abs(flat.imag) <= 1e-12)
        ok[1:] &= mods[1:] > np.maximum.accumulate(mods)[:-1]
        if not ok.any():
            what = "entry" if matrix else "coordinate"
            raise ValueError(f"pivot {what} must be real and positive")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ProjPoint:
    """A point of RP^n (field "real") or CP^n (field "complex").

    ``h`` holds the canonical unit representative of the underlying
    line.  Build instances with :func:`point_from_vector`; comparing two
    points is :func:`points_equal`.
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


@dataclass(frozen=True, eq=False)
class ProjSubspace:
    """A projective subspace P(L), stored by an orthonormal basis of L.

    ``basis`` is (n+1) x (l+1) where l is the projective dimension; the
    hyperplane case is l = n - 1.
    """

    field: str
    n: int
    basis: np.ndarray

    def __post_init__(self):
        arr = np.array(self.basis, dtype=dtype_for(self.field))
        if arr.ndim != 2 or arr.shape[0] != self.n + 1:
            raise DimensionMismatch(
                f"expected basis with {self.n + 1} rows, got shape {arr.shape}"
            )
        if not 1 <= arr.shape[1] <= self.n:
            raise InvalidRange("projective dimension must satisfy 0 <= l < n")
        gram = arr.conj().T @ arr
        if np.max(np.abs(gram - np.eye(arr.shape[1]))) > 1e-10:
            raise ValueError("basis columns must be orthonormal")
        arr.setflags(write=False)
        object.__setattr__(self, "basis", arr)

    @property
    def l(self) -> int:
        """Projective dimension of the subspace."""
        return self.basis.shape[1] - 1


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
    return _point_of(as_vector(v, field), tol)


def _point_of(v: np.ndarray, tol: Tolerance) -> ProjPoint:
    """Point on the line of a finite float64 or complex128 vector that
    projgeo made itself, so needs no coercion."""
    h = _canonical(v, tol)
    return _trusted(ProjPoint, h, h.shape[0] - 1, "h")


def points_equal(p: ProjPoint, q: ProjPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Whether two points are the same line, i.e. scalar multiples."""
    _same_space(p, q)
    return bool(np.max(np.abs(p.h - q.h)) < tol.eps_abs)


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
    IllConditioned
        If the condition estimate exceeds ``tol.cond_max``.
    """
    a = as_matrix(A, field)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"projective maps need square matrices, got {a.shape}")
    numerics.require_conditioned(a, tol)
    return _map_class(a, tol)


def _map_class(a: np.ndarray, tol: Tolerance) -> ProjMap:
    """Class of a square matrix, unguarded: for inverses of guarded matrices
    (cond(A^-1) = cond(A)) and for unitaries built here."""
    return _trusted(ProjMap, _canonical(a, tol).reshape(a.shape), a.shape[0] - 1, "M")


def maps_equal(t1: ProjMap, t2: ProjMap, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Whether two maps coincide as transformations (scalar classes agree)."""
    _same_space(t1, t2)
    return bool(np.max(np.abs(t1.M - t2.M)) < tol.eps_abs)


def apply_map(t: ProjMap, p: ProjPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> ProjPoint:
    """Image of a point under a projective map."""
    _same_space(t, p)
    return _point_of(t.M @ p.h, tol)


def compose(t1: ProjMap, t2: ProjMap, tol: Tolerance = DEFAULT_TOLERANCE) -> ProjMap:
    """Composite map: apply ``t2`` first, then ``t1``."""
    _same_space(t1, t2)
    a = t1.M @ t2.M
    numerics.require_conditioned(a, tol)
    return _map_class(a, tol)


def inverse_map(t: ProjMap, tol: Tolerance = DEFAULT_TOLERANCE) -> ProjMap:
    """Inverse transformation, the class of the inverse matrix."""
    return _map_class(numerics.invert(t.M, tol), tol)


def identity_map(n: int, field: str = REAL, tol: Tolerance = DEFAULT_TOLERANCE) -> ProjMap:
    """The identity transformation of an n-dimensional projective space."""
    return _map_class(np.eye(n + 1, dtype=dtype_for(field)), tol)


def group_dimension(n: int, field: str = REAL) -> int:
    """Dimension of the projective linear group acting on P^n.

    The count is (n+1)^2 - 1, read as a real dimension over R and as a
    complex dimension over C.
    """
    if n < 1:
        raise InvalidRange("projective dimension must be at least 1")
    return (n + 1) ** 2 - 1


def chart_embed(
    c: AffineChart,
    w,
    tol: Tolerance = DEFAULT_TOLERANCE,
    field: str | None = None,
) -> ProjPoint:
    """Point of the chart with affine coordinates ``w`` in F^n.

    The homogeneous vector carries ``w`` in the positions other than j
    (ambient order preserved) and 1 in position j; the map is injective.
    """
    wv = as_vector(w, field)
    if wv.shape[0] != c.n:
        raise DimensionMismatch(f"chart expects {c.n} affine coordinates")
    return _point_of(np.concatenate((wv[: c.j - 1], [1.0], wv[c.j - 1 :])), tol)


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


def chart_cover(p: ProjPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> AffineChart:
    """A chart guaranteed to contain ``p``.

    Returns the chart of the pivot coordinate; a unit vector in n+1
    coordinates has max modulus at least 1/sqrt(n+1), so the extracted
    coordinates are always well-scaled.
    """
    return AffineChart(p.n, _pivot_index(p.h, tol.eps_abs) + 1)


def chart_transition(
    c1: AffineChart,
    c2: AffineChart,
    w,
    tol: Tolerance = DEFAULT_TOLERANCE,
    field: str | None = None,
) -> np.ndarray | None:
    """Coordinates in ``c2`` of the point with coordinates ``w`` in ``c1``.

    None when the embedded point lies on the missing locus of ``c2``.
    """
    if c1.n != c2.n:
        raise DimensionMismatch(f"mixed dimensions: {c1.n} vs {c2.n}")
    return chart_extract(c2, chart_embed(c1, w, tol, field), tol)


def missing_locus(c: AffineChart, field: str = REAL) -> ProjSubspace:
    """The projectivized hyperplane {h_j = 0} not covered by the chart.

    Its projective dimension is n - 1.
    """
    basis = np.delete(np.eye(c.n + 1, dtype=dtype_for(field)), c.j - 1, axis=1)
    return ProjSubspace(field, c.n, basis)


def proj_subspace_from_span(
    columns, tol: Tolerance = DEFAULT_TOLERANCE, field: str | None = None
) -> ProjSubspace:
    """P(L) for the span L of the given matrix columns in F^{n+1}."""
    mat = as_matrix(columns, field)
    q = numerics.orthonormalize(mat, tol)
    if q.shape[1] > mat.shape[0] - 1:
        raise InvalidRange("span is the whole ambient space, not a projective subspace")
    return ProjSubspace(field_of(q), mat.shape[0] - 1, q)


def point_membership(
    p: ProjPoint, s: ProjSubspace, tol: Tolerance = DEFAULT_TOLERANCE
) -> bool:
    """Whether the line of ``p`` lies inside the subspace."""
    _same_space(p, s)
    return numerics.in_span(p.h, s.basis, tol)


def subspace_image(
    t: ProjMap, s: ProjSubspace, tol: Tolerance = DEFAULT_TOLERANCE
) -> ProjSubspace:
    """Image P(M(L)) of a projective subspace under a projective map."""
    _same_space(t, s)
    q = numerics.orthonormalize(t.M @ s.basis, tol)
    if q.shape[1] != s.basis.shape[1]:
        raise IllConditioned("image dropped rank numerically")
    return ProjSubspace(s.field, s.n, q)


def transitive_witness(
    p: ProjPoint, q: ProjPoint, tol: Tolerance = DEFAULT_TOLERANCE
) -> ProjMap:
    """A projective map sending ``p`` to ``q``.

    Completes each representative to a unitary matrix whose first column
    it is, and returns the class of U_q U_p^H, a unitary and hence
    perfectly conditioned witness.
    """
    _same_space(p, q)
    up = _complete_to_unitary(p.h)
    uq = _complete_to_unitary(q.h)
    return _map_class(uq @ up.conj().T, tol)


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
