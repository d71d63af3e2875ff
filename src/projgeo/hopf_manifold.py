"""Quotients of F^n minus the origin by the integer powers of a scalar.

Fix a scalar lam with |lam| > 1 (default 2) and identify two nonzero
vectors whenever one is lam^m times the other for some integer m.  Each
class contains exactly one representative with norm in the half-open
window [1, |lam|), which makes class equality a coordinatewise
comparison of representatives.  For complex lam the action rotates by
lam's phase at every power, not just by |lam|.

Unlike the projective quotient, generic scalars are not identified:
over R with lam = 2 the vectors v and -v land in different classes even
though they span the same line.  The class map therefore only factors
through (rather than onto) the projection to projective space of
dimension n - 1, and every invertible linear map descends to the
quotient compatibly with that projection.
"""

import math
from dataclasses import dataclass

import numpy as np

from projgeo.errors import DimensionMismatch, FieldMismatch, NotCanonical, ZeroVector
from projgeo.numerics import (
    COMPLEX,
    DEFAULT_TOLERANCE,
    REAL,
    Tolerance,
    as_matrix,
    as_vector,
    field_of,
    in_span,
    norm2,
    require_conditioned,
)
from projgeo.projective import ProjPoint, _point_of

# Norms within this relative slack of the window's upper edge |lam| are
# treated as sitting on the boundary and snapped to the lower edge 1.
_EDGE_SLACK = 1e-12

# A power lam^m with |m| log|lam| beyond this is applied in two halves, so
# that neither factor leaves the range of doubles.
_ONE_STEP_LOG = 600.0


@dataclass(frozen=True)
class ScaleGroup:
    """The multiplicative group {lam^m : m integer} for |lam| > 1."""

    lam: complex | float = 2.0

    def __post_init__(self):
        val = complex(self.lam)
        if not (math.isfinite(val.real) and math.isfinite(val.imag)):
            raise ValueError("scale must be finite")
        if abs(val) < 1.0 + 1e-9:  # a fixed domain bound, not a comparison at eps
            raise ValueError("scale must have absolute value larger than 1")
        # store a real scale as a plain float so real vectors stay real
        object.__setattr__(self, "lam", float(val.real) if val.imag == 0.0 else val)

    @property
    def abs_scale(self) -> float:
        return abs(self.lam)

    @property
    def is_real(self) -> bool:
        return not isinstance(self.lam, complex)

    def power(self, m: int, field: str):
        """lam^m as a scalar of the given field."""
        if field == REAL and not self.is_real:
            raise FieldMismatch("a complex scale does not act on real vectors")
        return self.lam ** m


@dataclass(frozen=True, eq=False)
class HopfPoint:
    """An equivalence class, held by its norm-windowed representative."""

    group: ScaleGroup
    rep: np.ndarray

    def __post_init__(self):
        arr = np.array(self.rep)
        if arr.ndim != 1:
            raise DimensionMismatch(f"expected a vector, got shape {arr.shape}")
        if not _in_window(norm2(arr), self.group):
            raise ValueError("representative norm must lie in [1, |lam|)")
        arr.setflags(write=False)
        object.__setattr__(self, "rep", arr)

    @property
    def field(self) -> str:
        return field_of(self.rep)

    @property
    def n(self) -> int:
        return self.rep.shape[0]


def quotient_project(
    v,
    group: ScaleGroup = ScaleGroup(),
    tol: Tolerance = DEFAULT_TOLERANCE,
    field: str | None = None,
) -> HopfPoint:
    """Class of a nonzero vector, by its norm-windowed representative.

    The representative is lam^{-m} v for the unique integer m that puts
    the norm in [1, |lam|); norms landing on the window edge within
    roundoff resolve toward the lower endpoint.  Projecting a
    representative again returns it bit for bit.
    """
    return _project(as_vector(v, field), group, tol)


def _in_window(nrm: float, group: ScaleGroup) -> bool:
    return 1.0 - 1e-9 <= nrm < group.abs_scale * (1.0 + 1e-9)


def _project(vec: np.ndarray, group: ScaleGroup, tol: Tolerance) -> HopfPoint:
    """:func:`quotient_project` of a finite float64 or complex128 vector.

    The representative is checked here, once, against the window of the
    HopfPoint constructor, and held without a copy.
    """
    lam = group.lam
    if vec.dtype.kind != "c" and not group.is_real:
        raise FieldMismatch("a complex scale does not act on real vectors")
    nrm = norm2(vec)
    if nrm <= tol.eps_abs:
        raise ZeroVector("cannot project the zero vector")
    if nrm < math.inf:
        log_nrm = math.log(nrm)
    else:  # the norm passes the largest double; take its log from a scaled copy
        log_nrm = math.log(norm2(vec * 2.0 ** -64)) + 64.0 * math.log(2.0)
    a = abs(lam)
    log_a = math.log(a)
    m = math.floor(log_nrm / log_a)
    rep = _scaled(vec, lam, -m, log_a)
    rep_nrm = norm2(rep)
    if rep_nrm >= a * (1.0 - _EDGE_SLACK):
        m += 1
        rep = _scaled(vec, lam, -m, log_a)
        rep_nrm = norm2(rep)
    if not _in_window(rep_nrm, group):
        raise NotCanonical(
            f"representative norm {rep_nrm:.17g} outside the window [1, {a:.17g})"
        )
    rep.setflags(write=False)
    point = object.__new__(HopfPoint)
    object.__setattr__(point, "group", group)
    object.__setattr__(point, "rep", rep)
    return point


def _scaled(vec: np.ndarray, lam, m: int, log_a: float) -> np.ndarray:
    """vec times lam^m, as a new array; log_a is log |lam|."""
    if m == 0:
        return vec.copy()
    if abs(m) * log_a <= _ONE_STEP_LOG:
        return vec * lam ** m
    half = m // 2
    return vec * lam ** (m - half) * lam ** half


def hopf_points_equal(
    v,
    w,
    group: ScaleGroup = ScaleGroup(),
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> bool:
    """Whether two nonzero vectors differ by an integer power of lam.

    For complex lam each power also rotates by lam's phase, so e.g.
    v and -v are *not* identified unless some lam^m equals -1.
    """
    vv = as_vector(v)
    wv = as_vector(w)
    if vv.shape[0] != wv.shape[0]:
        raise DimensionMismatch(f"mixed dimensions: {vv.shape[0]} vs {wv.shape[0]}")
    if field_of(vv) != field_of(wv):
        common = COMPLEX
        vv = as_vector(vv, common)
        wv = as_vector(wv, common)
    ra = _project(vv, group, tol).rep
    rb = _project(wv, group, tol).rep
    return bool(np.max(np.abs(ra - rb)) < tol.eps_abs)


def to_projective(point: HopfPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> ProjPoint:
    """Project a class to the corresponding point of P^{n-1}.

    Constant on classes: scaling by lam^m does not move the line, so the
    quotient projection factors through this map.
    """
    return _point_of(point.rep, tol)


def induced_linear(
    g, point: HopfPoint, tol: Tolerance = DEFAULT_TOLERANCE
) -> HopfPoint:
    """Class of G applied to the representative.

    Well-defined because linear maps commute with scalar multiplication;
    the result does not depend on which class member was stored.
    """
    gm = as_matrix(g, point.field)
    if gm.shape != (point.n, point.n):
        raise DimensionMismatch(f"expected a {point.n}x{point.n} matrix, got {gm.shape}")
    require_conditioned(gm, tol)
    return _project(gm @ point.rep, point.group, tol)


def subspace_trace_membership(point: HopfPoint, s, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Whether the class meets the trace of a linear subspace of F^n.

    Subspaces are invariant under scalar multiplication, so membership
    is a property of the class, tested on the representative.
    """
    if s.n != point.n:
        raise DimensionMismatch(f"mixed dimensions: {s.n} vs {point.n}")
    if s.field != point.field:
        raise FieldMismatch(f"mixed fields: {s.field} vs {point.field}")
    return in_span(point.rep, s.basis, tol)
