"""Quotients of F^n minus the origin by the integer powers of a scalar.

Fix a scalar lam with |lam| > 1 (default 2) and identify two nonzero
vectors whenever one is lam^m times the other for some integer m.  Each
class contains exactly one representative with norm in the half-open
window [1, |lam|), which is how a class is stored and printed.  In floating
point the window is [1 - 1e-12, |lam| (1 - 1e-12)), still one factor of
|lam| wide: the set that :func:`quotient_project` returns and returns again
bit for bit, and the one test of :meth:`HopfPoint._hold`, for the
constructor and for the projection alike.  Class equality is one
distance, :func:`hopf_distance`, under eps.  For complex lam the action
rotates by lam's phase at every power, not just by |lam|.

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

from projgeo.errors import (
    DimensionMismatch, FieldMismatch, InvalidInput, InvalidRange, NotCanonical, ZeroVector
)
from projgeo.numerics import (
    COMPLEX,
    DEFAULT_TOLERANCE,
    REAL,
    Tolerance,
    _invertible,
    as_vector,
    dtype_for,
    field_of,
    in_span,
    norm2,
)
from projgeo.projective import ProjPoint, _made, _point_of, _same_space

# The held window is [_LOW, |lam| _LOW), exactly one factor of |lam| wide.  Its
# edges sit 1e-12 under 1 and under |lam|, so a norm that lands within roundoff
# of |lam| resolves toward the lower edge.
_LOW = 1.0 - 1e-12

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
            raise InvalidInput(f"scale must be finite, got {self.lam}")
        if abs(val) < 1.0 + 1e-9:  # a fixed domain bound, not a comparison at eps
            raise InvalidInput(f"scale must have absolute value larger than 1, got {self.lam}")
        # store a real scale as a plain float so real vectors stay real
        object.__setattr__(self, "lam", float(val.real) if val.imag == 0.0 else val)

    @property
    def abs_scale(self) -> float:
        return abs(self.lam)

    @property
    def is_real(self) -> bool:
        return not isinstance(self.lam, complex)

    def power(self, m: int, field: str):
        """lam^m as a scalar of the given field.

        Raises InvalidRange when lam^m overflows, or underflows to zero.
        """
        self._acts_on(field)
        try:
            value = self.lam ** m
        except OverflowError:  # a float power overflows by raising, a complex one to nan
            value = math.inf
        if not 0.0 < abs(value) < math.inf:
            raise InvalidRange(
                f"lam^m leaves the range of doubles at lam = {self.lam!r}, m = {m}"
            )
        return value

    def _acts_on(self, field: str) -> None:
        """Raise FieldMismatch when this group cannot act on vectors of ``field``."""
        if field == REAL and not self.is_real:
            raise FieldMismatch("a complex scale does not act on real vectors")


@dataclass(frozen=True, eq=False)
class HopfPoint:
    """An equivalence class, held by its norm-windowed representative."""

    group: ScaleGroup
    rep: np.ndarray

    def __post_init__(self):
        field = field_of(self.rep)
        self.group._acts_on(field)
        self._hold(np.array(self.rep, dtype=dtype_for(field)))

    def _hold(self, arr: np.ndarray, nrm: float | None = None) -> "HopfPoint":
        """Check a representative against the window and hold it read-only,
        without a copy; ``nrm`` is norm2(arr) when the caller has taken it."""
        if arr.ndim != 1:
            raise DimensionMismatch(f"expected a vector, got shape {arr.shape}")
        if nrm is None:
            nrm = norm2(arr)
        if not _LOW <= nrm < self.group.abs_scale * _LOW:
            raise NotCanonical(f"representative norm {nrm:.17g} outside the window "
                               f"[{_LOW!r}, {self.group.abs_scale * _LOW!r})")
        arr.setflags(write=False)
        object.__setattr__(self, "rep", arr)
        return self

    @property
    def field(self) -> str:
        return field_of(self.rep)

    @property
    def n(self) -> int:
        return self.rep.shape[0]


def quotient_project(v, group: ScaleGroup = ScaleGroup(), field: str | None = None) -> HopfPoint:
    """Class of a nonzero vector, by its norm-windowed representative.

    The representative is lam^{-m} v for the unique integer m that puts
    the norm in [1, |lam|); norms within 1e-12 of the upper edge resolve
    toward the lower one.  When the roundoff of lam^-m puts that norm just
    under the lower edge, a real factor within roundoff of 1 lifts it onto
    the edge.  A vector already in the window is its own representative, so
    projecting a representative returns it bit for bit.
    """
    return _project(as_vector(v, field), group)


def _project(vec: np.ndarray, group: ScaleGroup) -> HopfPoint:
    """:func:`quotient_project` of a finite float64 or complex128 vector.

    The representative is checked once, by the constructor's
    :meth:`HopfPoint._hold`, and held without a copy.
    """
    lam = group.lam
    group._acts_on(field_of(vec))
    nrm = norm2(vec)
    if nrm == 0.0:
        raise ZeroVector("cannot project the zero vector")
    a = abs(lam)
    if _LOW <= nrm < a * _LOW:  # a representative already: kept bit for bit
        return _made(HopfPoint, group=group)._hold(vec.copy(), nrm)
    if nrm < math.inf:
        log_nrm = math.log(nrm)
    else:  # the norm passes the largest double; take its log from a scaled copy
        log_nrm = math.log(norm2(vec * 2.0 ** -64)) + 64.0 * math.log(2.0)
    log_a = math.log(a)
    m = math.floor(log_nrm / log_a)
    rep = _scaled(vec, lam, -m, log_a)
    rep_nrm = norm2(rep)
    if rep_nrm >= a * _LOW:
        rep = _scaled(vec, lam, -m - 1, log_a)
        rep_nrm = norm2(rep)
    while 0.0 < rep_nrm < _LOW:  # the class sits on the edge within the roundoff of lam^k:
        rep = rep * (_LOW / rep_nrm + 2.0 ** -52)  # lift it onto the edge by a real factor
        rep_nrm = norm2(rep)
    return _made(HopfPoint, group=group)._hold(rep, rep_nrm)


def _scaled(vec: np.ndarray, lam, m: int, log_a: float) -> np.ndarray:
    """vec times lam^m, as a new array; log_a is log |lam|."""
    if m == 0:
        return vec.copy()
    if abs(m) * log_a <= _ONE_STEP_LOG:
        return vec * lam ** m
    half = m // 2
    return vec * lam ** (m - half) * lam ** half


def hopf_distance(a: HopfPoint, b: HopfPoint) -> float:
    """Distance between two classes of the same scale group: the largest
    entry of the difference of their window representatives.

    Here a representative is only rescaled by powers of lam, never turned
    by a free phase, so it is compared as it is: v and -v are different
    classes.
    """
    _same_space(a, b)
    if a.group != b.group:
        raise FieldMismatch(f"mixed scale groups: lam = {a.group.lam!r} vs {b.group.lam!r}")
    return float(np.max(np.abs(a.rep - b.rep)))


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
    if field_of(vv) != field_of(wv):
        common = COMPLEX
        vv = as_vector(vv, common)
        wv = as_vector(wv, common)
    return hopf_distance(_project(vv, group), _project(wv, group)) < tol.eps_abs


def to_projective(point: HopfPoint) -> ProjPoint:
    """Project a class to the corresponding point of P^{n-1}.

    Constant on classes: scaling by lam^m does not move the line, so the
    quotient projection factors through this map.
    """
    return _point_of(point.rep)


def induced_linear(g, point: HopfPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> HopfPoint:
    """Class of G applied to the representative.

    Well-defined because linear maps commute with scalar multiplication;
    the result does not depend on which class member was stored.  When G
    times the representative passes the largest double, G is applied to
    the smaller member lam^-k rep instead, with k chosen to keep it finite.
    """
    gm = _invertible(g, tol, point.field, point.n)
    rep, group = point.rep, point.group
    with np.errstate(over="ignore", invalid="ignore"):
        image = gm @ rep
        if not np.isfinite(image).all():  # each entry is at most sqrt(n) max|G_ij| |rep|
            log_a = math.log(group.abs_scale)
            big = np.max(np.abs(gm / np.finfo(np.float64).max)) * 4 * rep.size * norm2(rep)
            k = max(1, math.ceil(math.log(big) / log_a))
            image = gm @ _scaled(rep, group.lam, -k, log_a)
    return _project(image, group)


def subspace_trace_membership(point: HopfPoint, s, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Whether the class meets the trace of a linear subspace of F^n.

    Subspaces are invariant under scalar multiplication, so membership
    is a property of the class, tested on the representative.
    """
    _same_space(s, point)
    return in_span(point.rep, s.basis, tol)
