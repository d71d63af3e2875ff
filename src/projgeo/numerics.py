"""Dense linear algebra over the real and complex fields.

Vectors and matrices are plain numpy arrays: float64 carries the real
field, complex128 the complex one.  Everything here is a pure function
that never mutates its arguments; the canonical-form modules build on
these primitives.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from projgeo.errors import (
    DimensionMismatch,
    FieldMismatch,
    IllConditioned,
    InvalidInput,
    NotSquare,
    RankDeficientToZero,
    ShapeMismatch,
    ZeroVector,
)

REAL = "real"
COMPLEX = "complex"

_DTYPES = {REAL: np.float64, COMPLEX: np.complex128}


@dataclass(frozen=True)
class Tolerance:
    """Comparison threshold and conditioning cap.

    ``eps_abs`` is an absolute threshold; inputs are canonically
    normalized before any comparison, so unit scales make an absolute
    cutoff meaningful.  ``cond_max`` bounds the singular-value-ratio
    condition estimate accepted by inversion-like operations.
    """

    eps_abs: float = 1e-9
    cond_max: float = 1e12

    def __post_init__(self):
        if not 0.0 < self.eps_abs < math.inf:
            raise InvalidInput(f"eps_abs must be positive and finite, got {self.eps_abs!r}")
        if not 1.0 < self.cond_max < math.inf:
            raise InvalidInput(f"cond_max must be greater than 1 and finite, got {self.cond_max!r}")


DEFAULT_TOLERANCE = Tolerance()


def dtype_for(field: str) -> type:
    """Numpy dtype backing a field tag."""
    try:
        return _DTYPES[field]
    except KeyError:
        raise InvalidInput(f"unknown field {field!r}") from None


def field_of(a: np.ndarray) -> str:
    """Field tag of an array, read off its dtype."""
    return COMPLEX if np.iscomplexobj(a) else REAL


# Below this a sum of squares may have lost digits to underflow: each square
# under the smallest normal double is off by up to half a subnormal ulp.
_SUMSQ_MIN = np.finfo(np.float64).tiny / np.finfo(np.float64).eps
_NORMAL_MIN = np.finfo(np.float64).tiny

# norm2 tries the unscaled sum of squares first and rescales when it
# overflows, so numpy's overflow warnings from this module are expected;
# np.errstate around every sum would cost more than the sum itself.
warnings.filterwarnings("ignore", "overflow encountered", RuntimeWarning, __name__)


def norm2(x) -> float:
    """Euclidean norm of a vector, or Frobenius norm of a matrix, at any scale.

    While the sum of squares is finite and clear of underflow this does
    exactly the float operations of ``np.linalg.norm(x)``: ravel in
    memory order, ``x . x`` (``re . re + im . im`` over C), square root.
    Otherwise the entries are first divided by their largest real or
    imaginary part, in the manner of the BLAS ``nrm2`` (Blue, ACM TOMS 4,
    1978; Anderson, ACM TOMS 44, 2017), so the result is inf only when
    the norm itself passes the largest double.
    """
    flat = np.asarray(x).ravel(order="K")
    if flat.dtype.kind == "c":
        re, im = flat.real, flat.imag
        ssq = re.dot(re) + im.dot(im)
    else:
        if flat.dtype.kind != "f":
            flat = flat.astype(np.float64)
        ssq = flat.dot(flat)
    if _SUMSQ_MIN <= ssq < math.inf:
        return math.sqrt(ssq)
    parts = flat.view(flat.real.dtype)  # real and imaginary parts interleaved over C
    top = float(np.abs(parts).max(initial=0.0))
    if not 0.0 < top < math.inf:  # zero, or an inf or nan entry
        return top
    # divide the real parts: numpy's complex divide overflows at a subnormal top
    return top * norm2((parts / top).view(flat.dtype))


def _unit(x: np.ndarray, zero: float, verb: str) -> np.ndarray:
    """``x`` divided by its :func:`norm2`, at any finite scale; a norm at or
    below ``zero`` raises ZeroVector("cannot <verb> the zero vector")."""
    nrm = norm2(x)
    if nrm <= zero:
        raise ZeroVector(f"cannot {verb} the zero vector")
    if not _NORMAL_MIN <= nrm < math.inf:  # a power of two rescales exactly
        return _unit(x * (2.0 ** -64 if nrm > 1.0 else 2.0 ** 64), zero, verb)
    return x / nrm


def _coerce(arr: np.ndarray, field: str | None) -> np.ndarray:
    if field is None:
        field = field_of(arr)
    elif field == REAL and np.iscomplexobj(arr):
        raise FieldMismatch("complex entries cannot be coerced to the real field")
    out = np.asarray(arr, dtype=dtype_for(field))
    if not np.isfinite(out).all():
        raise InvalidInput(f"entries must be finite, got {out[~np.isfinite(out)].flat[0]}")
    return out


def as_vector(v, field: str | None = None) -> np.ndarray:
    """Coerce to a finite 1-d float64/complex128 array."""
    arr = _coerce(np.asarray(v), field)
    if arr.ndim != 1:
        raise ShapeMismatch(f"expected a vector, got shape {arr.shape}")
    return arr


def as_matrix(m, field: str | None = None) -> np.ndarray:
    """Coerce to a finite 2-d float64/complex128 array."""
    arr = _coerce(np.asarray(m), field)
    if arr.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got shape {arr.shape}")
    return arr


def _condition(a: np.ndarray, cap: float = math.inf) -> float:
    """Singular-value ratio of a coerced matrix, inf when singular; raises
    IllConditioned when it exceeds ``cap``."""
    s = np.linalg.svd(a, compute_uv=False)
    c = math.inf if s.size == 0 or s[-1] == 0.0 else float(s[0] / s[-1])
    if c > cap:
        raise IllConditioned(f"condition estimate {c:.3e} exceeds cap {cap:.3e}")
    return c


def cond_estimate(m) -> float:
    """Singular-value-ratio condition estimate; inf when singular."""
    return _condition(as_matrix(m))


def require_conditioned(a: np.ndarray, tol: Tolerance) -> None:
    """The conditioning cap alone: raise IllConditioned when the condition
    estimate of ``a`` exceeds ``tol.cond_max``."""
    _condition(as_matrix(a), tol.cond_max)


def _invertible(m, tol: Tolerance, field: str | None = None, size: int | None = None) -> np.ndarray:
    """The conditioning guard: the caller's matrix coerced once (over ``field``
    when given), square (NotSquare), ``size`` x ``size`` when given
    (DimensionMismatch) and within ``tol.cond_max``, returned coerced."""
    a = as_matrix(m, field)
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    if size is not None and a.shape[0] != size:
        raise DimensionMismatch(f"expected a {size}x{size} matrix, got {a.shape}")
    _condition(a, tol.cond_max)
    return a


def invert(m, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    """Matrix inverse, guarded by the conditioning cap."""
    return np.linalg.inv(_invertible(m, tol))


def orthonormalize(m, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    """Orthonormal basis of the column span of ``m``.

    Columns are processed in their given order (Gram-Schmidt with a
    second orthogonalization pass); a column is dropped once its
    residual falls under ``eps_abs`` times the largest input column
    norm.  The result Q satisfies Q^H Q = I and spans the same space
    as the input columns.
    """
    a = as_matrix(m)
    if a.shape[1] == 0:
        raise RankDeficientToZero("matrix has no columns")
    # the largest column norm: the same float operations as
    # np.linalg.norm(a, axis=0).max() while its square is in range
    top = float(np.add.reduce((a.conj() * a).real, axis=0).max())
    if _SUMSQ_MIN <= top < math.inf:
        scale = math.sqrt(top)
    else:
        scale = max(norm2(a[:, j]) for j in range(a.shape[1]))
    if scale <= tol.eps_abs:
        raise RankDeficientToZero("all columns are numerically zero")
    if scale == math.inf:  # a column norm past the largest double; the span is the same
        return orthonormalize(a * 2.0 ** -64, tol)
    cutoff = tol.eps_abs * scale
    basis: list[np.ndarray] = []
    for j in range(a.shape[1]):
        v = a[:, j].copy()
        for _ in range(2):  # second pass keeps Q^H Q = I near machine eps
            for q in basis:
                v = v - q * (q.conj() @ v)
        nv = norm2(v)
        if nv > cutoff:
            basis.append(v / nv)
    return np.column_stack(basis)


def kernel(m, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    """Orthonormal basis of the null space {x : m @ x = 0}.

    Singular values under ``eps_abs`` relative to the largest one count
    as zero.  The result may legitimately have zero columns.
    """
    a = as_matrix(m)
    _, s, vh = np.linalg.svd(a)
    if s.size and s[0] > 0.0:
        rank = int(np.count_nonzero(s > tol.eps_abs * s[0]))
    else:
        rank = 0
    return vh[rank:].conj().T


def projector_distance(b1: np.ndarray, b2: np.ndarray) -> float:
    """Frobenius distance between the orthogonal projectors of two
    orthonormal basis matrices (the basis-independent comparison)."""
    p1 = b1 @ b1.conj().T
    p2 = b2 @ b2.conj().T
    return norm2(p1 - p2)


def in_span(x: np.ndarray, basis: np.ndarray, tol: Tolerance) -> bool:
    """Whether ``x`` lies in the span of the orthonormal columns of
    ``basis``: its residual after projection is under ``tol.eps_abs``."""
    residual = x - basis @ (basis.conj().T @ x)
    return norm2(residual) < tol.eps_abs
