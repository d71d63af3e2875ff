"""Grassmannians G(k, n) over R and C.

A k-dimensional linear subspace of F^n is stored as an n x k matrix with
orthonormal columns.  Bases are far from unique, so equality is measured
through the orthogonal projector B B^H, which is canonical.

Around a base subspace L with a chosen complement M, every subspace
transverse to M is the graph {v + A v : v in L} of a unique linear map
A : L -> M; the (n-k) x k coefficient matrices of A in the stored bases
form a coordinate patch whose field-dimension is k(n-k).  Invertible
n x n matrices act on subspaces, transitively; two duality constructions
(Hermitian orthogonal complement, and the annihilator under the plain
bilinear pairing) each identify G(k, n) with G(n-k, n).

P^n is G(1, n+1), and a projective l-plane P(L) is the point L of
G(l+1, n+1), so a ProjSubspace is held as its linear Subspace L.
"""

from dataclasses import dataclass

import numpy as np

from projgeo import numerics
from projgeo.errors import (
    DimensionMismatch,
    FieldMismatch,
    IllConditioned,
    InvalidInput,
    InvalidRange,
    NotCanonical,
    ShapeMismatch,
)
from projgeo.numerics import (
    DEFAULT_TOLERANCE,
    REAL,
    Tolerance,
    as_matrix,
    dtype_for,
    field_of,
)
from projgeo.projective import AffineChart, ProjMap, ProjPoint, _made, _point_of, _same_space


@dataclass(frozen=True, eq=False)
class Subspace:
    """A k-dimensional linear subspace of F^n with an orthonormal basis."""

    field: str
    n: int
    k: int
    basis: np.ndarray

    def __post_init__(self):
        self._hold(np.array(self.basis, dtype=dtype_for(self.field)))

    def _hold(self, arr: np.ndarray) -> "Subspace":
        """Check a basis and hold it read-only, uncopied, in its memory layout."""
        if arr.ndim != 2 or arr.shape != (self.n, self.k):
            raise DimensionMismatch(
                f"expected a {self.n}x{self.k} basis, got shape {arr.shape}"
            )
        if not 1 <= self.k < self.n:
            raise InvalidRange("subspace dimension must satisfy 1 <= k < n, "
                               f"got k = {self.k}, n = {self.n}")
        deviation = np.abs(arr.conj().T @ arr - np.eye(self.k)).max()
        if not deviation <= 1e-10:  # NaN entries fail too
            raise NotCanonical(f"basis columns must be orthonormal: max |B^H B - I| = "
                               f"{deviation:.3g}, bound 1e-10")
        arr.setflags(write=False)
        object.__setattr__(self, "basis", arr)
        return self


@dataclass(frozen=True, eq=False)
class ProjSubspace:
    """A projective subspace P(L) of P^n, a view of its linear subspace L of
    F^{n+1}; its projective dimension l is dim L - 1, n - 1 for a hyperplane.
    Subspace makes every check; equality is subspaces_equal on ``linear``."""

    linear: Subspace

    field = property(lambda self: self.linear.field)
    n = property(lambda self: self.linear.n - 1)
    l = property(lambda self: self.linear.k - 1)
    basis = property(lambda self: self.linear.basis)


@dataclass(frozen=True, eq=False)
class GraphChart:
    """Graph-coordinate patch around ``base`` with complement ``complement``.

    The two subspaces must be complementary: together their bases span
    F^n.  Build instances with :func:`graph_chart`, which checks that at
    the caller's tolerance.
    """

    base: Subspace
    complement: Subspace

    def __post_init__(self):
        b, m = self.base, self.complement
        if b.field != m.field:
            raise FieldMismatch(f"mixed fields: {b.field} vs {m.field}")
        if b.n != m.n or b.k + m.k != b.n:
            raise DimensionMismatch(
                f"complement of a {b.k}-dimensional subspace of F^{b.n} "
                f"must have dimension {b.n - b.k}, got {m.k}"
            )


def subspace_from_span(
    columns, tol: Tolerance = DEFAULT_TOLERANCE, field: str | None = None
) -> Subspace:
    """Subspace spanned by the columns of ``columns``."""
    mat = as_matrix(columns, field)
    q = numerics.orthonormalize(mat, tol)
    return _made(Subspace, field=field_of(q), n=mat.shape[0], k=q.shape[1])._hold(q)


def subspaces_equal(a: Subspace, b: Subspace, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Whether two subspaces coincide (projector distance under eps)."""
    _same_grassmannian(a, b)
    return numerics.projector_distance(a.basis, b.basis) < tol.eps_abs


def _same_grassmannian(a: Subspace, b: Subspace) -> None:
    if a.field != b.field:
        raise FieldMismatch(f"mixed fields: {a.field} vs {b.field}")
    if a.n != b.n or a.k != b.k:
        raise DimensionMismatch(
            f"mixed Grassmannians: G({a.k},{a.n}) vs G({b.k},{b.n})"
        )


def graph_chart(
    base: Subspace,
    complement: Subspace | None = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> GraphChart:
    """Coordinate patch around ``base``.

    When no complement is given the Hermitian orthogonal complement is
    used; it is deterministic and maximally transverse.  A given
    complement must be transverse to ``base``: the smallest singular
    value of the stacked bases must exceed ``tol.eps_abs``.
    """
    if complement is None:
        complement = orthogonal_complement(base, tol)
    chart = GraphChart(base, complement)
    combined = np.hstack([base.basis, complement.basis])
    smallest = np.linalg.svd(combined, compute_uv=False)[-1]
    if smallest <= tol.eps_abs:
        raise InvalidInput(f"base and complement are not transverse: smallest singular "
                           f"value {smallest:.3g} <= eps {tol.eps_abs:.3g}")
    return chart


def graph_subspace(
    chart: GraphChart, coeffs, tol: Tolerance = DEFAULT_TOLERANCE
) -> Subspace:
    """The graph subspace {v + A v : v in base} for coefficients ``coeffs``.

    ``coeffs`` is the (n-k) x k matrix of A : base -> complement in the
    stored bases; any value is allowed and the result always has
    dimension k.
    """
    base, comp = chart.base, chart.complement
    a = as_matrix(coeffs, base.field)
    if a.shape != (comp.k, base.k):
        raise ShapeMismatch(
            f"expected a {comp.k}x{base.k} coefficient matrix, got {a.shape}"
        )
    q = numerics.orthonormalize(base.basis + comp.basis @ a, tol)
    if q.shape[1] != base.k:
        raise IllConditioned("graph construction dropped rank numerically")
    return _made(Subspace, field=base.field, n=base.n, k=base.k)._hold(q)


def chart_coords(
    chart: GraphChart, subspace: Subspace, tol: Tolerance = DEFAULT_TOLERANCE
) -> np.ndarray | None:
    """Coefficient matrix of ``subspace`` in the chart, or None.

    Decomposes each basis vector against [B_L B_M]; the subspace lies in
    the chart exactly when its base-components are invertible, i.e. when
    it is transverse to the complement.  Returns None otherwise.
    """
    base, comp = chart.base, chart.complement
    _same_grassmannian(base, subspace)
    combined = np.hstack([base.basis, comp.basis])
    parts = np.linalg.solve(combined, subspace.basis)
    along_base = parts[: base.k]
    along_comp = parts[base.k :]
    smallest = np.linalg.svd(along_base, compute_uv=False)[-1]
    if smallest <= tol.eps_abs:
        return None
    return along_comp @ np.linalg.inv(along_base)


def grassmann_dimension(k: int, n: int) -> int:
    """Dimension k(n-k) of G(k, n), over the base field."""
    if not 1 <= k < n:
        raise InvalidRange("need 1 <= k < n")
    return k * (n - k)


def apply_gl(g, s: Subspace, tol: Tolerance = DEFAULT_TOLERANCE) -> Subspace:
    """Image of a subspace under an invertible matrix.

    Scalar multiples of ``g`` give the same image, so the action factors
    through the projective linear group.
    """
    return _image(numerics._invertible(g, tol, s.field, s.n), s, tol)


def _image(gm: np.ndarray, s: Subspace, tol: Tolerance) -> Subspace:
    """Image of a subspace under a matrix that has passed the conditioning guard."""
    q = numerics.orthonormalize(gm @ s.basis, tol)
    if q.shape[1] != s.k:
        raise IllConditioned("image dropped rank numerically")
    return _made(Subspace, field=s.field, n=s.n, k=s.k)._hold(q)


def transitive_witness_gr(l1: Subspace, l2: Subspace) -> np.ndarray:
    """An invertible matrix G with G(l1) = l2.

    G = [B2 B2_perp] [B1 B1_perp]^H is unitary: it carries the first
    subspace's orthonormal frame onto the second's.
    """
    _same_grassmannian(l1, l2)
    u1 = np.hstack([l1.basis, orthogonal_complement(l1).basis])
    u2 = np.hstack([l2.basis, orthogonal_complement(l2).basis])
    return u2 @ u1.conj().T


def orthogonal_complement(s: Subspace, tol: Tolerance = DEFAULT_TOLERANCE) -> Subspace:
    """Hermitian orthogonal complement, a subspace of dimension n-k."""
    q = numerics.kernel(s.basis.conj().T, tol)
    return _made(Subspace, field=s.field, n=s.n, k=s.n - s.k)._hold(q)


def annihilator(s: Subspace, tol: Tolerance = DEFAULT_TOLERANCE) -> Subspace:
    """Annihilator under the bilinear pairing sum(x_i y_i), no conjugation.

    Functionals vanishing on the subspace, identified with vectors of
    F^n; computed as the kernel of the plain transpose of the basis.
    Over R it coincides with the orthogonal complement; over C the two
    constructions generally differ.
    """
    q = numerics.kernel(s.basis.T, tol)
    return _made(Subspace, field=s.field, n=s.n, k=s.n - s.k)._hold(q)


def to_projective_point(s: Subspace) -> ProjPoint:
    """The point of P^{n-1} carried by a line (k = 1 subspace)."""
    if s.k != 1:
        raise InvalidRange("only 1-dimensional subspaces are projective points")
    return _point_of(s.basis[:, 0])


def from_projective_point(p: ProjPoint) -> Subspace:
    """The line in F^{n+1} underlying a point of P^n."""
    return Subspace(p.field, p.n + 1, 1, p.h[:, None])


def missing_locus(c: AffineChart, field: str = REAL) -> ProjSubspace:
    """The hyperplane {h_j = 0} that the chart misses, of projective dimension n - 1."""
    basis = np.delete(np.eye(c.n + 1, dtype=dtype_for(field)), c.j - 1, axis=1)
    return ProjSubspace(_made(Subspace, field=field, n=c.n + 1, k=c.n)._hold(basis))


def proj_subspace_from_span(
    columns, tol: Tolerance = DEFAULT_TOLERANCE, field: str | None = None
) -> ProjSubspace:
    """P(L) for the span L of the given matrix columns in F^{n+1}."""
    try:
        return ProjSubspace(subspace_from_span(columns, tol, field))
    except InvalidRange:  # only a span of all of F^{n+1} fails 1 <= dim L < n + 1
        n = np.shape(columns)[0] - 1
        raise InvalidRange("projective subspace dimension must satisfy 0 <= l < n, "
                           f"got l = {n}, n = {n}") from None


def point_membership(
    p: ProjPoint, s: ProjSubspace, tol: Tolerance = DEFAULT_TOLERANCE
) -> bool:
    """Whether the line of ``p`` lies inside the subspace."""
    _same_space(p, s)
    return numerics.in_span(p.h, s.basis, tol)


def subspace_image(
    t: ProjMap, s: ProjSubspace, tol: Tolerance = DEFAULT_TOLERANCE
) -> ProjSubspace:
    """Image P(M(L)) of a projective subspace under a (guarded) projective map."""
    _same_space(t, s)
    return ProjSubspace(_image(t.M, s.linear, tol))
