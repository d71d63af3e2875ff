"""The canon-mix workload: single public calls on small canonical objects.

Each op is one call into projgeo's public API on inputs built before
the timed loop.  Ops cycle through 24 call kinds in shuffled rounds,
over projective points and maps with n+1 in {2, 4, 8}, G(k, n) with
n <= 8, scalar-power quotients and CP^1, over R and C.  Every op of the
workload is one that projgeo handles correctly.

The known-defect inputs are a separate, fixed probe set that the traced
run makes after the workload: vectors within a few ulps of a pivot tie
(scaled by a random a) and vectors whose norm sits on the |lam| window
edge, alternating.  Their failures are reported, not timed.
"""

import math

import numpy as np

import refs

BLOCK = 24  # one round of the kinds
MIN_OPS = 0  # a run makes hundreds of thousands
TRACE_OPS = 8000
POOL_ROUNDS = 168  # 168 rounds of the 24 kinds, whole cycles of variants
PROBES = 720  # 360 of each defect kind, whole cycles of variants

KINDS = (
    # projective
    "point_from_vector", "map_from_matrix", "apply_map", "compose", "inverse_map",
    "points_equal", "maps_equal", "chart_embed", "chart_extract", "transitive_witness",
    # hopf_manifold
    "quotient_project", "hopf_points_equal", "induced_linear", "to_projective",
    # grassmann
    "subspace_from_span", "apply_gl", "graph_subspace", "chart_coords",
    "orthogonal_complement", "annihilator", "subspaces_equal",
    # CP^1
    "cp1_affine", "cp1_from_affine", "mobius_apply",
)
HOPF_KINDS = KINDS[10:14]
GR_KINDS = KINDS[14:21]
PROJ_DIMS = (2, 4, 8)  # n + 1
HOPF_DIMS = (2, 4, 8)
GR_SHAPES = ((1, 2), (1, 4), (2, 4), (2, 6), (3, 6), (2, 8), (4, 8))  # (k, n)
REAL_SCALES = (2.0, 3.0)
COMPLEX_SCALES = (2.0, 1.5 * complex(math.cos(0.7), math.sin(0.7)))

MIX = {
    "op mix": "24 public calls in shuffled rounds, one of each per round",
    "projective": "point_from_vector map_from_matrix apply_map compose inverse_map points_equal "
                  "maps_equal chart_embed chart_extract transitive_witness; n+1 in {2,4,8}, R and C",
    "hopf_manifold": "quotient_project hopf_points_equal induced_linear to_projective; "
                     "F^n with n in {2,4,8}, lam in {2,3} over R, {2, 1.5e^0.7i} over C",
    "grassmann": "subspace_from_span apply_gl graph_subspace chart_coords orthogonal_complement "
                 "annihilator subspaces_equal; (k,n) in " + str(GR_SHAPES),
    "cp1": "cp1_affine cp1_from_affine mobius_apply",
    "defect probes": f"{PROBES} in the traced run, untimed: pivot ties within 1 ulp at eps=1e-9 "
                     "scaled by random a; norms on the |lam| edge",
}


class Op:
    __slots__ = ("kind", "args", "info", "adversarial")

    def __init__(self, kind, args, info=None, adversarial=False):
        self.kind = kind
        self.args = args
        self.info = info
        self.adversarial = adversarial


# --- input generation --------------------------------------------------------
#
# Sizes, fields, scales and expected verdicts cycle in a fixed pattern
# (variant r of a kind, read in mixed radix) and only the values are
# random, so the cost of the mix and the share of failing inputs do not
# drift with the seed.


def _variant(r, *radices):
    digits = []
    for radix in radices:
        r, digit = divmod(r, radix)
        digits.append(digit)
    return digits


def _make_regular(pg, rng, kind, r):
    di, ci, si = _variant(r, 3, 2, 2)
    cplx, same = bool(ci), bool(si)
    d = PROJ_DIMS[di]
    vec = lambda n=d: refs.random_vector(rng, n, cplx)  # noqa: E731
    mat = lambda n=d: refs.random_invertible(rng, n, cplx)  # noqa: E731
    if kind == "point_from_vector":
        return Op(kind, (vec(),))
    if kind == "map_from_matrix":
        return Op(kind, (mat(),))
    if kind == "apply_map":
        return Op(kind, (pg.map_from_matrix(mat()), pg.point_from_vector(vec())))
    if kind == "compose":
        return Op(kind, (pg.map_from_matrix(mat()), pg.map_from_matrix(mat())))
    if kind == "inverse_map":
        return Op(kind, (pg.map_from_matrix(mat()),))
    if kind == "points_equal":
        v = vec()
        w = refs.random_scalar(rng, cplx) * v if same else vec()
        return Op(kind, (pg.point_from_vector(v), pg.point_from_vector(w)), same)
    if kind == "maps_equal":
        a = mat()
        b = refs.random_scalar(rng, cplx) * a if same else mat()
        return Op(kind, (pg.map_from_matrix(a), pg.map_from_matrix(b)), same)
    if kind == "chart_embed":
        j = int(rng.integers(1, d + 1))
        return Op(kind, (pg.AffineChart(d - 1, j), vec(d - 1)))
    if kind == "chart_extract":
        j = int(rng.integers(1, d + 1))
        v = vec()
        if r % 8 == 7:  # on the chart's missing locus
            v[j - 1] = 0.0
        return Op(kind, (pg.AffineChart(d - 1, j), pg.point_from_vector(v)))
    if kind == "transitive_witness":
        return Op(kind, (pg.point_from_vector(vec()), pg.point_from_vector(vec())))
    if kind in HOPF_KINDS:
        lam = (COMPLEX_SCALES if cplx else REAL_SCALES)[si]
        group = pg.ScaleGroup(lam)
        v = refs.random_vector(rng, d, cplx) * 10.0 ** rng.uniform(-3.0, 3.0)
        if kind == "quotient_project":
            return Op(kind, (v, group), lam)
        if kind == "hopf_points_equal":
            same = bool(_variant(r, 12, 2)[1])
            j = int(rng.integers(-3, 4))
            w = v * group.lam ** j if same else v * abs(lam) ** (j + rng.uniform(0.2, 0.8))
            return Op(kind, (v, w, group), same)
        hp = pg.quotient_project(v, group)
        if kind == "induced_linear":
            return Op(kind, (refs.random_invertible(rng, d, cplx), hp), lam)
        return Op(kind, (hp,))
    if kind in GR_KINDS:
        gi, ci, si = _variant(r, len(GR_SHAPES), 2, 2)
        cplx, same = bool(ci), bool(si)
        k, n = GR_SHAPES[gi]
        span = lambda: refs.random_vector(rng, n * k, cplx).reshape(n, k)  # noqa: E731
        if kind == "subspace_from_span":
            return Op(kind, (span(),))
        s = pg.subspace_from_span(span())
        if kind == "apply_gl":
            return Op(kind, (refs.random_invertible(rng, n, cplx), s))
        if kind in ("graph_subspace", "chart_coords"):
            chart = pg.graph_chart(pg.subspace_from_span(span()))
            if kind == "graph_subspace":
                coeffs = refs.random_vector(rng, (n - k) * k, cplx).reshape(n - k, k)
                return Op(kind, (chart, coeffs))
            return Op(kind, (chart, s))
        if kind == "subspaces_equal":
            other = s.basis @ refs.random_invertible(rng, k, cplx) if same else span()
            return Op(kind, (s, pg.subspace_from_span(other)), same)
        return Op(kind, (s,))
    # CP^1: one value in 8 is the point at infinity
    at_infinity = r % 8 == 7
    if kind == "cp1_affine":
        v = refs.random_vector(rng, 2, True)
        if at_infinity:
            v[1] = 0.0
        return Op(kind, (pg.point_from_vector(v),))
    z = None if at_infinity else complex(
        refs.random_vector(rng, 1, True)[0] * 10.0 ** rng.uniform(-3.0, 3.0)
    )
    ez = pg.INFINITY if z is None else pg.ExtendedComplex(z)
    if kind == "cp1_from_affine":
        return Op(kind, (ez,), z)
    while True:
        a, b, c, dd = refs.random_vector(rng, 4, True)
        if abs(a * dd - b * c) > 0.1:
            break
    return Op(kind, (complex(a), complex(b), complex(c), complex(dd), ez), z)


def _tie_op(rng, t):
    """point_from_vector on a*u, where u's two largest moduli are eps apart.

    The gap is eps plus -1, 0 or +1 ulp, so roundoff in the rescaling
    by a decides which entry the pivot rule picks.
    """
    di, ci, ki = _variant(t, 3, 2, 3)
    d, cplx = PROJ_DIMS[di], bool(ci)
    i, j = sorted(rng.choice(d, size=2, replace=False))
    rest = np.abs(refs.random_vector(rng, d, False)) * 0.1 / math.sqrt(d)
    rest[[i, j]] = 0.0
    top = math.sqrt((1.0 - float(rest @ rest)) / 2.0)  # unit norm overall
    mods = rest.copy()
    mods[j] = top + refs.EPS / 2
    mods[i] = mods[j] - refs.EPS + (ki - 1) * math.ulp(mods[j])
    if cplx:
        u = mods * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, d))
    else:
        u = mods * rng.choice((-1.0, 1.0), d)
    a = refs.random_scalar(rng, cplx)
    return Op("point_from_vector", (a * u,), u, True)


def _edge_op(pg, rng, t):
    """A vector whose norm is |lam|^k to within 1 ulp, on the window edge."""
    di, ci, li, ki, ei = _variant(t, 3, 2, 2, 3, 2)
    dim, cplx = HOPF_DIMS[di], bool(ci)
    lam = (COMPLEX_SCALES if cplx else REAL_SCALES)[li]
    w = refs.random_vector(rng, dim, cplx)
    k = int(rng.integers(-6, 7))
    v = w * (abs(lam) ** k / np.linalg.norm(w)) * (1.0 + (ki - 1) * 2.0 ** -53)
    group = pg.ScaleGroup(lam)
    if ei:
        w = v * group.lam ** int(rng.integers(-3, 4))
        return Op("hopf_points_equal", (v, w, group), True, True)
    return Op("quotient_project", (v, group), lam, True)


class Inputs:
    """Seeded op sequence: a pool of inputs cycled in order.

    ``small`` builds only the first round, which the set-up calls use.
    """

    def __init__(self, pg, seed, small=False):
        self.pg, self.seed = pg, seed
        rng = np.random.default_rng([0, seed])
        self.regular = []
        for r in range(1 if small else POOL_ROUNDS):
            for kind in rng.permutation(KINDS):
                self.regular.append(_make_regular(pg, rng, str(kind), r))

    def op(self, i):
        return self.regular[i % len(self.regular)]

    def cold_ops(self):
        """One op of every kind, for the set-up calls."""
        first = {}
        for op in self.regular:
            first.setdefault(op.kind, op)
        return [first[k] for k in KINDS]

    def probe_ops(self):
        """The known-defect inputs, pivot ties and window edges alternating."""
        rng = np.random.default_rng([3, self.seed])
        return [_tie_op(rng, t // 2) if t % 2 == 0 else _edge_op(self.pg, rng, t // 2)
                for t in range(PROBES)]


def functions(pg):
    return {kind: getattr(pg, kind) for kind in KINDS}


# --- checks against numpy references -----------------------------------------


def _sub_ok(out, x):
    return refs.same_span(out.basis, x) and out.k == x.shape[1] and out.n == x.shape[0]


def check(op, out):
    kind, args, info = op.kind, op.args, op.info
    if kind == "point_from_vector":
        if op.adversarial:  # scaled copy of a tie vector: same class as the unscaled one
            return refs.canonical_ok(out.h, args[0]) and refs.canonical_ok(out.h, info)
        return refs.canonical_ok(out.h, args[0])
    if kind == "map_from_matrix":
        return out.M.shape == args[0].shape and refs.canonical_ok(out.M, args[0])
    if kind == "apply_map":
        t, p = args
        return refs.canonical_ok(out.h, t.M @ p.h)
    if kind == "compose":
        return refs.canonical_ok(out.M, args[0].M @ args[1].M)
    if kind == "inverse_map":
        return refs.canonical_ok(out.M, np.linalg.inv(args[0].M), line_tol=1e-9)
    if kind in ("points_equal", "maps_equal", "hopf_points_equal", "subspaces_equal"):
        return out is info
    if kind == "chart_embed":
        chart, w = args
        return refs.canonical_ok(out.h, np.insert(w, chart.j - 1, 1.0))
    if kind == "chart_extract":
        chart, p = args
        piv = p.h[chart.j - 1]
        if abs(piv) <= refs.EPS:
            return out is None
        ref = np.delete(p.h, chart.j - 1) / piv
        return out is not None and out.shape == ref.shape and bool(
            np.max(np.abs(out - ref), initial=0.0) <= 1e-12 * (1.0 + np.max(np.abs(ref), initial=0.0))
        )
    if kind == "transitive_witness":
        p, q = args
        m = out.M
        if not refs.canonical_ok(m, m):
            return False
        g = m @ m.conj().T
        unitary = float(np.max(np.abs(g / (np.trace(g).real / len(g)) - np.eye(len(g))))) < 1e-10
        return unitary and refs.off_line(m @ p.h, q.h) < 1e-10
    if kind == "quotient_project":
        return refs.window_rep_ok(out.rep, args[0], info)
    if kind == "induced_linear":
        g, hp = args
        return refs.window_rep_ok(out.rep, g @ hp.rep, info)
    if kind == "to_projective":
        return refs.canonical_ok(out.h, args[0].rep)
    if kind == "subspace_from_span":
        return _sub_ok(out, args[0])
    if kind == "apply_gl":
        g, s = args
        return _sub_ok(out, g @ s.basis)
    if kind == "graph_subspace":
        chart, a = args
        return _sub_ok(out, chart.base.basis + chart.complement.basis @ a)
    if kind == "chart_coords":
        chart, s = args
        base, comp = chart.base.basis, chart.complement.basis
        if out is None:  # only when s is not transverse to the complement
            return np.linalg.svd(base.conj().T @ s.basis, compute_uv=False)[-1] <= 1e-8
        return refs.same_span(s.basis, base + comp @ out)
    if kind in ("orthogonal_complement", "annihilator"):
        (s,) = args
        b = s.basis
        if not refs.orthonormal(out.basis, s.n - s.k) or out.n != s.n:
            return False
        pair = b.conj().T if kind == "orthogonal_complement" else b.T
        if float(np.max(np.abs(pair @ out.basis))) > 1e-10:
            return False
        ref = refs.null_projector(pair, s.k)
        return float(np.linalg.norm(refs.projector(out.basis) - ref)) < 1e-9
    if kind == "cp1_affine":
        h = args[0].h
        ref = None if abs(h[1]) <= refs.EPS else h[0] / h[1]
        return refs.close(out.z, ref, 1e-12)
    if kind == "cp1_from_affine":
        ref = np.array([1.0, 0.0]) if info is None else np.array([info, 1.0])
        return refs.canonical_ok(out.h, ref)
    if kind == "mobius_apply":
        a, b, c, d, _ = args
        return refs.close(out.z, refs.mobius(a, b, c, d, info), 1e-9)
    raise ValueError(f"unknown op kind {kind!r}")
