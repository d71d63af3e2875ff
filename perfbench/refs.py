"""Independent numpy references for checking projgeo results.

Nothing here imports projgeo: every check recomputes the expected
answer from the raw inputs with plain numpy and compares it with the
arrays the package returned.  A check returns True when the result is
right and False otherwise; it never raises on a wrong result.
"""

import math

import numpy as np

EPS = 1e-9  # projgeo's default absolute tolerance


def random_vector(rng, dim, complex_field):
    v = rng.standard_normal(dim)
    if complex_field:
        v = v + 1j * rng.standard_normal(dim)
    return v


def random_invertible(rng, dim, complex_field, cond_limit=1e3):
    while True:
        a = random_vector(rng, dim * dim, complex_field).reshape(dim, dim)
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] > 0 and s[0] / s[-1] < cond_limit:
            return a


def random_scalar(rng, complex_field):
    mag = rng.uniform(0.25, 4.0)
    if complex_field:
        return mag * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return mag if rng.random() < 0.5 else -mag


def pivot(u, eps=EPS):
    """Largest-modulus entry, smallest index among those within eps of it."""
    mods = np.abs(u)
    return int(np.argmax(mods >= mods.max() - eps))


def canonical(v, eps=EPS):
    """Unit representative of the line through v with a real positive pivot."""
    u = np.asarray(v) / np.linalg.norm(v)
    j = pivot(u, eps)
    return u * (np.conj(u[j]) / abs(u[j]))


def off_line(h, v):
    """Sine of the angle between the lines of h and v."""
    hu = np.asarray(h) / np.linalg.norm(h)
    vu = np.asarray(v) / np.linalg.norm(v)
    return float(np.linalg.norm(vu - np.vdot(hu, vu) * hu))


def canonical_ok(h, v, line_tol=1e-10):
    """h is the canonical representative of the line through v.

    Unit norm, real positive pivot, |<h, v>| = |v| (the same line), and
    equal within eps to the canonical form the reference computes.
    """
    h = np.asarray(h).ravel()
    v = np.asarray(v).ravel()
    if h.shape != v.shape or not np.all(np.isfinite(h)):
        return False
    if abs(np.linalg.norm(h) - 1.0) > 1e-12:
        return False
    piv = complex(h[pivot(h)])
    if abs(piv.imag) > 1e-12 or piv.real <= 0.0:
        return False
    nv = np.linalg.norm(v)
    if abs(abs(np.vdot(h, v)) - nv) > 1e-12 * nv or off_line(h, v) > line_tol:
        return False
    return bool(np.max(np.abs(h - canonical(v))) < EPS)


def projector(q):
    return q @ q.conj().T


def span_projector(x):
    """Orthogonal projector onto the column span of x (full column rank)."""
    q, _ = np.linalg.qr(x)
    return projector(q)


def orthonormal(q, cols):
    q = np.asarray(q)
    return (
        q.ndim == 2
        and q.shape[1] == cols
        and bool(np.all(np.isfinite(q)))
        and float(np.max(np.abs(q.conj().T @ q - np.eye(cols)))) < 1e-10
    )


def same_span(q, x, tol=1e-9):
    """q is an orthonormal basis of the column span of x."""
    return orthonormal(q, x.shape[1]) and q.shape[0] == x.shape[0] and float(
        np.linalg.norm(projector(q) - span_projector(x))
    ) < tol


def null_projector(a, rank):
    """Projector onto the null space of a, whose rank is known."""
    _, _, vh = np.linalg.svd(a)
    return projector(vh[rank:].conj().T)


def window_rep_ok(rep, v, lam):
    """rep = lam^-m v for an integer m, with norm in the window [1, |lam|)."""
    rep = np.asarray(rep)
    v = np.asarray(v)
    if rep.shape != v.shape or not np.all(np.isfinite(rep)):
        return False
    a = abs(lam)
    r = float(np.linalg.norm(rep))
    if not 1.0 - 1e-12 <= r < a:
        return False
    m = round(math.log(float(np.linalg.norm(v)) / r) / math.log(a))
    expected = v * complex(lam) ** (-m) if np.iscomplexobj(rep) else v * float(lam) ** (-m)
    return float(np.linalg.norm(rep - expected)) <= 1e-11 * r * (1 + abs(m))


def mobius(a, b, c, d, z):
    """(a z + b) / (c z + d) on the extended plane; None is infinity."""
    if z is None:
        return None if abs(c) <= EPS else a / c
    den = c * z + d
    if abs(den) <= EPS:
        return None
    return (a * z + b) / den


def close(x, y, tol=1e-9):
    """Extended-complex closeness: None matches only None."""
    if x is None or y is None:
        return x is None and y is None
    return abs(x - y) <= tol * (1.0 + abs(y))
