"""The fiber distance against 50-digit arithmetic.

The oracle is sqrt(|a|^2 + |b|^2 - 2 |<a, b>|), the distance between the
circles {e^{it} a} and {e^{it} b} through the two stored representatives,
evaluated in mpmath: 50 digits leave over 20 after the cancellation at a
separation of 1e-14.  It shares no operation with the library's
phase-aligned difference.
"""

import math

import mpmath
import numpy as np

import projgeo as pg

_ULP = 2.0 ** -53
_BOUND = 8.0 * _ULP  # the bound fibers_min_distance states for n <= 4


def _circle_distance(a, b):
    with mpmath.workdps(50):
        a = [mpmath.mpc(complex(x)) for x in a]
        b = [mpmath.mpc(complex(x)) for x in b]
        norm_a, norm_b = (mpmath.fsum(abs(x) ** 2 for x in v) for v in (a, b))
        inner = abs(mpmath.fsum(mpmath.conj(x) * y for x, y in zip(a, b)))
        return mpmath.sqrt(norm_a + norm_b - 2 * inner)


def _pair_at(rng, n, angle):
    """Two points of CP^n whose lines meet at ``angle``, with a random
    phase on the second representative."""
    h = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    d = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    d -= np.vdot(h, d) / np.vdot(h, h) * h
    h, d = h / np.linalg.norm(h), d / np.linalg.norm(d)
    v = (math.cos(angle) * h + math.sin(angle) * d) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return pg.point_from_vector(h), pg.point_from_vector(v)


def test_fiber_distance_is_within_its_stated_bound_of_the_exact_one():
    rng = np.random.default_rng(2031)
    tol = pg.Tolerance(eps_abs=1e-15)  # pairs 1e-14 apart are distinct points here
    worst = {}
    for n in (1, 2, 4):
        worst[n] = 0.0
        for _ in range(400):
            angle = 10.0 ** rng.uniform(-14.0, math.log10(0.5 * math.pi))
            p, q = _pair_at(rng, n, angle)
            err = abs(pg.fibers_min_distance(p, q, tol) - _circle_distance(p.h, q.h))
            worst[n] = max(worst[n], float(err))
    assert max(worst.values()) <= _BOUND, {n: w / _ULP for n, w in worst.items()}
