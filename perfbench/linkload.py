"""The link workload: linking numbers of Hopf fibers over CP^1 pairs.

Each op is ``linking_number(p, q, 2048)`` on a seeded pair of distinct
CP^1 points.  The fiber separation sqrt(2 - 2 |<h_p, h_q>|) is
log-uniform on [RESOLVED, sqrt(2)], where the 2048-sample kernel gives
the right answer; it is drawn from a van der Corput sequence with a
seeded random shift, so every prefix of the op sequence covers the
range evenly.  The expected value is -1, the linking number of every
pair of distinct fibers under the package's orientation; the
well-separated pair ([1:0], [0:1]) confirms it in set-up.

The near-coincident pairs, log-uniform on [1e-4, RESOLVED), are a
separate, fixed probe set that the traced run makes after the
workload; the wrong linking numbers they give are reported, not timed.
"""

import math

import numpy as np

import refs
from canon import Op

BLOCK = 8
MIN_OPS = 104  # so that p90 has ten samples beyond it when the host runs slow
TRACE_OPS = 8
SAMPLES = 2048
SEP_MIN = 1e-4
SEP_MAX = math.sqrt(2.0)
EXPECTED = -1
# A pair counts as resolved when its separation spans at least 4 of the
# 2 pi / m segments of a fiber; closer pairs are the near-coincident inputs.
RESOLVED = 4 * 2.0 * math.pi / SAMPLES
POOL = 512
PROBES = 8

MIX = {
    "op mix": f"linking_number(p, q, {SAMPLES}) on distinct CP^1 pairs",
    "separation": f"log-uniform on [{RESOLVED:.4f}, sqrt 2] (4 segment lengths and up), "
                  "shifted van der Corput order",
    "defect probes": f"{PROBES} near-coincident pairs in the traced run, untimed: "
                     f"separation log-uniform on [{SEP_MIN:g}, {RESOLVED:.4f})",
}


def van_der_corput(i):
    x, denom = 0.0, 1.0
    while i:
        denom *= 2.0
        i, bit = divmod(i, 2)
        x += bit / denom
    return x


def pair_at(rng, sep):
    """Unit h_p, h_q in C^2 with sqrt(2 - 2 |<h_p, h_q>|) = sep."""
    h = refs.random_vector(rng, 2, True)
    h /= np.linalg.norm(h)
    perp = np.array([-np.conj(h[1]), np.conj(h[0])])
    t = 2.0 * math.asin(sep / 2.0)
    hq = math.cos(t) * h + math.sin(t) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * perp
    return h, hq


def _pairs(pg, rng, count, lo, hi):
    """Ops on ``count`` pairs with separations log-uniform on [lo, hi)."""
    shift = rng.random()
    span = math.log(hi / lo)
    ops = []
    for i in range(count):
        sep = lo * math.exp(span * ((van_der_corput(i) + shift) % 1.0))
        hp, hq = pair_at(rng, sep)
        p = pg.point_from_vector(hp * refs.random_scalar(rng, True))
        q = pg.point_from_vector(hq * refs.random_scalar(rng, True))
        ops.append(Op("linking_number", (p, q, SAMPLES), sep, sep < RESOLVED))
    return ops


class Inputs:
    def __init__(self, pg, seed, small=False):
        self.pg, self.seed = pg, seed
        rng = np.random.default_rng([1, seed])
        self.ops = _pairs(pg, rng, 1 if small else POOL, RESOLVED, SEP_MAX)
        self.reference = Op("linking_number", (
            pg.point_from_vector(np.array([1.0, 0.0], dtype=complex)),
            pg.point_from_vector(np.array([0.0, 1.0], dtype=complex)),
            SAMPLES,
        ), SEP_MAX)

    def op(self, i):
        return self.ops[i % len(self.ops)]

    def cold_ops(self):
        return [self.reference]

    def probe_ops(self):
        """Near-coincident pairs, closer than the kernel resolves."""
        rng = np.random.default_rng([4, self.seed])
        return _pairs(self.pg, rng, PROBES, SEP_MIN, RESOLVED)


def functions(pg):
    return {"linking_number": pg.linking_number}


def check(op, out):
    return isinstance(out, int) and out == EXPECTED
