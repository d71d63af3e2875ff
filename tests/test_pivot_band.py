"""The canonical form reads no tolerance.

The pivot of a representative is the first entry within a fixed 1e-12 of
the largest modulus, so the representative that projgeo stores and
prints, and the chart that ``chart_cover`` picks, depend on the line
alone: the same bits at every user eps.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import projgeo as pg
from projgeo import cli
from projgeo.jsonio import dumps, encode
from projgeo.suites import rand_invertible

EPS = (1e-9, 1e-6, 1e-3, 1e-2)
FIELDS = ("real", "complex")


def phases(rng, field, size):
    if field == "complex":
        return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size))
    return rng.choice((-1.0, 1.0), size)


def near_tie(rng, values, field, gap):
    """``values`` with its two largest moduli set ``gap`` apart, at twice the
    old largest, the smaller one first; the phases are drawn afresh."""
    flat = np.abs(values).ravel()
    i, j = sorted(rng.choice(flat.size, size=2, replace=False))
    top = 2.0 * float(flat.max())
    flat[i], flat[j] = top - gap * top, top
    return (flat * phases(rng, field, flat.size)).reshape(np.shape(values))


_GAPS = dict(
    seed=st.integers(0, 2**32 - 1),
    field=st.sampled_from(FIELDS),
    d=st.sampled_from([2, 4, 8]),
    log_gap=st.floats(-11.0, -2.0),
)


@settings(max_examples=120, deadline=None)
@given(**_GAPS)
@example(seed=0, field="complex", d=2, log_gap=-7.0)
@example(seed=1, field="real", d=4, log_gap=-11.0)
def test_builders_give_the_same_bits_at_every_eps(seed, field, d, log_gap):
    rng = np.random.default_rng(seed)
    v = near_tie(rng, rng.standard_normal(d), field, 10.0 ** log_gap)
    a = near_tie(rng, rand_invertible(rng, d, field), field, 10.0 ** log_gap)
    assume(np.linalg.cond(a) < 1e6)
    points = [pg.point_from_vector(v, pg.Tolerance(eps)).h for eps in EPS]
    maps = [pg.map_from_matrix(a, pg.Tolerance(eps)).M for eps in EPS]
    for h in points[1:]:
        assert h.tobytes() == points[0].tobytes()
    for m in maps[1:]:
        assert m.tobytes() == maps[0].tobytes()


@settings(max_examples=120, deadline=None)
@given(**_GAPS)
@example(seed=0, field="real", d=2, log_gap=-3.0)
def test_chart_cover_keeps_its_bound_at_every_eps(seed, field, d, log_gap):
    # every modulus within a relative gap of the others: the entries an eps
    # pivot would accept include some below 1/sqrt(n+1)
    rng = np.random.default_rng(seed)
    mods = 1.0 + 10.0 ** log_gap * rng.uniform(-1.0, 1.0, d)
    p = pg.point_from_vector(mods * phases(rng, field, d))
    chart = pg.chart_cover(p)  # reads no eps, so it is one chart at every eps
    assert abs(p.h[chart.j - 1]) >= 1.0 / math.sqrt(d) - 1e-12


def test_apply_prints_the_same_point_at_the_default_and_a_coarse_eps(tmp_path, capsys):
    identity = tmp_path / "id.json"
    identity.write_text(dumps(encode(pg.identity_map(1, "complex"))))
    point = tmp_path / "p.json"
    point.write_text('{"kind": "proj_point", "field": "complex", "n": 1, '
                     '"h": [[0, 0.9999], [1, 0]]}')
    outs = []
    for flags in ([], ["--eps", "1e-3"]):
        assert cli.main(["apply", str(identity), str(point), *flags]) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]
    assert outs[0].out.endswith('"h": [[0, 0.70707142319570515], [0.70714213740944609, 0]]}\n')


def test_projective_suite_passes_at_a_coarse_eps(capsys):
    argv = ["check", "--suite", "projective", "--eps", "1e-2", "--trials", "200", "--seed", "1"]
    assert cli.main(argv) == 0
    assert "projective.atlas_cover: 200/200 PASS\n" in capsys.readouterr().out
