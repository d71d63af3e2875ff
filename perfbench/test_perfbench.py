"""Tests of the benchmark's own accounting.

    python3 -m pytest perfbench/test_perfbench.py -q

They show that a corrupted result and a raised exception each count as
a failed op, that every workload op passes its check while the defect
probes fail, that the span recorder attributes self time and errors as
documented, and that the tail percentile follows its ten-sample rule.
"""

import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import projgeo as pg  # noqa: E402
import projgeo.cli  # noqa: E402,F401

import canon  # noqa: E402
import cliload  # noqa: E402
import linkload  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def sabotaged_functions():
    """canon-mix calls with point_from_vector corrupted and compose raising."""
    fns = canon.functions(pg)

    def corrupted(*args):
        return SimpleNamespace(h=-fns["point_from_vector"](*args).h)  # wrong representative

    def raising(*args):
        raise RuntimeError("injected")

    return dict(fns, point_from_vector=corrupted, compose=raising)


@pytest.fixture(scope="module")
def inputs():
    return canon.Inputs(pg, seed=3)


def test_corrupted_and_raising_ops_count_as_failed(inputs):
    ops = [inputs.op(i) for i in range(4 * canon.BLOCK)]
    fns, broken = canon.functions(pg), sabotaged_functions()
    clean, bad = worker.Tally(), worker.Tally()
    for op in ops:
        worker.measure(canon, fns, op, clean)
        worker.measure(canon, broken, op, bad)
    assert clean.failed == 0
    assert bad.failed == sum(op.kind in ("point_from_vector", "compose") for op in ops) > 0
    assert bad.result()["attempted"] == len(ops)


def test_canon_probes_show_the_known_defects(inputs):
    probes, rec = worker.traced(
        lambda op, tally: worker.measure(canon, canon.functions(pg), op, tally),
        inputs.probe_ops()[:72],
    )
    assert probes.failed > 0
    layers, _ = rec.layer_metrics()
    assert layers["projective.errors_untyped"] > 0


def test_every_regular_op_kind_passes_its_check(inputs):
    fns = canon.functions(pg)
    tally = worker.Tally()
    for op in inputs.regular[: 2 * len(canon.KINDS)]:
        worker.measure(canon, fns, op, tally)
    assert tally.failed == 0
    assert {k for k in tally.by_kind} == set(canon.KINDS)


def test_link_check_rejects_a_wrong_linking_number():
    inputs = linkload.Inputs(pg, seed=0, small=True)
    op = inputs.cold_ops()[0]
    assert linkload.check(op, -1)
    assert not linkload.check(op, 1)
    assert not linkload.check(op, -1.0)
    assert all(o.info >= linkload.RESOLVED and not o.adversarial for o in inputs.ops)
    assert all(o.info < linkload.RESOLVED and o.adversarial for o in inputs.probe_ops())


def test_cli_verify_rejects_bad_exit_and_corrupted_stdout(tmp_path):
    ops = cliload.make_block(5, 0, str(tmp_path))
    op = next(o for o in ops if o.kind == "grassmann complement")
    code, stdout, _ = cliload.run_inprocess(pg.cli.main, op.argv)
    assert cliload.verify(pg, op, code, stdout)
    assert not cliload.verify(pg, op, 2, stdout)
    assert not cliload.verify(pg, op, code, stdout.replace("0.", "0.1", 1))
    assert not any(o.adversarial for o in ops)
    tie = cliload.make_probes(5, str(tmp_path / "probes"))[0]
    code, stdout, _ = cliload.run_inprocess(pg.cli.main, tie.argv)
    assert code == 2 and not cliload.verify(pg, tie, code, stdout)


def test_spans_nest_and_self_times_partition_the_root():
    rec = spans.SpanRecorder()
    original = pg.apply_map
    rec.install()
    try:
        t = pg.map_from_matrix(np.eye(3))
        p = pg.point_from_vector([1.0, 2.0, 3.0])
        rec.op_id = 7
        pg.apply_map(t, p)
    finally:
        rec.uninstall()
    assert pg.apply_map is original
    nid, dur, own, parent = rec.self_times()
    names = [rec.names[i] for i in nid]
    root = names.index("projective.apply_map")
    assert parent[root] == -1 and rec.op[root] == 7
    below = [i for i in range(len(names)) if rec.op[i] == 7 and i != root]
    assert "projective.point_from_vector" in [names[i] for i in below]
    assert "projective.ProjPoint.post_init" in [names[i] for i in below]
    assert all(own >= 0)
    assert own[[root, *below]].sum() == dur[root]


def test_errors_are_charged_once_to_the_innermost_span():
    rec = spans.SpanRecorder()
    rec.install()
    try:
        v = np.array([(1 - 1e-7) * np.exp(1j), 1.0])
        with pytest.raises(ValueError):
            pg.point_from_vector(v, pg.Tolerance(eps_abs=1e-6))
        with pytest.raises(pg.ZeroVector):
            pg.point_from_vector(np.zeros(3))
    finally:
        rec.uninstall()
    layers, _ = rec.layer_metrics()
    assert [rec.names[rec.name_id[i]] for i, _ in rec.errors] == [
        "projective.ProjPoint.post_init",
        "projective.point_from_vector",
    ]
    assert layers["projective.errors_untyped"] == 1
    assert layers["projective.errors_typed"] == 1
    assert layers["numerics.errors_untyped"] == layers["numerics.errors_typed"] == 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    lat = [i / 1000.0 for i in range(1, 1001)]
    summary = worker.latency_summary(lat)
    assert summary["tail"]["percentile"] == 99
    assert summary["tail"]["beyond"] == 10
    assert summary["tail"]["value_ms"] == pytest.approx(990.0)
    assert summary["p50_ms"] == pytest.approx(500.0)
    assert worker.latency_summary(lat[:15])["tail"]["percentile"] == 100
