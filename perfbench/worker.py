"""One benchmark process: set-up, timed loop or traced loop of a workload.

Started by run.py in a fresh interpreter, with BLAS pinned to one
thread and ``src`` on PYTHONPATH.  Only the standard library is loaded
before ``import projgeo`` is timed, so the measured import includes
numpy.  The last line of stdout is one JSON object for run.py.

    python3 perfbench/worker.py --workload canon-mix --seed 1 --seconds 30 --mode run
"""

import argparse
import json
import math
import os
import resource
import subprocess
import sys
from array import array
from time import perf_counter

MODES = ("setup", "run", "trace")
SETUP_SAMPLES = 10  # fresh-interpreter set-ups per run, besides the run's own
IMPORT_SNIPPET = (
    "import time, sys\n"
    "t = time.perf_counter()\n"
    "import projgeo\n"
    "sys.stdout.write(repr(time.perf_counter() - t))\n"
)


def latency_summary(lat):
    """Median and tail of per-op latencies, in ms.

    The tail is the highest of p90, p99 and p99.9 that has at least ten
    samples above it (nearest-rank percentiles); the maximum when even
    p90 has fewer.  Deeper percentiles are left out: with ten samples
    beyond them they read scheduler noise more than the program.
    """
    s = sorted(lat)
    n = len(s)
    tail = {"percentile": 100, "beyond": 0, "value_ms": s[-1] * 1e3}
    for q in (90, 99, 99.9):
        rank = max(1, math.ceil(round(q * n / 100, 6)))
        if n - rank >= 10:
            tail = {"percentile": q, "beyond": n - rank, "value_ms": s[rank - 1] * 1e3}
    p50 = s[max(1, math.ceil(n / 2)) - 1]
    return {"p50_ms": p50 * 1e3, "tail": tail, "samples": n}


class SetupSampler:
    """Set-up times of fresh interpreters, taken at even points of a run.

    Host speed drifts over seconds, so the samples are spread over the
    timed loop instead of taken together; the loop's deadline moves on
    by the time each sample takes.  For cli a sample is ``import
    projgeo`` alone, otherwise a ``--mode setup`` worker (import plus
    one cold call of each function the workload uses).
    """

    def __init__(self, args):
        here = os.path.abspath(__file__)
        if args.workload == "cli":
            self.argv = [sys.executable, "-c", IMPORT_SNIPPET]
        else:
            self.argv = [sys.executable, here, "--workload", args.workload, "--seed",
                         str(args.seed), "--mode", "setup", "--workdir", args.workdir]
        self.cli = args.workload == "cli"
        self.interval = args.seconds / SETUP_SAMPLES
        self.due = perf_counter()
        self.samples = []

    def poll(self, deadline):
        """Take a sample if one is due; the deadline, moved past its cost."""
        now = perf_counter()
        if now < self.due or len(self.samples) >= SETUP_SAMPLES:
            return deadline
        out = subprocess.run(self.argv, capture_output=True, text=True, check=True).stdout
        self.samples.append(float(out) if self.cli else json.loads(out)["setup_s"])
        self.due += self.interval
        return deadline + perf_counter() - now


def safe_check(module, op, out):
    try:
        return bool(module.check(op, out))
    except Exception:  # a malformed result fails its check
        return False


class Tally:
    """Per-op outcomes of one loop."""

    def __init__(self):
        self.lat = array("d")
        self.failed = 0
        self.by_kind = {}

    def add(self, op, seconds, ok):
        self.lat.append(seconds)
        self.failed += not ok
        counts = self.by_kind.setdefault(op.kind, [0, 0])
        counts[0] += 1
        counts[1] += not ok

    def result(self):
        return {
            "attempted": len(self.lat),
            "failed": self.failed,
            "busy_s": sum(self.lat),
            "by_kind": self.by_kind,
        }


# --- in-process workloads (canon-mix, link) ---------------------------------


def _timed_call(fns, op):
    t0 = perf_counter()
    try:
        out = fns[op.kind](*op.args)
    except Exception:
        return None, perf_counter() - t0, False
    return out, perf_counter() - t0, True


def measure(module, fns, op, tally):
    """Time one op; its check runs after the clock stops."""
    out, took, done = _timed_call(fns, op)
    tally.add(op, took, done and safe_check(module, op, out))


def cold_calls(pg, module, inputs):
    """One call of each function the workload uses; (seconds, all right)."""
    fns = module.functions(pg)
    tally = Tally()
    for op in inputs.cold_ops():
        measure(module, fns, op, tally)
    return sum(tally.lat), tally.failed == 0


def run_loop(pg, module, inputs, seconds, sampler):
    """Ops in sequence until ``seconds`` have passed and MIN_OPS are done,
    stopping at a block boundary."""
    fns = module.functions(pg)
    tally = Tally()
    deadline = perf_counter() + seconds
    i = 0
    while i % module.BLOCK or i < module.MIN_OPS or perf_counter() < deadline:
        if i % module.BLOCK == 0:
            deadline = sampler.poll(deadline)
        measure(module, fns, inputs.op(i), tally)
        i += 1
    return tally


def traced(measure_op, ops):
    """Run ops under a fresh span recorder; (tally, recorder)."""
    import spans

    rec = spans.SpanRecorder()
    rec.install()
    tally = Tally()
    try:
        for i, op in enumerate(ops):
            rec.op_id = i
            measure_op(op, tally)
            rec.op_id = -1
    finally:
        rec.uninstall()
    return tally, rec


def trace_loop(pg, module, inputs):
    """The first TRACE_OPS ops untraced, then again with spans recorded;
    then the defect probes under a recorder of their own."""
    ops = [inputs.op(i) for i in range(module.TRACE_OPS)]
    fns = module.functions(pg)
    plain = sum(_timed_call(fns, op)[1] for op in ops)

    def measure_op(op, tally):
        measure(module, module.functions(pg), op, tally)

    tally, rec = traced(measure_op, ops)
    probes, probe_rec = traced(measure_op, inputs.probe_ops())
    return tally, plain, rec, probes, probe_rec


# --- cli workload -------------------------------------------------------------


def start_launcher():
    """The stdlib-only process that spawns the cli commands (see launch.py)."""
    here = os.path.dirname(os.path.abspath(__file__))
    return subprocess.Popen(
        [sys.executable, os.path.join(here, "launch.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )


def cli_run(pg, cliload, launcher, seed, seconds, workdir, sampler):
    tally = Tally()
    done = []
    deadline = perf_counter() + seconds
    b = 0
    while len(done) < cliload.MIN_OPS or perf_counter() < deadline:
        for op in cliload.make_block(seed, b, os.path.join(workdir, f"b{b}")):
            deadline = sampler.poll(deadline)
            launcher.stdin.write(json.dumps(op.argv) + "\n")
            launcher.stdin.flush()
            reply = json.loads(launcher.stdout.readline())
            done.append((op, reply["code"], reply["stdout"], reply["seconds"]))
        b += 1
    launcher.stdin.close()
    peak_kib = json.loads(launcher.stdout.readline())["peak_kib"]
    launcher.stdout.close()
    launcher.wait()
    for op, code, stdout, took in done:
        tally.add(op, took, _cli_verify(pg, cliload, op, code, stdout))
    return tally, peak_kib


def _cli_verify(pg, cliload, op, code, stdout):
    try:
        return cliload.verify(pg, op, code, stdout)
    except Exception:
        return False


def cli_trace(pg, cliload, seed, workdir):
    """``cli.main`` in-process on TRACE_OPS commands, untraced and then
    traced; then the defect probes under a recorder of their own."""
    ops = []
    b = 0
    while len(ops) < cliload.TRACE_OPS:
        ops += cliload.make_block(seed, b, os.path.join(workdir, f"t{b}"))
        b += 1
    ops = ops[: cliload.TRACE_OPS]
    plain = sum(cliload.run_inprocess(pg.cli.main, op.argv)[2] for op in ops)
    outs = []

    def measure_op(op, tally):
        outs.append(cliload.run_inprocess(pg.cli.main, op.argv))

    def verified(some_ops, some_outs):  # checked after the recorder is gone
        tally = Tally()
        for op, (code, stdout, took) in zip(some_ops, some_outs):
            tally.add(op, took, _cli_verify(pg, cliload, op, code, stdout))
        return tally

    _, rec = traced(measure_op, ops)
    stdout_bytes = sum(len(stdout.encode("utf-8")) for _, stdout, _ in outs)
    probe_ops = cliload.make_probes(seed, os.path.join(workdir, "probes"))
    _, probe_rec = traced(measure_op, probe_ops)
    tally = verified(ops, outs[: len(ops)])
    probes = verified(probe_ops, outs[len(ops):])
    return tally, plain, rec, probes, probe_rec, stdout_bytes


# --- per-layer metrics --------------------------------------------------------

SPAN_METRICS = (
    ("numerics.cond_estimate", "calls"),
    ("numerics.cond_estimate", "self_s"),
    ("numerics.orthonormalize", "self_s"),
    ("numerics.kernel", "self_s"),
    ("projective.point_from_vector", "self_s"),
    ("projective.map_from_matrix", "self_s"),
    ("projective.ProjPoint.post_init", "self_s"),
    ("projective.ProjMap.post_init", "self_s"),
    ("projective.transitive_witness", "self_s"),
    ("hopf_manifold.quotient_project", "self_s"),
    ("grassmann.subspace_from_span", "self_s"),
    ("grassmann.apply_gl", "self_s"),
    ("grassmann.chart_coords", "self_s"),
    ("grassmann.Subspace.post_init", "self_s"),
    ("hopf_fibration.linking_integral", "calls"),
    ("hopf_fibration.linking_integral", "self_s"),
    ("jsonio.decode", "self_s"),
    ("jsonio.encode", "self_s"),
    ("jsonio.dumps", "self_s"),
    ("cli.main", "self_s"),
    ("suites.run_suite", "self_s"),
)


def layer_metrics(rec, tally, plain_s, probes, probe_rec, stdout_bytes):
    """Per-layer metrics of the traced workload ops.  Error counts also
    include the defect probes, which are otherwise kept out of them."""
    import spans

    layers, per_name = rec.layer_metrics()
    probe_layers, _ = probe_rec.layer_metrics()
    out = dict(layers)
    for layer in spans.LAYERS:
        for what in ("errors_typed", "errors_untyped"):
            out[f"{layer}.{what}"] += probe_layers[f"{layer}.{what}"]
    for name, what in SPAN_METRICS:
        calls, self_s = per_name.get(name, (0, 0.0))
        out[f"{name}.{what}"] = calls if what == "calls" else self_s
    out["numerics.cond_estimate.unitary_share"] = rec.unitary_share()
    out["numerics.orthonormalize.kept_share"] = (
        rec.ortho_kept / rec.ortho_given if rec.ortho_given else 0.0
    )
    out["hopf_fibration.linking_integral.pair_evals"] = rec.pair_evals
    out["cli.stdout_bytes"] = stdout_bytes
    traced_s = sum(tally.lat)
    attributed = sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS)
    out["trace.overhead_share"] = traced_s / plain_s
    out["trace.unattributed_share"] = (traced_s - attributed) / traced_s
    out["defects.probes"] = len(probes.lat)
    out["defects.fail_share"] = probes.failed / len(probes.lat)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("canon-mix", "link", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--workdir", required=True, help="scratch directory for documents")
    parser.add_argument("--spans", help="CSV file for the spans of a traced run")
    args = parser.parse_args(argv)

    launcher = start_launcher() if args.workload == "cli" and args.mode == "run" else None
    t0 = perf_counter()
    import projgeo as pg
    import_s = perf_counter() - t0

    import numpy

    import canon
    import cliload
    import linkload

    module = {"canon-mix": canon, "link": linkload, "cli": cliload}[args.workload]
    result = {"numpy": numpy.__version__, "python": sys.version.split()[0], "mix": module.MIX}

    if args.workload == "cli":
        import projgeo.cli  # noqa: F401  (pg.cli for the traced run and the checks)

        if args.mode == "run":
            sampler = SetupSampler(args)
            tally, peak_kib = cli_run(pg, cliload, launcher, args.seed, args.seconds,
                                     args.workdir, sampler)
            result.update(tally.result(), **latency_summary(tally.lat),
                          peak_rss_mb=peak_kib / 1024, cold_ok=True,
                          setup_samples=sampler.samples)
        elif args.mode == "trace":
            tally, plain, rec, probes, probe_rec, nbytes = cli_trace(
                pg, cliload, args.seed, args.workdir)
            result.update(tally.result(), cold_ok=True, defects=probes.by_kind,
                          layers=layer_metrics(rec, tally, plain, probes, probe_rec, nbytes))
            rec.write_csv(args.spans)
        else:
            parser.error("the cli workload's set-up is the import alone")
    else:
        inputs = module.Inputs(pg, args.seed, small=args.mode == "setup")
        cold_s, cold_ok = cold_calls(pg, module, inputs)
        result.update(setup_s=import_s + cold_s, cold_ok=cold_ok)
        if args.mode == "run":
            sampler = SetupSampler(args)
            tally = run_loop(pg, module, inputs, args.seconds, sampler)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result.update(tally.result(), **latency_summary(tally.lat),
                          peak_rss_mb=peak / 1024,
                          setup_samples=[import_s + cold_s] + sampler.samples)
        elif args.mode == "trace":
            tally, plain, rec, probes, probe_rec = trace_loop(pg, module, inputs)
            result.update(tally.result(), defects=probes.by_kind,
                          layers=layer_metrics(rec, tally, plain, probes, probe_rec, 0))
            rec.write_csv(args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
