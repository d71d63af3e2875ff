"""projgeo benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload canon-mix --seed 1 --seconds 30 --trace 0

Workloads (each a closed loop with one caller):
  canon-mix  single public calls on small canonical objects
  link       linking_number(p, q, 2048) over log-uniform fiber separations
  cli        one ``python -m projgeo`` process per command

``--trace 0`` reports the end-to-end metrics from an untraced run:
setup_s (median set-up time of fresh interpreters sampled across the
run: ``import projgeo`` plus one cold call of each function the
workload uses, the import alone for cli), throughput_ops_s,
latency_p50_ms, latency_tail_ms and peak_rss_mb.  ``--trace 1`` runs
a fixed number of ops with every public projgeo function wrapped in a
span and reports per-layer metrics; spans are written to
``.perfbench/spans-<workload>-seed<n>.csv``.
The last line of stdout is one JSON object: correct, attempted,
failed and metrics.  ``correct`` is false when a set-up call or any
op fails.  Every workload input is one that projgeo handles correctly.
The known-defect inputs (pivot ties, window edges, near-coincident
fibers, a near-tie chart extract) are a fixed probe set that only the
traced run makes, after the workload and untimed: it reports their
count and failed share as ``defects.probes`` and ``defects.fail_share``
and adds the errors they raise to the layers' error counts.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
IMPORT_RUNS = 3
CHILD_TIMEOUT = 170
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The layers' self times must sum to the traced loop time within this
# share; the rest is the harness between spans.
UNATTRIBUTED_BOUND = 0.05

# Workload reasons and metric units come from the benchmark's contract.
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in CONTRACT["workloads"]}
UNITS = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PROJGEO_EPS", None)  # the inputs assume the default tolerance
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def run_child(argv, env, what):
    """Run a child interpreter to completion; its stdout, or exit on failure."""
    try:
        proc = subprocess.run(
            [sys.executable, *argv], env=env, cwd=ROOT, capture_output=True,
            text=True, timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {what} did not finish in {CHILD_TIMEOUT} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perfbench: {what} exited with code {proc.returncode}")
    return proc.stdout, proc.stderr


def run_worker(args, mode, env, workdir, spans=None):
    argv = [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--mode", mode, "--workdir", str(workdir)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    stdout, _ = run_child(argv, env, f"{args.workload} {mode} worker")
    return json.loads(stdout.strip().splitlines()[-1])


def import_layer(env):
    """Median import-layer figures over fresh interpreters.

    ``-X importtime`` gives numpy's cumulative import and the self time
    of the projgeo modules; an empty interpreter gives the start-up cost.
    """
    samples = []
    for _ in range(IMPORT_RUNS):
        _, err = run_child(["-X", "importtime", "-c", "import projgeo"], env, "importtime")
        rows = []
        for line in err.splitlines():
            if line.startswith("import time:") and "|" in line and "self" not in line:
                self_us, cum_us, name = line[len("import time:"):].split("|")
                rows.append((int(self_us), int(cum_us), name.strip()))
        cum = {name: c for _, c, name in rows}
        t0 = perf_counter()
        run_child(["-c", "pass"], env, "empty interpreter")
        samples.append({
            "import.calls": len(rows),
            "import.self_s": cum["projgeo"] / 1e6,
            "import.numpy_s": cum["numpy"] / 1e6,
            "import.projgeo_self_s": sum(s for s, _, n in rows if n.startswith("projgeo")) / 1e6,
            "import.interpreter_s": perf_counter() - t0,
        })
    out = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    out["import.calls"] = int(out["import.calls"])
    out["import.errors_typed"] = 0
    out["import.errors_untyped"] = 0
    return out


def end_to_end(worker):
    tail = worker["tail"]
    return {
        "setup_s": statistics.median(worker["setup_samples"]),
        "throughput_ops_s": worker["attempted"] / worker["busy_s"],
        "latency_p50_ms": worker["p50_ms"],
        "latency_tail_ms": tail["value_ms"],
        "peak_rss_mb": worker["peak_rss_mb"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="projgeo benchmark", formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__,
    )
    parser.add_argument("--workload", required=True, choices=tuple(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "projgeo" / "__init__.py").is_file():
        sys.exit(f"perfbench: no projgeo sources under {SRC}")

    env = child_env()
    OUT.mkdir(exist_ok=True)
    run_child(["-c", "import projgeo"], env, "warm-up")  # fills the bytecode cache
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
            worker = run_worker(args, "trace", env, workdir, spans)
            metrics = dict(worker["layers"], **import_layer(env))
        else:
            worker = run_worker(args, "run", env, workdir)
            metrics = end_to_end(worker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = worker["cold_ok"] and worker["failed"] == 0
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": WHY[args.workload],
        "mix": worker["mix"],
        "python": worker["python"],
        "numpy": worker["numpy"],
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: env[var] for var in BLAS_VARS},
        "loop": "closed, one caller",
        "attempted": worker["attempted"],
        "by_kind": worker["by_kind"],
    }
    if args.trace:
        meta["defect_probes"] = worker["defects"]
    else:
        meta["latency_tail"] = worker["tail"]
        meta["setup_samples"] = worker["setup_samples"]
    print("# meta " + json.dumps(meta))
    for name, value in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            tail = worker["tail"]
            note = f"  (p{tail['percentile']:g}, {tail['beyond']} samples beyond, n={worker['samples']})"
        elif name == "hopf_fibration.linking_integral.pair_evals":
            note = "  (computed from m: sum of m^2 over calls; no roofline, no peak measured)"
        elif name == "trace.unattributed_share":
            verdict = "within" if abs(value) <= UNATTRIBUTED_BOUND else "OUTSIDE"
            note = f"  (layer self times sum to the traced loop time {verdict} {UNATTRIBUTED_BOUND:g})"
        print(f"# {name:48s} {value:>16.6g} {UNITS[name]}{note}")
    result = {
        "correct": bool(correct),
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
