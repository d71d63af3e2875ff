"""Command line front-end.

One executable with subcommands; structured data travels as JSON files
(shapes documented in :mod:`projgeo.jsonio`), point streams leave as
CSV on stdout.  All numeric output is printed with 17 significant
digits, and every command is deterministic for fixed inputs and seed.

Exit codes: 0 success, 1 property-suite failure, 2 unparsable input,
bad arguments or a linking number too close to resolve, 3
dimension/field/kind mismatch or a link of one point with itself, 4
ill-conditioned input.
"""

import argparse
import json
import os
import sys

import numpy as np

from projgeo import grassmann, hopf_fibration, hopf_manifold, jsonio, projective, suites
from projgeo.errors import (
    DimensionMismatch,
    FieldMismatch,
    IllConditioned,
    InvalidInput,
    InvalidRange,
    ProjGeoError,
    SamePoint,
    ShapeMismatch,
)
from projgeo.grassmann import Subspace
from projgeo.hopf_fibration import ExtendedComplex
from projgeo.hopf_manifold import HopfPoint, ScaleGroup
from projgeo.numerics import COMPLEX, REAL, DEFAULT_TOLERANCE, Tolerance, as_vector
from projgeo.projective import ProjMap, ProjPoint

ENV_EPS = "PROJGEO_EPS"


def _parse_scalar(text: str):
    """Parse the real or complex --lambda; accepts both 2i and 2j spellings."""
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return complex(text.replace("i", "j").replace(" ", ""))
    except ValueError:
        raise InvalidInput(f"--lambda must be a real or complex number, got {text!r}") from None


def _tolerance(args) -> Tolerance:
    """Tolerance from the flags, which stay unset when absent; --eps falls back to $PROJGEO_EPS."""
    eps = getattr(args, "eps", None)
    if eps is None:
        env = os.environ.get(ENV_EPS)
        try:
            eps = float(env) if env else DEFAULT_TOLERANCE.eps_abs
        except ValueError:
            raise InvalidInput(f"${ENV_EPS} must be a number, got {env!r}") from None
    return Tolerance(eps, getattr(args, "cond_max", DEFAULT_TOLERANCE.cond_max))


def _read(tol: Tolerance, *paths: str, want=object, error: str = ""):
    """Decode the JSON document at each path, then check that every result
    is a ``want`` (see :func:`jsonio.matches`).  Raises
    DimensionMismatch(error) when one is not.  Returns the one object, or
    a list when given several paths."""
    objs = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise InvalidInput(f"{path}: JSON nested too deeply") from None
            except UnicodeDecodeError as exc:
                raise InvalidInput(f"{path}: not UTF-8 text at byte {exc.start}") from None
        objs.append(jsonio.decode(doc, tol))
    if not all(jsonio.matches(obj, want) for obj in objs):
        raise DimensionMismatch(error)
    return objs[0] if len(objs) == 1 else objs


def _emit(obj) -> None:
    """Print a wire-format object as one JSON line; ``None`` prints ``null``."""
    text = "null" if obj is None else jsonio.dumps(jsonio.encode(obj))
    sys.stdout.write(text + "\n")


# --- subcommands ----------------------------------------------------------


def _cmd_apply(args, tol: Tolerance) -> int:
    mapping, operand = _read(tol, args.map_file, args.point_file)

    if isinstance(mapping, ProjMap) and isinstance(operand, ProjPoint):
        result = projective.apply_map(mapping, operand)
        if args.cp1:
            result = hopf_fibration.cp1_affine(result, tol)
        _emit(result)
        return 0
    if isinstance(mapping, ProjMap) and isinstance(operand, ExtendedComplex):
        moved = projective.apply_map(mapping, hopf_fibration.cp1_from_affine(operand))
        _emit(hopf_fibration.cp1_affine(moved, tol))
        return 0
    if isinstance(mapping, np.ndarray) and isinstance(operand, Subspace):
        _emit(grassmann.apply_gl(mapping, operand, tol))
        return 0
    if isinstance(mapping, np.ndarray) and isinstance(operand, HopfPoint):
        _emit(hopf_manifold.induced_linear(mapping, operand, tol))
        return 0
    raise DimensionMismatch(
        f"cannot apply a {type(mapping).__name__} to a {type(operand).__name__}; "
        "use a proj_map on proj_point/extended_complex, or a matrix on "
        "subspace/hopf_point"
    )


def _cmd_fiber(args, tol: Tolerance) -> int:
    """One CSV row per sphere point: t, then its real coordinates (re/im
    interleaved over C), then the stereographic X, Y, Z when asked."""
    p = _read(tol, args.point_file, want=ProjPoint,
              error="fiber expects a proj_point document")
    # the stereographic columns come first, so that their CP^1 check runs before any sampling
    stereo = hopf_fibration.fiber_stereo_samples(p, args.samples) if args.stereo else None
    if p.field == REAL:
        table = hopf_fibration.real_fiber(p)
    else:
        table = hopf_fibration.complex_fiber_sample(p, args.samples).view(np.float64)
    names = [f"x{i + 1}" for i in range(table.shape[1])]
    if args.stereo:
        table = np.hstack([table, stereo])
        names += ["X", "Y", "Z"]
    row = "%d" + f",{jsonio.FLOAT_FORMAT}" * len(names) + "\n"
    sys.stdout.write(",".join(["t", *names]) + "\n")
    for i in range(0, table.shape[0], 4096):  # blocks keep the text small
        block = enumerate(table[i:i + 4096].tolist(), i)
        sys.stdout.write("".join(row % (t, *r) for t, r in block))
    return 0


def _cmd_chart(args, tol: Tolerance) -> int:
    if args.action == "extract":
        p = _read(tol, args.input, want=ProjPoint,
                  error="extract expects a proj_point document")
        _emit(projective.chart_extract(projective.AffineChart(p.n, args.j), p, tol))
        return 0
    w = _read(tol, args.input, want=1, error=f"{args.action} expects a vector document")
    if args.field:
        w = as_vector(w, args.field)
    if args.action == "embed":
        chart = projective.AffineChart(w.shape[0], args.j)
        _emit(projective.chart_embed(chart, w))
        return 0
    # transition
    c1 = projective.AffineChart(w.shape[0], args.j1)
    c2 = projective.AffineChart(w.shape[0], args.j2)
    _emit(projective.chart_transition(c1, c2, w, tol))
    return 0


def _cmd_grassmann(args, tol: Tolerance) -> int:
    if args.action in ("complement", "annihilator"):
        s = _read(tol, args.subspace, want=Subspace,
                  error=f"{args.action} expects a subspace document")
        fn = (
            grassmann.orthogonal_complement
            if args.action == "complement"
            else grassmann.annihilator
        )
        _emit(fn(s, tol))
        return 0

    base = _read(tol, args.base, want=Subspace, error="--base must be a subspace document")
    complement = None
    if args.complement:
        complement = _read(tol, args.complement, want=Subspace,
                           error="--complement must be a subspace document")
    chart = grassmann.graph_chart(base, complement, tol)

    if args.action == "graph":
        coeffs = _read(tol, args.matrix, want=2, error="--matrix must be a matrix document")
        _emit(grassmann.graph_subspace(chart, coeffs, tol))
        return 0
    # coords
    x = _read(tol, args.subspace, want=Subspace, error="coords expects a subspace document")
    _emit(grassmann.chart_coords(chart, x, tol))
    return 0


def _cmd_hopf(args, tol: Tolerance) -> int:
    if args.action == "to-projective":  # the document carries its own lambda
        h = _read(tol, args.vector, want=HopfPoint,
                  error="to-projective expects a hopf_point document")
        _emit(hopf_manifold.to_projective(h))
        return 0
    group = ScaleGroup(_parse_scalar(args.lam))
    if args.action == "project":
        v = _read(tol, args.vector, want=1, error="project expects a vector document")
        if args.field:
            v = as_vector(v, args.field)
        _emit(hopf_manifold.quotient_project(v, group))
        return 0
    # equal
    v, w = _read(tol, args.vector, args.other, want=1,
                 error="equal expects two vector documents")
    verdict = hopf_manifold.hopf_points_equal(v, w, group, tol)
    sys.stdout.write(("true" if verdict else "false") + "\n")
    return 0


def _cmd_link(args, tol: Tolerance) -> int:
    p, q = _read(tol, args.point_file, args.other_file, want=ProjPoint,
                 error="link expects two proj_point documents")
    count = hopf_fibration.linking_number(p, q, args.samples, tol)
    result = {
        "kind": "linking",
        "samples": args.samples,
        "integral": hopf_fibration.linking_integral(p, q, args.samples, tol),
        "linking_number": count,
    }
    sys.stdout.write(jsonio.dumps(result) + "\n")
    return 0


def _cmd_check(args, tol: Tolerance) -> int:
    lam = _parse_scalar(args.lam)
    if not 0 <= args.seed < 2 ** 64:
        raise InvalidRange("seed must fit in 64 unsigned bits")
    if args.trials < 1:
        raise InvalidRange("trials must be at least 1")
    ScaleGroup(lam)
    results = suites.run_suite(args.suite, args.trials, args.seed, tol, lam)
    failed = 0
    for r in results:
        status = "PASS" if r.passed == r.total else "FAIL"
        failed += r.passed != r.total
        sys.stdout.write(f"{r.name}: {r.passed}/{r.total} {status}\n")
    sys.stdout.write("overall: " + ("PASS" if failed == 0 else "FAIL") + "\n")
    return 0 if failed == 0 else 1


# --- parser ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # A group (chart, grassmann, hopf) and each of its sub-commands take these
    # flags.  An absent flag sets nothing, so one given before the sub-command
    # is kept, and one given after it wins.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--eps", type=float, default=argparse.SUPPRESS,
                        help=f"absolute tolerance (default 1e-9, or ${ENV_EPS})")
    common.add_argument("--cond-max", type=float, default=argparse.SUPPRESS, dest="cond_max",
                        help="condition-estimate cap (default 1e12)")
    scale = argparse.ArgumentParser(add_help=False)
    scale.add_argument("--lambda", dest="lam", default="2", help="the scale lambda (default 2)")

    parser = argparse.ArgumentParser(
        prog="projgeo",
        description="Projective spaces, Grassmannians, and Hopf fibrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_apply = sub.add_parser("apply", parents=[common],
                             help="apply a map document to a point-like document")
    p_apply.add_argument("map_file")
    p_apply.add_argument("point_file")
    p_apply.add_argument("--cp1", action="store_true",
                         help="print a CP^1 result as an extended complex value")
    p_apply.set_defaults(func=_cmd_apply)

    p_fiber = sub.add_parser("fiber", parents=[common],
                             help="sample the sphere fiber over a projective point")
    p_fiber.add_argument("point_file")
    p_fiber.add_argument("--samples", type=int, default=64)
    p_fiber.add_argument("--stereo", action="store_true",
                         help="append stereographic R^3 columns (CP^1 only)")
    p_fiber.set_defaults(func=_cmd_fiber)

    p_chart = sub.add_parser("chart", parents=[common],
                             help="affine chart embed/extract/transition")
    p_chart.set_defaults(func=_cmd_chart)  # each sub-action sets args.action
    chart_sub = p_chart.add_subparsers(dest="action", required=True)
    c_embed = chart_sub.add_parser("embed", parents=[common])
    c_embed.add_argument("input", help="vector document of affine coordinates")
    c_embed.add_argument("--j", type=int, required=True)
    c_embed.add_argument("--field", choices=(REAL, COMPLEX), default=None)
    c_extract = chart_sub.add_parser("extract", parents=[common])
    c_extract.add_argument("input", help="proj_point document")
    c_extract.add_argument("--j", type=int, required=True)
    c_trans = chart_sub.add_parser("transition", parents=[common])
    c_trans.add_argument("input", help="vector document of chart-1 coordinates")
    c_trans.add_argument("--j1", type=int, required=True)
    c_trans.add_argument("--j2", type=int, required=True)
    c_trans.add_argument("--field", choices=(REAL, COMPLEX), default=None)

    p_gr = sub.add_parser("grassmann", parents=[common],
                          help="graph charts and dualities on G(k, n)")
    p_gr.set_defaults(func=_cmd_grassmann)
    gr_sub = p_gr.add_subparsers(dest="action", required=True)
    g_graph = gr_sub.add_parser("graph", parents=[common])
    g_graph.add_argument("--base", required=True)
    g_graph.add_argument("--complement", default=None)
    g_graph.add_argument("--matrix", required=True)
    g_coords = gr_sub.add_parser("coords", parents=[common])
    g_coords.add_argument("subspace")
    g_coords.add_argument("--base", required=True)
    g_coords.add_argument("--complement", default=None)
    for name in ("complement", "annihilator"):
        g_dual = gr_sub.add_parser(name, parents=[common])
        g_dual.add_argument("subspace")

    p_hopf = sub.add_parser("hopf", parents=[common],
                            help="scalar-power quotient operations")
    p_hopf.set_defaults(func=_cmd_hopf)
    hopf_sub = p_hopf.add_subparsers(dest="action", required=True)
    h_proj = hopf_sub.add_parser("project", parents=[common, scale])
    h_proj.add_argument("vector")
    h_proj.add_argument("--field", choices=(REAL, COMPLEX), default=None)
    h_eq = hopf_sub.add_parser("equal", parents=[common, scale])
    h_eq.add_argument("vector")
    h_eq.add_argument("other")
    h_top = hopf_sub.add_parser("to-projective", parents=[common])
    h_top.add_argument("vector", help="hopf_point document")

    p_link = sub.add_parser("link", parents=[common],
                            help="linking number of two CP^1 fibers, by counting crossings")
    p_link.add_argument("point_file")
    p_link.add_argument("other_file")
    p_link.add_argument("--samples", type=int, default=2048)
    p_link.set_defaults(func=_cmd_link)

    p_check = sub.add_parser("check", parents=[common, scale],
                             help="run the seeded property suites")
    p_check.add_argument("--suite", choices=suites.SUITE_NAMES, required=True)
    p_check.add_argument("--trials", type=int, default=100)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args, _tolerance(args))
    except (json.JSONDecodeError, OSError, ProjGeoError) as exc:
        print(f"projgeo: {exc}", file=sys.stderr)
        if isinstance(exc, (DimensionMismatch, FieldMismatch, ShapeMismatch, SamePoint)):
            return 3
        return 4 if isinstance(exc, IllConditioned) else 2


if __name__ == "__main__":
    raise SystemExit(main())
