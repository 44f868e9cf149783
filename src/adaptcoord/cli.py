"""Command-line surface.

Subcommands:
  analyze        full pipeline on one polynomial (text, JSON, or SVG)
  decay          numeric decay-rate fit against the exact 1/h
  clusters       root-cluster data as text or JSON
  predict-shear  extreme vertices after shearing a weighted-homogeneous
                 polynomial, without expanding the shear

Exit codes: 0 success; 2 expression or usage errors (among them an --svg
path that cannot be written, parentheses nested deeper than
parsing.MAX_NESTING and an integer literal past Python's digit limit
for int()); 3 precondition violations (among them a --max-steps
below 1, a clusters --depth outside 1 to clusters.MAX_DEPTH, an --svg
diagram whose extent exceeds svgdiagram.MAX_EXTENT, which writes no file,
a decay lambda or radius that is not finite, a decay radius so small
that the cell area underflows or so large that it overflows, a decay
--grid outside 64 to oscillatory.MAX_GRID and a decay --points outside
5 to oscillatory.MAX_POINTS, all refused before the shear iteration and
any quadrature, and a decay grid too coarse for the phase,
GridTooCoarse, which a gradient bound or a phase beyond the float range
raises);
4 iteration cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .adapt import DEFAULT_MAX_STEPS, adapt
from .clusters import ClusterLevel, top_clusters
from .errors import (
    AdaptcoordError,
    IterationCapExceeded,
    PolySyntaxError,
)
from .oscillatory import DEFAULT_RADIUS, _check_fit_arguments, fit_decay
from .parsing import parse
from .quasihomog import _require_order_two, predict_shear_vertices
from .report import AnalysisReport, _assemble, _diagram, _plain, _run


class _UsageError(Exception):
    pass


def _pairs(points) -> str:
    return " ".join(f"({j},{k})" for j, k in points)


def _jet_text(jet) -> str:
    if not jet:
        return "(empty)"
    parts = []
    for b, m in jet:
        sign = "-" if b < 0 else "+"
        mag = abs(b)
        coeff = "" if mag == 1 else f"{mag}*"
        parts.append(f"{sign} {coeff}x1^{m}")
    return "x2 -> x2 " + " ".join(parts)


def _print_analysis(rep: AnalysisReport) -> None:
    ad, face = rep.adaptedness, rep.principal_face
    print(f"input:           {rep.input}")
    print(f"support:         {_pairs(rep.support)}")
    print(f"vertices:        {_pairs(rep.vertices)}")
    print(f"distance:        {rep.distance}")
    print(f"principal face:  {face.kind.value} through {_pairs(face.points)}")
    print(f"weight:          ({rep.principal_weight[0]}, {rep.principal_weight[1]})")
    flags = (
        f"[edge={'yes' if ad.condition_a else 'no'} "
        f"integer-ratio={'yes' if ad.condition_b else 'no'} "
        f"deep-root={'yes' if ad.condition_c else 'no'}]"
    )
    swap = " (axes swapped)" if ad.axis_swapped else ""
    print(f"adapted:         {'yes' if rep.adapted_input else 'no'} {flags}{swap}")
    if ad.witness is not None:
        b, m, mult = ad.witness
        print(f"witness root:    x2 = {b}*x1^{m} (multiplicity {mult})")
    if rep.status == "skipped":
        print("adaptation:      skipped")
    else:
        print(f"status:          {rep.status}")
        print(f"height:          {rep.height}")
        jet_note = " (truncated)" if rep.jet_truncated else ""
        print(f"jet:             {_jet_text(rep.jet)}{jet_note}")
        if rep.adapt_axis_swapped:
            print("                 (after swapping axes)")
        for i, (mult, m, d) in enumerate(rep.steps, start=1):
            print(
                f"step {i}:          exponent {m}, multiplicity {mult}, "
                f"distance before {d}"
            )
        print(f"adapted form:    {rep.adapted_poly}")
    if rep.cluster_check is None:
        print("cluster check:   not applicable")
    else:
        v = "ok" if rep.cluster_check.vertices_match else "MISMATCH"
        d = "ok" if rep.cluster_check.distance_match else "MISMATCH"
        print(f"cluster check:   vertices {v}, distance {d}")


def _cmd_analyze(args: argparse.Namespace) -> int:
    f = parse(args.expr)
    check, result = _run(f, args.max_steps, not args.no_adapt)
    rep = _assemble(f, args.expr, check, result)
    if args.svg is not None:
        # drawn before the file is opened, so a refused diagram leaves none
        svg = _diagram(f, check, result)
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as e:
            raise _UsageError(f"cannot write {args.svg}: {e.strerror}")
    if args.json:
        print(rep.to_json())
    else:
        _print_analysis(rep)
    return 0


def _cmd_decay(args: argparse.Namespace) -> int:
    f = parse(args.expr)
    # a bad input, then bad fit arguments, are refused before the shear
    # iteration runs
    _require_order_two(f)
    _check_fit_arguments(
        args.lambda_min, args.lambda_max, args.points, args.radius, args.grid
    )
    h = adapt(f, max_steps=args.max_steps).height
    est = fit_decay(
        f,
        args.lambda_min,
        args.lambda_max,
        points=args.points,
        radius=args.radius,
        grid_n=args.grid,
    )
    reference = 1 / h
    if args.json:
        fit = {
            **_plain(est),
            "reference_exponent": str(reference),
            "reference_exponent_float": float(reference),
        }
        print(json.dumps(fit, indent=2, sort_keys=True))
    else:
        print(
            f"lambda range:    {args.lambda_min:g} .. {args.lambda_max:g} "
            f"({args.points} points)"
        )
        print(f"fitted exponent: {est.fitted_exponent:.4f}")
        print(f"log power:       {est.fitted_log_power}")
        print(f"residual (rms):  {est.residual:.4f}")
        print(f"exact 1/h:       {reference} = {float(reference):.4f}")
    return 0


def _print_clusters(level: ClusterLevel, indent: int = 0) -> None:
    pad = "  " * indent
    print(f"{pad}trivial roots: nu1={level.nu1} nu2={level.nu2}")
    for c in level.clusters:
        extra = f", unresolved {c.unresolved}" if c.unresolved else ""
        print(f"{pad}exponent {c.exponent}: {c.count} root(s){extra}")
        for r in c.refinements:
            print(f"{pad}  coefficient {r.coefficient}: {r.count} root(s)")
            _print_clusters(r.sub, indent + 2)


def _cmd_clusters(args: argparse.Namespace) -> int:
    f = parse(args.expr)
    level = top_clusters(f, depth=args.depth)
    if args.json:
        print(json.dumps(_plain(level), indent=2, sort_keys=True))
    else:
        _print_clusters(level)
    return 0


def _cmd_predict_shear(args: argparse.Namespace) -> int:
    f = parse(args.expr)
    try:
        b = Fraction(args.coefficient)
    except (ValueError, ZeroDivisionError):
        # a string past Python's digit limit for int() is not echoed; a
        # limit of 0 is none, as is a Python before 3.10.7, which has none
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if 0 < limit < len(args.coefficient):
            raise _UsageError(
                f"coefficient must be rational, its numerator and denominator of "
                f"at most {limit} digits; got {len(args.coefficient)} characters"
            )
        raise _UsageError(f"coefficient must be rational, got {args.coefficient!r}")
    first, last = predict_shear_vertices(f, b)
    if args.json:
        print(json.dumps({"first": first, "last": last}, indent=2, sort_keys=True))
    else:
        print(f"first vertex:    ({first[0]}, {first[1]})")
        print(f"last vertex:     ({last[0]}, {last[1]})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptcoord",
        description=(
            "Exact Newton-polyhedron analysis and adapted coordinate "
            "construction for bivariate rational polynomials."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full analysis of one polynomial")
    p.add_argument("expr", help="polynomial in x1, x2 (aliases x, y)")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("--svg", metavar="PATH", help="write a Newton-polyhedron SVG")
    p.add_argument(
        "--max-steps",
        type=int,
        default=DEFAULT_MAX_STEPS,
        metavar="N",
        help=f"shear iteration cap (default {DEFAULT_MAX_STEPS})",
    )
    p.add_argument(
        "--no-adapt", action="store_true", help="skip the shear iteration"
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("decay", help="numeric decay-exponent fit")
    p.add_argument("expr")
    p.add_argument("--lambda-min", type=float, required=True)
    p.add_argument("--lambda-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--radius", type=float, default=DEFAULT_RADIUS)
    p.add_argument("--grid", type=int, default=None, help="per-axis cell count")
    p.add_argument(
        "--max-steps",
        type=int,
        default=DEFAULT_MAX_STEPS,
        metavar="N",
        help=f"shear iteration cap for the height (default {DEFAULT_MAX_STEPS})",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decay)

    p = sub.add_parser("clusters", help="Puiseux-root cluster data")
    p.add_argument("expr")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_clusters)

    p = sub.add_parser(
        "predict-shear",
        help="extreme vertices after x2 -> x2 + b*x1^m, computed without expanding",
    )
    p.add_argument("expr", help="weighted-homogeneous polynomial with integer ratio")
    p.add_argument("coefficient", help="shear coefficient b (rational)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_predict_shear)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, PolySyntaxError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except IterationCapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (AdaptcoordError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
