#!/usr/bin/env python3
"""Sweep the numeric decay fit against the exact height prediction.

For each polynomial the oscillatory integral is sampled on a geometric
lambda grid, the decay exponent is fitted, and the result is tabulated
next to the exact value 1/h computed by the shear iteration.

    python3 scripts/decay_experiment.py
    python3 scripts/decay_experiment.py --lambda-max 1e5 --points 9 --json
    python3 scripts/decay_experiment.py "x2^2 - x1^3" "(x2 - x1^2)^2"
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from adaptcoord import DEFAULT_MAX_STEPS, AdaptcoordError, adapt, fit_decay, parse
from adaptcoord.oscillatory import DEFAULT_RADIUS

DEFAULT_CASES = [
    "x1^2 + x2^2",
    "x1*x2",
    "(x2 - x1^2)^2",
    "x1^2*x2^2",
    "x2^2 - x1^3",
    "(x2 - x1^2)^2 + x1^5",
]


def run_case(src: str, args: argparse.Namespace) -> dict:
    f = parse(src)
    t0 = time.perf_counter()
    res = adapt(f, max_steps=args.max_steps)
    est = fit_decay(
        f,
        args.lambda_min,
        args.lambda_max,
        points=args.points,
        radius=args.radius,
    )
    elapsed = time.perf_counter() - t0
    exact = 1 / res.height
    return {
        "input": src,
        "height": str(res.height),
        "status": res.status.value,
        "exact_exponent": str(exact),
        "exact_exponent_float": float(exact),
        "fitted_exponent": est.fitted_exponent,
        "fitted_log_power": est.fitted_log_power,
        "abs_error": abs(est.fitted_exponent - float(exact)),
        "residual": est.residual,
        "seconds": elapsed,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("expressions", nargs="*", default=DEFAULT_CASES)
    ap.add_argument("--lambda-min", type=float, default=10.0)
    ap.add_argument("--lambda-max", type=float, default=1.0e4)
    ap.add_argument("--points", type=int, default=7)
    ap.add_argument("--radius", type=float, default=DEFAULT_RADIUS)
    ap.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args(argv)
    try:
        rows = [run_case(src, args) for src in args.expressions]
    except (AdaptcoordError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    header = (
        f"{'input':32} {'height':>8} {'1/h':>8} {'fitted':>8} "
        f"{'log':>3} {'|err|':>7} {'rms':>7} {'sec':>6}"
    )
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['input']:32} {r['height']:>8} "
            f"{r['exact_exponent_float']:>8.4f} {r['fitted_exponent']:>8.4f} "
            f"{r['fitted_log_power']:>3d} {r['abs_error']:>7.4f} "
            f"{r['residual']:>7.4f} {r['seconds']:>6.2f}"
        )
    worst = max(r["abs_error"] for r in rows)
    print(f"\nworst absolute error: {worst:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
