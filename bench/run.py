#!/usr/bin/env python3
"""Benchmark for adaptcoord: one workload, one seed, one JSON result.

    python3 bench/run.py --workload corpus-random --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1.  Progress and notes go to
standard error.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOAD_NAMES = ("corpus-random", "corpus-sheared", "deep-jet", "cli-cold")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    src = root / "src"
    if not (src / "adaptcoord" / "__init__.py").is_file():
        print(f"error: no adaptcoord sources under {src}", file=sys.stderr)
        return 2
    # one process, no extra threads: numpy's BLAS pools stay single, here
    # and in the CLI subprocesses, which inherit the environment
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import adaptcoord

    if Path(adaptcoord.__file__).resolve().parent != (src / "adaptcoord").resolve():
        print(f"error: imported adaptcoord from {adaptcoord.__file__}", file=sys.stderr)
        return 2
    from workloads import run_workload

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
