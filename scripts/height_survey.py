#!/usr/bin/env python3
"""Survey heights over a reproducible random corpus.

Draws random bivariate polynomials vanishing to order >= 2 at the origin,
runs the full analysis on each, and tabulates distance, height, principal
face kind, adaptedness, and shear-iteration status.

    python3 scripts/height_survey.py
    python3 scripts/height_survey.py --count 2000 --seed 7 --json
    python3 scripts/height_survey.py --show-nonadapted
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from random import Random

from adaptcoord import (
    DEFAULT_MAX_STEPS,
    AdaptcoordError,
    BiPoly,
    IterationCapExceeded,
    adapt,
    check_adapted,
)

# the corpus of the test suite: tests/conftest.py draws it from here
CORPUS_SEED = 20260822


def random_corpus(n: int, seed: int = CORPUS_SEED) -> list[BiPoly]:
    """Seeded random polynomials: 2..8 terms, total degree of each term
    in [2, 10], integer coefficients in [-5, 5], positive x2-degree,
    vanishing to order >= 2 at the origin."""
    rng = Random(seed)
    out: list[BiPoly] = []
    while len(out) < n:
        terms: dict[tuple[int, int], int] = {}
        for _ in range(rng.randint(2, 8)):
            j = rng.randint(0, 10)
            k = rng.randint(0, 10 - j)
            if j + k < 2:
                continue
            c = rng.randint(-5, 5)
            if c:
                terms[(j, k)] = terms.get((j, k), 0) + c
        f = BiPoly(terms)
        if f.is_zero or f.x2_degree < 1 or f.origin_order < 2:
            continue
        out.append(f)
    return out


def survey_one(f: BiPoly, max_steps: int) -> dict:
    try:
        res = adapt(f, max_steps=max_steps)
        rep = res.input_check
        outcome = {
            "height": str(res.height),
            "height_float": float(res.height),
            "status": res.status.value,
            "jet_length": len(res.jet.terms),
        }
    except IterationCapExceeded:
        rep = check_adapted(f)
        outcome = dict.fromkeys(("height", "height_float", "jet_length"))
        outcome["status"] = "cap-exceeded"
    return {
        "input": str(f),
        "terms": len(f.support),
        "distance": str(rep.distance),
        "face_kind": rep.hull.face.kind.name.lower(),
        "adapted": rep.adapted,
        **outcome,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--seed", type=int, default=CORPUS_SEED)
    ap.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    ap.add_argument("--json", action="store_true")
    ap.add_argument(
        "--show-nonadapted",
        action="store_true",
        help="list every polynomial that needed a coordinate change",
    )
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    corpus = random_corpus(args.count, args.seed)
    try:
        rows = [survey_one(f, args.max_steps) for f in corpus]
    except (AdaptcoordError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - t0
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0

    faces = Counter(r["face_kind"] for r in rows)
    statuses = Counter(r["status"] for r in rows)
    adapted_n = sum(1 for r in rows if r["adapted"])
    heights = sorted(
        (r["height_float"], r["height"])
        for r in rows
        if r["height_float"] is not None
    )
    jet_lengths = Counter(
        r["jet_length"] for r in rows if r["jet_length"] is not None
    )

    print(f"corpus: {len(rows)} polynomials (seed {args.seed})")
    print(f"analysis wall time: {elapsed:.2f}s")
    print()
    print("principal face kinds:")
    for kind, n in faces.most_common():
        print(f"  {kind:20} {n:5}")
    print()
    print("iteration status:")
    for status, n in statuses.most_common():
        print(f"  {status:24} {n:5}")
    print()
    print(f"adapted as given: {adapted_n} / {len(rows)}")
    print()
    print("jet lengths (number of shears needed):")
    for length in sorted(jet_lengths):
        print(f"  {length:2} shears: {jet_lengths[length]:5}")
    print()
    if heights:
        lo_f, lo = heights[0]
        hi_f, hi = heights[-1]
        mid = heights[len(heights) // 2][1]
        print(
            f"height range: {lo} ({lo_f:.3f}) .. {hi} ({hi_f:.3f}), "
            f"median {mid}"
        )
        top = Counter(h for _, h in heights).most_common(8)
        print("most common heights:")
        for h, n in top:
            print(f"  {h:>8} {n:5}")
    if args.show_nonadapted:
        print()
        print("polynomials that needed a coordinate change:")
        for r in rows:
            if not r["adapted"]:
                print(
                    f"  {r['input']}  d={r['distance']}  h={r['height']}  "
                    f"jet length {r['jet_length']}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
