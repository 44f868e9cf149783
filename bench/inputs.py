"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload seed.  The program under
test only ever receives the generated polynomials or argument lists.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

from adaptcoord import BiPoly, ShearAxis, ShearChange, apply_shear

# the seed of tests/conftest.py::random_corpus; workload seed n uses
# CORPUS_SEED + n, so seed 0 reproduces the corpus of the test suite
CORPUS_SEED = 20260822
CORPUS_SIZE = 1000

# corpus-sheared draws its base polynomials and its shears from seeds of
# its own, so it never shares a polynomial stream with corpus-random
SHEARED_BASE_SEED = 31_000_000
SHEARED_SHEAR_SEED = 47_000_000
SHEARED_SIZE = 2000
# corpus-sheared is one fixed corpus, pooled from corpus seeds
# 0..SHEARED_POOL-1 (SHEARED_SIZE // SHEARED_POOL inputs each); the
# workload seed only rotates its order.  Drawn afresh for each seed, its
# few certified inputs, at 0.1 to 0.85 s against 2 ms for the rest, moved
# reports_per_s by 17% between seeds, and one seed's corpus can lack them
# altogether (see README)
SHEARED_POOL = 10
# a drawn (base, shears) pair is left out when a composition step,
# counted without cancellation, exceeds this total degree, or when the
# composed coefficients exceed this many bits (see README)
SHEARED_MAX_DEGREE = 10
SHEARED_MAX_COEFF_BITS = 16
SHEAR_COEFFICIENTS = (-1, 1)
SHEAR_MAX_EXPONENT = 3
# a terminating run at total degree <= 10 needs at most 10 shears, and
# the certificate, tried at the cap, does not depend on it (see README)
SHEARED_MAX_STEPS = 10

def recipe(rng: random.Random) -> Iterator[BiPoly]:
    """The polynomial recipe of tests/conftest.py::random_corpus: 2..8
    terms, total degree of each term in [2, 10], integer coefficients in
    [-5, 5], positive x2-degree, vanishing to order >= 2 at the origin."""
    while True:
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
        yield f


def random_corpus(n: int, seed: int) -> list[BiPoly]:
    """The first n polynomials of the recipe under `seed`."""
    stream = recipe(random.Random(seed))
    return [next(stream) for _ in range(n)]


def corpus_random(seed: int) -> list[BiPoly]:
    return random_corpus(CORPUS_SIZE, CORPUS_SEED + seed)


def random_shears(rng: random.Random) -> tuple[ShearChange, ...]:
    """1..3 shears, each in either axis, exponent 1..SHEAR_MAX_EXPONENT,
    coefficient in SHEAR_COEFFICIENTS."""
    return tuple(
        ShearChange(
            rng.choice((ShearAxis.X1, ShearAxis.X2)),
            Fraction(rng.choice(SHEAR_COEFFICIENTS)),
            rng.randint(1, SHEAR_MAX_EXPONENT),
        )
        for _ in range(rng.randint(1, 3))
    )


def sheared_support(
    support: frozenset[tuple[int, int]], shear: ShearChange
) -> frozenset[tuple[int, int]]:
    """Support of the sheared polynomial, counted without cancellation."""
    m = shear.exponent
    if shear.axis is ShearAxis.X2:
        return frozenset(
            (j + m * (k - i), i) for j, k in support for i in range(k + 1)
        )
    return frozenset(
        (i, k + m * (j - i)) for j, k in support for i in range(j + 1)
    )


def coeff_bits(f: BiPoly) -> int:
    return max(
        max(abs(c.numerator).bit_length(), c.denominator.bit_length())
        for c in f.terms().values()
    )


def compose(f: BiPoly, shears: tuple[ShearChange, ...]) -> BiPoly | None:
    """f under the shears in order, or None when the composition leaves
    the size limits."""
    support = f.support
    for s in shears:
        support = sheared_support(support, s)
        if max(j + k for j, k in support) > SHEARED_MAX_DEGREE:
            return None
    for s in shears:
        f = apply_shear(f, s)
    return f if coeff_bits(f) <= SHEARED_MAX_COEFF_BITS else None


def rotated(items: tuple, seed: int) -> list:
    k = seed % len(items)
    return list(items[k:] + items[:k])


def corpus_sheared(
    seed: int, n: int
) -> tuple[list[tuple[BiPoly, tuple[ShearChange, ...], BiPoly]], int]:
    """n triples (base, shears, sheared), and the number of drawn pairs
    left out by the size limits."""
    bases = recipe(random.Random(SHEARED_BASE_SEED + seed))
    rng = random.Random(SHEARED_SHEAR_SEED + seed)
    out = []
    left_out = 0
    while len(out) < n:
        f = next(bases)
        shears = random_shears(rng)
        g = compose(f, shears)
        if g is None:
            left_out += 1
            continue
        out.append((f, shears, g))
    return out, left_out


def sheared_workload(seed: int):
    """The corpus-sheared inputs of workload seed `seed`: the pooled
    corpus, rotated by the seed, and its count of left-out draws."""
    triples, left_out = [], 0
    for k in range(SHEARED_POOL):
        part, left = corpus_sheared(k, SHEARED_SIZE // SHEARED_POOL)
        triples += part
        left_out += left
    return rotated(tuple(triples), seed), left_out


# deep-jet: (name, expression, shears applied after parsing, max_steps,
# known height, reference).  The cases are fixed; the seed only rotates
# their order.  The reference is the one whose kind of work matches the
# case's load (see reference.py): "loop" for the cases bound by trial
# division in unipoly._divisors, "warm" for the others.
DEEP_CASES = (
    ("jet-1+x1", "(x2*(1 + x1) - x1^2)^2", (), 64, Fraction(2), "warm"),
    ("jet-3+x1", "(x2*(3 + x1) - 2*x1^2)^2", (), 24, Fraction(2), "loop"),
    ("morse-14", "x2^2 + 10000000000037*x1^2", (), 64, Fraction(1), "loop"),
    (
        "sheared-triple",
        "5*x2^4 + 2*x1^2*x2^3",
        (
            ShearChange(ShearAxis.X2, Fraction(-1), 2),
            ShearChange(ShearAxis.X2, Fraction(1), 1),
            ShearChange(ShearAxis.X1, Fraction(1), 2),
        ),
        8,
        Fraction(3),
        "warm",
    ),
)
# fails on every run: trial division in unipoly._divisors runs to
# sqrt(a0), about 3e14 steps here
DEEP_FAILING = ("morse-29", "x2^2 + 100000000000000000000000000057*x1^2")
DEEP_DEADLINE_S = 0.5




# cli-cold: curated inputs whose heights are known in closed form
CLI_CASES = (
    ("x1^2 + x2^2", Fraction(1)),
    ("(x2 - x1^2)^2", Fraction(2)),
    ("(x2 - x1^2)^2 + x1^5", Fraction(10, 7)),
    ("(x2^2 - x1^3)^2", Fraction(12, 5)),
)
CLI_FORMS = ("text", "json", "svg")
DECAY_PER_ROUND = 3
# the lambda range of acceptance criterion 7
DECAY_EXPR = "(x2 - x1^2)^2"
DECAY_ARGS = ("--lambda-min", "10", "--lambda-max", "1e4", "--points", "7")
# the cli_decay_s probe on the other workloads: a cold decay over a
# shorter range, about 0.3 s instead of 1.3 s, so that it can take more
# samples in less time; most of its time is the cold start
PROBE_DECAY_ARGS = ("--lambda-min", "10", "--lambda-max", "1e3", "--points", "5")
DECAY_HEIGHT = Fraction(2)
