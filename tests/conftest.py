"""Shared generators and strategies for the test suite."""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path
from random import Random

from hypothesis import strategies as st

from adaptcoord import BiPoly, ShearAxis, ShearChange, apply_shear, parse

# the seeded corpus is the height survey's, so the two cannot drift apart
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from height_survey import CORPUS_SEED, random_corpus  # noqa: E402, F401


coefficients = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
).filter(lambda c: c != 0)

exponent_pairs = st.tuples(
    st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8)
)


@st.composite
def bipolys(draw, min_terms: int = 1, max_terms: int = 6) -> BiPoly:
    pairs = draw(
        st.lists(
            exponent_pairs, min_size=min_terms, max_size=max_terms, unique=True
        )
    )
    terms = {pair: draw(coefficients) for pair in pairs}
    return BiPoly(terms)


@st.composite
def analyzable_bipolys(draw) -> BiPoly:
    """Nonzero, vanishing to order >= 2, positive x2-degree."""
    f = draw(
        bipolys(min_terms=2, max_terms=6).filter(
            lambda g: not g.is_zero
            and g.origin_order >= 2
            and g.x2_degree >= 1
        )
    )
    return f


def frac(a: int, b: int = 1) -> Fraction:
    return Fraction(a, b)


def sheared_inputs(n: int, shear=apply_shear) -> list[tuple[BiPoly, BiPoly]]:
    """(base, sheared) pairs: corpus polynomials under 1..3 shears in
    either axis, coefficient +-1 and exponent 1..3, kept while the total
    degree stays <= 10 and the coefficients fit in 16 bits.  `shear`
    applies each shear."""
    rng = Random(7)
    out = []
    for base in random_corpus(6 * n, seed=31_000_000):
        f = base
        for _ in range(rng.randint(1, 3)):
            axis = rng.choice((ShearAxis.X1, ShearAxis.X2))
            b = Fraction(rng.choice((-1, 1)))
            f = shear(f, ShearChange(axis, b, rng.randint(1, 3)))
        if (
            max(j + k for j, k in f.support) <= 10
            and max(abs(c).bit_length() for c in f.num.values()) <= 16
        ):
            out.append((base, f))
            if len(out) == n:
                return out
    raise AssertionError(f"only {len(out)} sheared inputs kept")


def sheared_by(expr: str, *shears: tuple[ShearAxis, int, int]) -> BiPoly:
    """parse(expr) under the shears (axis, b, m), in order."""
    f = parse(expr)
    for axis, b, m in shears:
        f = apply_shear(f, ShearChange(axis, Fraction(b), m))
    return f
