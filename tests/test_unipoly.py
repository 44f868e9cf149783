"""Exact univariate arithmetic: division, gcd, squarefree split, Sturm
root counting, rational-root extraction."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptcoord import UniPoly
from adaptcoord.errors import NotSquarefree, ZeroPolynomial
from adaptcoord.unipoly import (
    count_real_roots,
    divmod_poly,
    exact_div,
    integer_row,
    isolate_real_roots,
    poly_gcd,
    rational_roots,
    root_bound,
    split_rational_roots,
    squarefree_decompose,
    squarefree_part,
    sturm_chain,
)

coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)
polys = st.lists(coeff, min_size=0, max_size=7).map(UniPoly.from_coeffs)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
small_roots = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    min_size=1,
    max_size=5,
)


def test_construction_drops_trailing_zeros():
    p = UniPoly.from_coeffs([1, 2, 0, 0])
    assert p.degree == 1
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert UniPoly.from_coeffs([0, 0]).is_zero


def test_evaluate_and_derivative():
    p = UniPoly.from_coeffs([1, -3, 0, 2])  # 1 - 3y + 2y^3
    assert p.evaluate(2) == 1 - 6 + 16
    assert p.derivative().coeffs == (Fraction(-3), Fraction(0), Fraction(6))
    assert UniPoly.zero().derivative().is_zero


def test_from_roots_vanishes_exactly_at_roots():
    p = UniPoly.from_roots([1, 1, Fraction(-1, 2)])
    assert p.degree == 3
    assert p.evaluate(1) == 0
    assert p.evaluate(Fraction(-1, 2)) == 0
    assert p.evaluate(2) != 0


@given(polys, nonzero_polys)
def test_divmod_identity(a, b):
    q, r = divmod_poly(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


def test_divmod_rejects_zero_divisor():
    with pytest.raises(ZeroPolynomial):
        divmod_poly(UniPoly.one(), UniPoly.zero())


@given(polys, nonzero_polys)
def test_exact_div_inverts_multiplication(a, b):
    assert exact_div(a * b, b) == a


def test_exact_div_rejects_remainder():
    with pytest.raises(ValueError):
        exact_div(UniPoly.from_coeffs([1, 1]), UniPoly.from_coeffs([0, 1]))


@given(nonzero_polys, nonzero_polys, nonzero_polys)
@settings(max_examples=60)
def test_gcd_divides_and_catches_common_factor(a, b, c):
    g = poly_gcd(a * c, b * c)
    _, r1 = divmod_poly(a * c, g)
    _, r2 = divmod_poly(b * c, g)
    _, r3 = divmod_poly(g, c)
    assert r1.is_zero and r2.is_zero
    assert r3.is_zero  # gcd is a multiple of every common factor
    assert g.leading == 1  # monic normalization


def test_integer_row_strips_content():
    p = UniPoly.from_coeffs([Fraction(2, 3), Fraction(4, 3)])
    assert integer_row(p) == [1, 2]
    assert integer_row(p.scale(Fraction(-7, 5))) == [1, 2]
    with pytest.raises(ZeroPolynomial):
        integer_row(UniPoly.zero())


@given(small_roots)
@settings(max_examples=60)
def test_squarefree_decompose_reexpands(roots):
    p = UniPoly.from_roots(roots)
    dec = squarefree_decompose(p)
    assert dec.expand() == p
    seen = set()
    for factor, mult in dec.factors:
        assert mult >= 1
        assert mult not in seen  # one factor per multiplicity class
        seen.add(mult)
        g = poly_gcd(factor, factor.derivative())
        assert g.degree == 0  # each factor squarefree


def test_squarefree_part_drops_multiplicity():
    p = UniPoly.from_roots([1, 1, 1, -2])
    sf = squarefree_part(p)
    assert sf.monic() == UniPoly.from_roots([1, -2]).monic()


def test_sturm_chain_signs():
    # (y-1)(y+2): chain must end in a constant, no two consecutive zeros
    p = UniPoly.from_roots([1, -2])
    chain = sturm_chain(p)
    assert chain[0] == integer_row(p)
    assert len(chain[-1]) == 1


@given(small_roots)
@settings(max_examples=80)
def test_count_real_roots_matches_distinct_rational_roots(roots):
    p = UniPoly.from_roots(roots)
    assert count_real_roots(squarefree_part(p)) == len(set(roots))


def test_count_real_roots_on_intervals():
    p = UniPoly.from_roots([0, 2, 5])
    assert count_real_roots(p, Fraction(1), Fraction(5)) == 2  # (1, 5]
    assert count_real_roots(p, Fraction(0), Fraction(5)) == 2  # 0 excluded
    assert count_real_roots(p, None, Fraction(0)) == 1
    assert count_real_roots(UniPoly.from_coeffs([1, 0, 1])) == 0


def test_sturm_queries_reject_repeated_roots():
    p = UniPoly.from_roots([1, 1, -2])  # (y - 1)^2 * (y + 2)
    with pytest.raises(NotSquarefree):
        count_real_roots(p)
    with pytest.raises(NotSquarefree):
        count_real_roots(p, Fraction(0), Fraction(5))
    with pytest.raises(NotSquarefree):
        isolate_real_roots(p)


@given(small_roots)
@settings(max_examples=60)
def test_root_bound_dominates_rational_roots(roots):
    p = UniPoly.from_roots(roots)
    bound = root_bound(p)
    assert all(abs(r) <= bound for r in roots)


@given(small_roots)
@settings(max_examples=60)
def test_isolate_real_roots_separates(roots):
    p = UniPoly.from_roots(roots)
    boxes = isolate_real_roots(squarefree_part(p))
    assert len(boxes) == len(set(roots))
    for lo, hi in boxes:
        assert lo < hi or (lo == hi and p.evaluate(lo) == 0)
    # each distinct root falls in exactly one half-open box (lo, hi]
    for r in set(roots):
        assert sum(1 for lo, hi in boxes if lo < r <= hi) == 1


@given(small_roots, st.integers(min_value=1, max_value=3))
@settings(max_examples=60)
def test_split_rational_roots_complete(roots, extra):
    # irreducible cofactor y^2 + extra has no rational roots
    p = UniPoly.from_roots(roots) * UniPoly.from_coeffs([extra, 0, 1])
    found, cofactor = split_rational_roots(p)
    assert sorted(r for r, _ in found) == sorted(set(roots))
    for r, m in found:
        assert m == roots.count(r)
        assert cofactor.evaluate(r) != 0
    rebuilt = cofactor
    for r, m in found:
        rebuilt = rebuilt * UniPoly.from_roots([r] * m)
    assert rebuilt.monic() == p.monic()


def test_rational_roots_plain():
    p = UniPoly.from_coeffs([2, -3, 1])  # (y-1)(y-2)
    assert rational_roots(p) == [(Fraction(1), 1), (Fraction(2), 1)]


def test_rational_roots_with_fractional_root():
    p = UniPoly.from_coeffs([-1, 0, 0, 2])  # 2y^3 - 1 has no rational root
    assert rational_roots(p) == []
    q = UniPoly.from_coeffs([-1, 2]) ** 2  # (2y - 1)^2
    assert rational_roots(q) == [(Fraction(1, 2), 2)]
    big = Fraction(10**30 + 57, 7)  # 30-digit numerator
    r = UniPoly.from_coeffs([-(10**30 + 57), 7]) ** 2 * UniPoly.from_coeffs([-2, 0, 1])
    assert rational_roots(r) == [(big, 2)]


# Oracles for the integer kernels: the inputs are built, and the answers
# checked, with Fraction products and the reference Euclid only.


def _in_box(lo, hi, below) -> bool:
    """Whether lo < root <= hi, where below(x) says whether x < root; an
    end of None is infinite."""
    return (lo is None or below(lo)) and (hi is None or not below(hi))


def _with_known_roots(c, rs, ks, ls, ms):
    """c * prod(y - r) * prod(y^2 - k) * prod(y^3 - l) * prod(y^2 + m) for
    distinct rational r, non-square k > 0, non-cube l and m > 0; with it
    the rational roots, and every real root given by a test of x < root
    that compares powers, never a root."""
    p = UniPoly.constant(c)
    for r in rs:
        p = p * UniPoly.from_coeffs([-r, 1])
    for k in ks:
        p = p * UniPoly.from_coeffs([-k, 0, 1])
    for l in ls:
        p = p * UniPoly.from_coeffs([-l, 0, 0, 1])
    for m in ms:
        p = p * UniPoly.from_coeffs([m, 0, 1])
    roots = [lambda x, r=r: x < r for r in rs]
    roots += [lambda x, k=k: x < 0 or x * x < k for k in ks]  # sqrt(k)
    roots += [lambda x, k=k: x < 0 and x * x > k for k in ks]  # -sqrt(k)
    roots += [lambda x, l=l: x**3 < l for l in ls]  # cube root of l
    return p, rs, roots


def _known_roots_cases(rng: Random):
    # remainder sequences that drop two degrees at a negative leading
    # coefficient, where a signed pseudo-division would flip an entry
    yield _with_known_roots(5, [0], [], [-4], [])
    yield _with_known_roots(-(2**64), [], [3], [-2], [3])
    non_squares = [k for k in range(2, 120) if round(k ** 0.5) ** 2 != k]
    non_cubes = [l for l in range(-60, 61) if all(i**3 != l for i in range(-4, 5))]
    for _ in range(50):
        yield _with_known_roots(
            rng.choice([1, -1]) * rng.randint(1, 2**64),
            list({Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(rng.randint(0, 4))}),
            rng.sample(non_squares, rng.randint(0, 3)),
            rng.sample(non_cubes, rng.randint(0, 2)),
            rng.sample(range(1, 50), rng.randint(0, 2)),
        )


def test_sturm_queries_match_known_roots():
    rng = Random(11)
    for p, rational, roots in _known_roots_cases(rng):
        assert count_real_roots(p) == len(roots)
        ends = [None] + [Fraction(rng.randint(-130, 130), rng.randint(1, 12)) for _ in range(4)]
        ends += rational  # ends on a root
        for lo in ends:
            for hi in ends:
                if lo is not None and hi is not None and lo >= hi:
                    continue
                expected = sum(_in_box(lo, hi, below) for below in roots)
                assert count_real_roots(p, lo, hi) == expected
        for width in (None, Fraction(1, 1000)):
            boxes = isolate_real_roots(p, width)
            assert len(boxes) == len(roots)
            assert all(a[1] <= b[0] for a, b in zip(boxes, boxes[1:]))
            assert width is None or all(hi - lo < width for lo, hi in boxes)
            for below in roots:
                assert sum(_in_box(lo, hi, below) for lo, hi in boxes) == 1


def test_squarefree_decompose_products_of_powers():
    rng = Random(12)
    for _ in range(40):
        p = UniPoly.constant(Fraction(rng.randint(1, 2**64), rng.randint(1, 2**32)))
        for _ in range(rng.randint(1, 4)):
            base = UniPoly.from_coeffs(
                [Fraction(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
                + [rng.choice([1, -2, 3])]
            )
            p = p * base ** rng.randint(1, 4)
        dec = squarefree_decompose(p)
        assert dec.expand() == p
        mults = [j for _, j in dec.factors]
        assert mults == sorted(set(mults))
        for i, (f, _) in enumerate(dec.factors):
            assert f.degree >= 1 and f.leading == 1
            assert poly_gcd(f, f.derivative()).degree == 0
            for g, _ in dec.factors[i + 1:]:
                assert poly_gcd(f, g).degree == 0
