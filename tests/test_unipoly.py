"""Exact univariate arithmetic: the integer-row type, the Q reference
(division, gcd), squarefree split, Sturm root counting, rational-root
extraction."""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adaptcoord import UniPoly, unipoly
from adaptcoord.errors import NotSquarefree, ZeroPolynomial
from adaptcoord.unipoly import (
    _root_bound,
    _sturm_chain,
    _z_deriv,
    _z_eval,
    _z_gcd,
    _z_pack,
    _z_sub,
    _z_unpack,
    count_real_roots,
    exact_real_roots,
    integer_row,
    isolate_real_roots,
    rational_roots,
    split_rational_roots,
    squarefree_decompose,
)
from q_reference import (
    _z_mul,
    chain_exact_real_roots,
    digit_adic,
    divmod_poly,
    exact_div,
    poly_gcd,
)

coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)
# tuples of Fractions with no trailing zeros: the Q reference's input
polys = st.lists(coeff, min_size=0, max_size=7).filter(
    lambda cs: not cs or cs[-1] != 0
).map(tuple)
nonzero_polys = polys.filter(bool)
small_roots = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    min_size=1,
    max_size=5,
)


def _q(row) -> tuple[Fraction, ...]:
    return tuple(map(Fraction, row))


def _linear(r: Fraction) -> list[int]:
    """d*y - n for r = n/d in lowest terms."""
    return [-r.numerator, r.denominator]


def _product(rows) -> list[int]:
    out = [1]
    for row in rows:
        out = _z_mul(out, row)
    return out


def _from_roots(roots) -> UniPoly:
    """prod(d*y - n) over the roots n/d, with multiplicity: primitive, its
    leading coefficient positive."""
    return UniPoly.from_coeffs(_product(_linear(Fraction(r)) for r in roots))


def test_construction_drops_trailing_zeros():
    p = UniPoly.from_coeffs([1, 2, 0, 0])
    assert p.degree == 1
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert UniPoly.from_coeffs([0, 0]).is_zero


def test_from_coeffs_takes_only_ints():
    for bad in (Fraction(1, 2), 1.0):
        with pytest.raises(TypeError):
            UniPoly.from_coeffs([1, bad])
    p = UniPoly.from_coeffs([3, 0, -2, 0, 0])
    assert p.coeffs == (3, 0, -2) and all(type(c) is int for c in p.coeffs)


@given(polys, nonzero_polys)
def test_divmod_identity(a, b):
    q, r = divmod_poly(a, b)
    assert tuple(_z_sub(list(a), _z_mul(list(q), list(b)))) == r
    assert len(r) < len(b)


def test_divmod_rejects_zero_divisor():
    with pytest.raises(ZeroPolynomial):
        divmod_poly((Fraction(1),), ())


@given(polys, nonzero_polys)
def test_exact_div_inverts_multiplication(a, b):
    assert exact_div(tuple(_z_mul(list(a), list(b))), b) == a


def test_exact_div_rejects_remainder():
    with pytest.raises(ValueError):
        exact_div(_q([1, 1]), _q([0, 1]))


@given(nonzero_polys, nonzero_polys, nonzero_polys)
@settings(max_examples=60)
def test_gcd_divides_and_catches_common_factor(a, b, c):
    ac, bc = tuple(_z_mul(list(a), list(c))), tuple(_z_mul(list(b), list(c)))
    g = poly_gcd(ac, bc)
    _, r1 = divmod_poly(ac, g)
    _, r2 = divmod_poly(bc, g)
    _, r3 = divmod_poly(g, c)
    assert not r1 and not r2
    assert not r3  # gcd is a multiple of every common factor
    assert g[-1] == 1  # monic normalization


def test_gcd_cofactors_with_a_zero_or_constant_input():
    assert _z_gcd([-4, -6], []) == ([2, 3], [-2], [])
    assert _z_gcd([], [4, 6]) == ([2, 3], [], [2])
    assert _z_gcd([5], [1, 2]) == ([1], [5], [1, 2])
    # a nonzero constant: the integer gcd divides it, one digit, read back as [1]
    assert _z_gcd([-6], [4]) == ([1], [-6], [4])
    assert _z_gcd([1, 0, 1], [3]) == ([1], [1, 0, 1], [3])
    assert _z_gcd([-7], [2, 0, -3, 1]) == ([1], [-7], [2, 0, -3, 1])


z_rows = st.lists(st.integers(min_value=-9, max_value=9), max_size=7).filter(
    lambda r: not r or r[-1] != 0
)


@given(z_rows, z_rows, z_rows.filter(bool))
@settings(max_examples=300)
@example([], [3], [1])
@example([-6], [], [1])
@example([0, -2], [0, 0, -4], [1])
@example([1, 1], [2, -1], [-3, 0, 1])
@example([-5], [4], [-2, 2])
def test_gcd_lift_matches_euclid_on_every_pair(a, b, common):
    # one lift for every pair: zero rows, constants, negative leading
    # coefficients, a common factor of either sign and any content
    a, b = _z_mul(a, common), _z_mul(b, common)
    assume(a or b)
    g, qa, qb = _z_gcd(a, b)
    assert g[-1] > 0 and gcd(*g) == 1
    assert _z_mul(g, qa) == a and _z_mul(g, qb) == b
    ref = poly_gcd(_q(a), _q(b))
    assert _q(g) == tuple(c * g[-1] for c in ref)


nonzero_ints = st.integers(min_value=-12, max_value=12).filter(bool)
int_rows = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6).filter(
    lambda r: r[-1] != 0
)


@given(
    st.integers(min_value=-12, max_value=12),
    nonzero_ints,
    nonzero_ints,
    int_rows,
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=200)
@example(3, 2, -3, [1, 1], True, False)
@example(-4, -5, 2, [0, 0, 1], False, True)
def test_gcd_with_a_linear_argument(c0, c1, content, other, divisible, linear_first):
    # content*(c1*y + c0): content and a negative leading coefficient;
    # `other` times its primitive part when `divisible`
    lin = [content * c0, content * c1]
    if divisible:
        other = _z_mul(other, [c0 // gcd(c0, c1), c1 // gcd(c0, c1)])
    a, b = (lin, other) if linear_first else (other, lin)
    g, qa, qb = _z_gcd(a, b)
    assert g[-1] > 0 and gcd(*g) == 1
    assert _z_mul(g, qa) == a and _z_mul(g, qb) == b
    ref = poly_gcd(_q(a), _q(b))
    assert _q(g) == tuple(c * g[-1] for c in ref)
    if divisible:
        assert len(g) == 2


@given(st.integers(min_value=2, max_value=70), st.integers(min_value=0, max_value=40), st.data())
@settings(max_examples=200)
@example(2, 3, None)
@example(3, 40, None)
def test_adic_digits_match_the_digit_loop(k, width, data):
    # up to 41 digits: the read-back cuts more than 16 slices in halves
    xi = 2**k
    bound = xi**width
    hs = [0, bound, -bound, bound // 2, -(bound // 2), xi // 2, -(xi // 2)]
    if data is not None:
        hs.append(data.draw(st.integers(min_value=-bound, max_value=bound)))
    for h in hs:
        digits = _z_unpack(h, k)
        assert digits == digit_adic(h, xi)
        assert _z_pack(digits, k) == h


def test_integer_row_strips_content():
    assert integer_row(UniPoly.from_coeffs([2, 4])) == [1, 2]
    assert integer_row(UniPoly.from_coeffs([-14, -28])) == [1, 2]
    with pytest.raises(ZeroPolynomial):
        integer_row(UniPoly.from_coeffs([]))


def _check_decomposition(p: UniPoly, factors) -> None:
    """factors is p's squarefree decomposition: primitive factors with
    positive leading coefficients, one per multiplicity, increasing, each
    squarefree and the factors pairwise coprime over Q, whose product of
    powers is p's primitive row, so p up to an integer constant."""
    mults = [j for _, j in factors]
    assert mults == sorted(set(mults)) and all(j >= 1 for j in mults)
    for i, (f, _) in enumerate(factors):
        assert f.degree >= 1 and f.coeffs[-1] > 0 and gcd(*f.coeffs) == 1
        assert len(poly_gcd(_q(f.coeffs), _q(_z_deriv(list(f.coeffs))))) == 1
        for g, _ in factors[i + 1:]:
            assert len(poly_gcd(_q(f.coeffs), _q(g.coeffs))) == 1
    expanded = _product(list(f.coeffs) for f, j in factors for _ in range(j))
    assert expanded == integer_row(p)


@given(small_roots)
@settings(max_examples=60)
def test_squarefree_decompose_reexpands(roots):
    p = _from_roots(roots)
    factors = squarefree_decompose(p)
    _check_decomposition(p, factors)
    assert sorted(j for _, j in factors) == sorted(set(map(roots.count, roots)))


def test_sturm_chain_signs():
    # (y-1)(y+2): chain must end in a constant, no two consecutive zeros
    p = _from_roots([1, -2])
    chain = _sturm_chain(integer_row(p))
    assert chain[0] == integer_row(p)
    assert len(chain[-1]) == 1


@given(small_roots)
@settings(max_examples=80)
def test_count_real_roots_matches_distinct_rational_roots(roots):
    p = _from_roots(roots)
    counts = [count_real_roots(f) for f, _ in squarefree_decompose(p)]
    assert sum(counts) == len(set(roots))


def test_count_real_roots_on_intervals():
    p = _from_roots([0, 2, 5])
    assert count_real_roots(p, Fraction(1), Fraction(5)) == 2  # (1, 5]
    assert count_real_roots(p, Fraction(0), Fraction(5)) == 2  # 0 excluded
    assert count_real_roots(p, None, Fraction(0)) == 1
    assert count_real_roots(UniPoly.from_coeffs([1, 0, 1])) == 0


def test_count_real_roots_of_a_constant_goes_through_its_chain():
    # one chain entry: no sign change anywhere, and the interval is
    # checked as for every other polynomial
    c = UniPoly((3,))
    assert count_real_roots(c) == 0
    assert count_real_roots(c, Fraction(-1), Fraction(2)) == 0
    with pytest.raises(ValueError, match="empty interval"):
        count_real_roots(c, Fraction(1), Fraction(1))


def test_sturm_queries_reject_repeated_roots():
    p = _from_roots([1, 1, -2])  # (y - 1)^2 * (y + 2)
    with pytest.raises(NotSquarefree):
        count_real_roots(p)
    with pytest.raises(NotSquarefree):
        count_real_roots(p, Fraction(0), Fraction(5))
    with pytest.raises(NotSquarefree):
        isolate_real_roots(p)


@given(small_roots)
@settings(max_examples=60)
def test_root_bound_dominates_rational_roots(roots):
    p = _from_roots(roots)
    bound = _root_bound(integer_row(p))
    assert all(abs(r) <= bound for r in roots)


def _cauchy_bound_of_the_coefficients(p: UniPoly) -> Fraction:
    """The bound off p's own coefficients, content and all."""
    lead = abs(p.coeffs[-1])
    ceiling = -(-(lead + max(map(abs, p.coeffs[:-1]), default=0)) // lead)
    return Fraction(1 << (ceiling - 1).bit_length())


@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=6).filter(
        lambda r: r[-1] != 0
    ),
    st.integers(min_value=-12, max_value=12).filter(bool),
)
@settings(max_examples=100)
@example([1], 1)
@example([-3], 7)
@example([10**30], -1)
def test_root_bound_reads_the_primitive_row(row, content):
    # the ratio max|c|/|lc| does not change when the content is divided out,
    # and a nonzero constant has no other coefficient: its bound is 1
    p = UniPoly.from_coeffs(row)
    scaled = UniPoly.from_coeffs(content * c for c in row)
    bound = _root_bound(integer_row(p))
    assert bound == _root_bound(integer_row(scaled)) == _cauchy_bound_of_the_coefficients(p)
    if len(row) == 1:
        assert bound == 1


@pytest.mark.parametrize(
    "entry",
    [
        squarefree_decompose,
        count_real_roots,
        isolate_real_roots,
        exact_real_roots,
        rational_roots,
    ],
)
def test_root_and_decomposition_entries_refuse_zero(entry):
    # integer_row is the one zero check, reached before any other work
    with pytest.raises(ZeroPolynomial):
        entry(UniPoly(()))


def test_exact_real_roots_reads_the_primitive_row_once(monkeypatch):
    calls = []
    monkeypatch.setattr(
        unipoly, "integer_row", lambda p: calls.append(p) or integer_row(p)
    )
    assert exact_real_roots(UniPoly((-6, 1, 1))) == [
        (Fraction(-7, 2), -3, -3),
        (Fraction(3, 2), 2, 2),
    ]
    assert len(calls) == 1


@pytest.mark.parametrize(
    "a, b",
    [
        ([1, 2], [3, 4, 5]),
        ([1, 2, 3], [1, 2, 3]),
        ([4, 5, 6], [4, 5]),
        ([0, 1, 7], [5]),
        ([], [2, -1]),
        ([3], []),
    ],
)
def test_z_sub_pads_the_shorter_row_and_leaves_a_alone(a, b):
    before = list(a)
    n = max(len(a), len(b))
    expected = [x - y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))]
    while expected and not expected[-1]:
        expected.pop()
    assert _z_sub(a, b) == expected
    assert a == before


@given(small_roots)
@settings(max_examples=60)
@example([])  # the constant 1: no root, no interval
def test_isolate_real_roots_separates(roots):
    p = _from_roots(set(roots))
    boxes = isolate_real_roots(p)
    assert len(boxes) == len(set(roots))
    assert all(lo < hi for lo, hi in boxes)
    # each distinct root falls in exactly one half-open box (lo, hi]
    for r in set(roots):
        assert sum(1 for lo, hi in boxes if lo < r <= hi) == 1


@given(small_roots, st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=6))
@settings(max_examples=60)
def test_split_rational_roots_complete(roots, extra, content):
    # irreducible cofactor y^2 + extra has no rational roots
    p = UniPoly.from_coeffs(_z_mul(list(_from_roots(roots).coeffs), [content * extra, 0, content]))
    found, cofactor = split_rational_roots(p)
    assert sorted(r for r, _ in found) == sorted(set(roots))
    for r, m in found:
        assert m == roots.count(r)
        assert _z_eval(list(cofactor.coeffs), r.numerator, r.denominator) != 0
    # p == cofactor * prod((d*y - n)**m), content and all
    linear = _product(_linear(r) for r, m in found for _ in range(m))
    rebuilt = _z_mul(list(cofactor.coeffs), linear)
    assert rebuilt == list(p.coeffs)
    assert cofactor.coeffs == (content * extra, 0, content)


def test_rational_roots_plain():
    p = UniPoly.from_coeffs([2, -3, 1])  # (y-1)(y-2)
    assert rational_roots(p) == [(Fraction(1), 1), (Fraction(2), 1)]


def test_rational_roots_with_fractional_root():
    p = UniPoly.from_coeffs([-1, 0, 0, 2])  # 2y^3 - 1 has no rational root
    assert rational_roots(p) == []
    q = UniPoly.from_coeffs(_product([[-1, 2]] * 2))  # (2y - 1)^2
    assert rational_roots(q) == [(Fraction(1, 2), 2)]
    big = Fraction(10**30 + 57, 7)  # 30-digit numerator
    r = UniPoly.from_coeffs(_product([[-(10**30 + 57), 7]] * 2 + [[-2, 0, 1]]))
    assert rational_roots(r) == [(big, 2)]


# Oracles for the integer kernels: the inputs are built as products of
# integer rows, and the answers checked with rational comparisons and the
# reference Euclid only.


def _in_box(lo, hi, below) -> bool:
    """Whether lo < root <= hi, where below(x) says whether x < root; an
    end of None is infinite."""
    return (lo is None or below(lo)) and (hi is None or not below(hi))


def _with_known_roots(c, rs, ks, ls, ms):
    """c * prod(d*y - n) * prod(y^2 - k) * prod(y^3 - l) * prod(y^2 + m)
    for distinct rational r = n/d, non-square k > 0, non-cube l and m > 0;
    with it the rational roots, and every real root given by a test of
    x < root that compares powers, never a root."""
    p = UniPoly.from_coeffs(_product(
        [[c]] + [_linear(Fraction(r)) for r in rs] + [[-k, 0, 1] for k in ks]
        + [[-l, 0, 0, 1] for l in ls] + [[m, 0, 1] for m in ms]
    ))
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
        boxes = isolate_real_roots(p)
        assert len(boxes) == len(roots)
        assert all(a[1] <= b[0] for a, b in zip(boxes, boxes[1:]))
        for below in roots:
            assert sum(_in_box(lo, hi, below) for lo, hi in boxes) == 1
        an = integer_row(p)[-1]
        narrow = exact_real_roots(p)
        assert len(narrow) == len(roots)
        for lo, hi, value in narrow:
            assert an * (hi - lo) < 1
            inside = [Fraction(r) for r in rational if lo < r <= hi]
            assert value == (inside[0] if inside else None)
        for below in roots:
            assert sum(_in_box(lo, hi, below) for lo, hi, _ in narrow) == 1


@given(
    st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=5),
    st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=9), max_size=3),
    st.lists(st.integers(min_value=1, max_value=40), max_size=2),
    st.one_of(st.none(), st.integers(min_value=2**64 + 1, max_value=2**80)),
)
@example([0, 1], [], [], None)
@example([0, 2], [Fraction(1, 3)], [2], 2**64 + 1)
@settings(max_examples=50, deadline=None)
def test_exact_real_roots_match_the_chain_reference(ints, fracs, ks, big):
    """Halving by the sign of p makes the chain's halvings.  Integer roots
    land on interval ends (0 on the first midpoint) and so reach p(hi) = 0;
    k = 1, 4, 9, ... in y^2 - k adds more.  big*y - (big + 1), leading
    coefficient above 2^64, has a root within 1/big of the integer 1."""
    rows = [_linear(Fraction(r)) for r in set(ints) | set(fracs)] + [[-k, 0, 1] for k in ks]
    if big is not None:
        rows.append([-(big + 1), big])
    for factor, _ in squarefree_decompose(UniPoly.from_coeffs(_product(rows))):
        assert exact_real_roots(factor) == chain_exact_real_roots(factor)


def _halvings(lo: Fraction, hi: Fraction, roots) -> int:
    """How many intervals isolation halves inside (lo, hi]: those holding
    two or more of the roots."""
    if sum(lo < r <= hi for r in roots) < 2:
        return 0
    mid = (lo + hi) / 2
    return 1 + _halvings(lo, mid, roots) + _halvings(mid, hi, roots)


def test_isolation_evaluates_the_chain_once_per_point(monkeypatch):
    points = []
    variations = unipoly._variations

    def counted(chain, x, positive_end):
        points.append(x)
        return variations(chain, x, positive_end)

    monkeypatch.setattr(unipoly, "_variations", counted)
    for roots in ([0, 1], [-3, Fraction(1, 2), 2, Fraction(7, 3)], list(range(-5, 6))):
        p = _from_roots(roots)
        bound = _root_bound(integer_row(p))
        points.clear()
        isolate_real_roots(p)
        mids = _halvings(-bound, bound, [Fraction(r) for r in roots])
        assert mids > 0 and len(points) == 2 + mids == len(set(points))
    # narrowing halves by the sign of p alone: it evaluates no chain
    p = UniPoly.from_coeffs(_product([[-3, 7], [-2, 0, 1]]))  # (7*y - 3)*(y^2 - 2)
    points.clear()
    isolate_real_roots(p)
    isolated = len(points)
    points.clear()
    exact_real_roots(p)
    assert len(points) == isolated


@pytest.mark.parametrize(
    "powers",
    [
        # the loop stops at a linear b: its multiplicity is the degree left
        [([-2, 3], 40)],
        [([1, 0, 1], 2), ([-2, 3], 40)],
        [([1, 1], 1), ([-3, 2], 30)],
        [([1, 1], 3), ([-1, 2], 4), ([5, 7], 9)],
        # the top factor is not linear, so Yun's loop peels it
        [([-1, 1], 1), ([-2, 0, 1], 5)],
    ],
)
def test_squarefree_decompose_last_factor(powers):
    # a content of 6 and a negative sign, which the decomposition drops
    rows = [[-6]] + [row for row, j in powers for _ in range(j)]
    p = UniPoly.from_coeffs(_product(rows))
    factors = squarefree_decompose(p)
    _check_decomposition(p, factors)
    assert factors == tuple((UniPoly(tuple(row)), j) for row, j in powers)


def test_squarefree_decompose_products_of_powers():
    rng = Random(12)
    for _ in range(40):
        rows = [[rng.randint(1, 2**64)]]
        for _ in range(rng.randint(1, 4)):
            base = [rng.randint(-120, 120) for _ in range(rng.randint(1, 3))]
            rows += [base + [rng.choice([1, -2, 3])]] * rng.randint(1, 4)
        p = UniPoly.from_coeffs(_product(rows))
        _check_decomposition(p, squarefree_decompose(p))
