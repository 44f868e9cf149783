"""Sparse bivariate polynomials: construction, arithmetic, weights,
shears, and the x2-squarefree split."""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaptcoord import (
    BiPoly,
    ShearAxis,
    ShearChange,
    Weight,
    adapt,
    apply_jet,
    apply_shear,
    parse,
    squarefree_part_x2,
    swap_axes,
    weighted_part,
)
from adaptcoord import bipoly, unipoly
from adaptcoord.unipoly import _z_deriv, _z_gcd
from conftest import bipolys, coefficients, random_corpus, sheared_by, sheared_inputs
from q_reference import (
    _z_mul,
    exact_div,
    nested_shear,
    poly_gcd,
    scale_axes,
    sequential_jet,
)

shear_exponents = st.integers(min_value=1, max_value=4)
nonzero_bipolys = bipolys().filter(lambda f: not f.is_zero)


def test_constructor_drops_zero_coefficients():
    f = BiPoly({(1, 1): Fraction(0), (2, 0): Fraction(3)})
    assert f.support == {(2, 0)}
    assert BiPoly({}).is_zero


def test_basic_accessors():
    f = parse("x2^2 - 2*x1^2*x2 + x1^4")
    assert f.x2_degree == 2
    assert f.origin_order == 2
    assert f.coeff(2, 1) == -2
    assert f.coeff(5, 5) == 0


def test_monomial_factories():
    assert BiPoly.monomial(1, 0).terms() == {(1, 0): 1}
    assert BiPoly.monomial(0, 1, Fraction(-2, 3)).terms() == {(0, 1): Fraction(-2, 3)}
    assert BiPoly.constant(Fraction(1, 2)).coeff(0, 0) == Fraction(1, 2)
    assert BiPoly.zero().is_zero


@given(bipolys(), bipolys())
def test_addition_commutes_and_cancels(f, g):
    assert f + g == g + f
    assert (f + g) - g == f
    assert (f - f).is_zero


@given(bipolys(), bipolys(), bipolys())
@settings(max_examples=60)
def test_multiplication_distributes(f, g, h):
    assert f * (g + h) == f * g + f * h


@given(
    bipolys(min_terms=0),
    bipolys(min_terms=0),
    coefficients,
    shear_exponents,
    st.sampled_from(list(ShearAxis)),
)
@settings(max_examples=80)
def test_canonical_form(f, g, b, m, axis):
    """Integer numerators over one positive denominator in lowest terms,
    the form that == and hash rely on, whatever built the polynomial."""
    shear = ShearChange(axis, b, m)
    round_trip = f + g - g
    sheared = apply_shear(f, shear)
    for h in (f, g, round_trip, sheared, f * g, swap_axes(sheared)):
        assert h.den > 0 and gcd(h.den, *h.num.values()) == 1
        assert all(type(c) is int and c != 0 for c in h.num.values())
    assert round_trip == f and hash(round_trip) == hash(f)
    assert BiPoly(f.terms()) == f
    assert parse(str(f)) == f
    assert apply_shear(sheared, ShearChange(axis, -b, m)) == f


@pytest.mark.parametrize("c", [Fraction(-3, 4), Fraction(5, 6)])
@pytest.mark.parametrize("n", [0, 1, 7])
def test_monomial_power_equals_repeated_products(c, n):
    f = BiPoly.monomial(2, 3, c)
    expected = BiPoly.constant(1)
    for _ in range(n):
        expected = expected * f
    got = f**n
    assert got == expected
    assert (got.num, got.den) == (expected.num, expected.den)


@given(bipolys(min_terms=1, max_terms=6), st.integers(min_value=0, max_value=12))
@example(BiPoly.zero(), 0)
@example(BiPoly.zero(), 5)
@example(BiPoly.monomial(3, 5, Fraction(-7, 2)), 9)
# the first term in (x2-degree, x1-degree) order is x1^3: the offset of x2 is (1, -3)
@example(BiPoly({(3, 0): 1, (0, 1): 1}), 7)
@example(BiPoly({(3, 0): 1, (0, 1): 1}), 0)
@example(BiPoly({(8, 0): Fraction(-2, 3), (0, 1): Fraction(1, 2), (4, 4): 5, (0, 8): -1}), 12)
@settings(max_examples=150, deadline=None)
def test_power_equals_repeated_products(f, n):
    expected = BiPoly.constant(1)
    for _ in range(n):
        expected = expected * f
    got = f**n
    assert (got.num, got.den) == (expected.num, expected.den)


def test_powers_of_lines_match_the_binomial_theorem():
    f = parse("(x1 + x2)^2000")
    assert f.den == 1
    assert f.num == {(2000 - k, k): comb(2000, k) for k in range(2001)}
    g = parse("(3*x2 - 2*x1)^200")
    assert g.den == 1
    assert g.num == {
        (200 - k, k): comb(200, k) * 3**k * (-2) ** (200 - k) for k in range(201)
    }


def test_first_power_is_the_base_itself():
    # BiPoly is immutable: f**1 runs no recurrence over f's 1,682 terms
    f = parse("(x2 - x1 - x1^2 - x1^3)^40 + x1^200")
    assert len(f.num) == 1682
    assert f**1 is f


def _value(f: BiPoly, a: int, b: int) -> Fraction:
    return Fraction(sum(c * a**j * b**k for (j, k), c in f.num.items()), f.den)


@pytest.mark.parametrize(
    "src, base, n",
    [
        ("(x2 - x1 - x1^2)^100", {(0, 1): 1, (1, 0): -1, (2, 0): -1}, 100),
        ("(x2^2 + x1^3 + x1*x2 + 5)^30", {(0, 2): 1, (3, 0): 1, (1, 1): 1, (0, 0): 5}, 30),
        (
            "(1/2*x2 - x1^2 + 3*x1*x2^2 - 7)^25",
            {(0, 1): Fraction(1, 2), (2, 0): -1, (1, 2): 3, (0, 0): -7},
            25,
        ),
    ],
)
def test_large_powers_agree_with_exact_evaluation(src, base, n):
    f = BiPoly(base)
    g = parse(src)
    for a, b in [(2, -3), (-5, 4), (3, 7)]:
        assert _value(g, a, b) == _value(f, a, b) ** n, (a, b)


def test_exponents_must_be_integers():
    with pytest.raises(TypeError, match="float"):
        BiPoly({(1.5, 0): 1})
    with pytest.raises(TypeError, match="float"):
        BiPoly.monomial(2.7, 1)


def test_shear_exponent_must_be_an_integer():
    with pytest.raises(TypeError, match="float"):
        ShearChange(ShearAxis.X2, 1, 1.5)
    shear = ShearChange(ShearAxis.X2, 1, 1)
    with pytest.raises(TypeError, match="float"):
        shear._replace(exponent=1.5)


def test_shear_axis_is_read_as_a_shear_axis():
    # the member's value names it; anything else is refused, not taken
    # for an x2-shear
    f = parse("x2^2 + x1^3")
    shear = ShearChange("x1", 1, 1)
    assert shear.axis is ShearAxis.X1
    assert apply_shear(f, shear) == parse("x2^2 + (x1 + x2)^3")
    for axis in (None, "x3", 1):
        with pytest.raises(ValueError):
            ShearChange(axis, 1, 1)
    with pytest.raises(ValueError):
        ShearChange(ShearAxis.X2, 1, 1)._replace(axis=None)


@pytest.mark.parametrize(
    "expr",
    [lambda f: f * 2.5, lambda f: 2.5 * f, lambda f: f + 1, lambda f: f - 1],
    ids=["f * 2.5", "2.5 * f", "f + 1", "f - 1"],
)
def test_arithmetic_refuses_a_foreign_operand(expr):
    # NotImplemented from both sides: Python raises TypeError, not the
    # AttributeError of reading .num or .den off the operand
    with pytest.raises(TypeError, match="unsupported operand"):
        expr(parse("x2^2 + x1^3"))


def test_power_must_be_an_integer():
    # n is checked before any arithmetic, for a one-term base as for a sum
    for f in (BiPoly.monomial(1, 0), parse("x1 + x2")):
        with pytest.raises(TypeError, match="float"):
            f**2.0


def test_str_is_parse_compatible():
    f = parse("x2^2 - 2*x1^2*x2 + x1^4")
    assert str(f) == "x2^2 - 2*x1^2*x2 + x1^4"
    assert parse(str(f)) == f


@given(nonzero_bipolys)
@settings(max_examples=80)
def test_str_round_trips_through_parse(f):
    assert parse(str(f)) == f


def test_weight_normalization_and_degree():
    w = Weight(1, 2, 4)
    assert (w.k1, w.k2) == (Fraction(1, 4), Fraction(1, 2))
    assert Fraction(w.q * 2 + w.p * 1, w.m) == 1
    assert Fraction(w.q * 5 + w.p * 0, w.m) == Fraction(5, 4)
    # not coprime, zero, no positive denominator, negative
    for q, p, m in [(2, 4, 8), (0, 0, 1), (1, 2, 0), (-1, 2, 3)]:
        with pytest.raises(ValueError):
            Weight(q, p, m)


def test_weighted_order_and_part_partition():
    f = parse("x2^2 - 2*x1^2*x2 + x1^4 + x1^5")
    w = Weight(1, 2, 4)
    assert min(Fraction(w.q * t[0] + w.p * t[1], w.m) for t in f.support) == 1
    assert weighted_part(f, w, 1) == parse("x2^2 - 2*x1^2*x2 + x1^4")
    assert weighted_part(f, w, Fraction(5, 4)) == parse("x1^5")


@given(nonzero_bipolys)
@settings(max_examples=60)
def test_weighted_parts_sum_back(f):
    w = Weight(2, 3, 6)
    degrees = {Fraction(w.q * t[0] + w.p * t[1], w.m) for t in f.support}
    total = BiPoly.zero()
    for deg in degrees:
        total = total + weighted_part(f, w, deg)
    assert total == f


@given(nonzero_bipolys, coefficients, shear_exponents)
@settings(max_examples=80)
def test_shear_inverts_in_x2(f, b, m):
    fwd = ShearChange(ShearAxis.X2, b, m)
    back = ShearChange(ShearAxis.X2, -b, m)
    assert apply_shear(apply_shear(f, fwd), back) == f


@given(nonzero_bipolys, coefficients, shear_exponents)
@settings(max_examples=60)
def test_shear_inverts_in_x1(f, b, m):
    fwd = ShearChange(ShearAxis.X1, b, m)
    back = ShearChange(ShearAxis.X1, -b, m)
    assert apply_shear(apply_shear(f, fwd), back) == f


def substituted(f: BiPoly, shear: ShearChange) -> BiPoly:
    """f under the shear, one term at a time: sum c * x1^j * (x2 + b*x1^m)^k
    for an x2-shear, built by BiPoly products and powers."""
    b, m = shear.coefficient, shear.exponent
    x1, x2 = BiPoly.monomial(1, 0), BiPoly.monomial(0, 1)
    total = BiPoly.zero()
    for (j, k), c in f.terms().items():
        if shear.axis is ShearAxis.X2:
            total = total + BiPoly.monomial(j, 0, c) * (x2 + BiPoly.monomial(m, 0, b)) ** k
        else:
            total = total + BiPoly.monomial(0, k, c) * (x1 + BiPoly.monomial(0, m, b)) ** j
    return total


@given(
    bipolys(min_terms=0),
    coefficients,
    shear_exponents,
    st.sampled_from([ShearAxis.X1, ShearAxis.X2]),
)
@settings(max_examples=150)
@example(BiPoly.zero(), Fraction(-3, 2), 2, ShearAxis.X2)
@example(BiPoly.zero(), Fraction(2, 5), 3, ShearAxis.X1)
@example(BiPoly.constant(Fraction(-7, 3)), Fraction(5, 4), 4, ShearAxis.X1)
# (x2 + 3/2*x1^2)^2 and (x1 - 2/3*x2)^3: every term but one cancels
@example(parse("4*x2^2 + 12*x1^2*x2 + 9*x1^4"), Fraction(-3, 2), 2, ShearAxis.X2)
@example(parse("27*x1^3 - 54*x1^2*x2 + 36*x1*x2^2 - 8*x2^3"), Fraction(2, 3), 1, ShearAxis.X1)
def test_shear_matches_substitution(f, b, m, axis):
    shear = ShearChange(axis, b, m)
    g = apply_shear(f, shear)
    assert g == substituted(f, shear)
    assert 0 not in g.terms().values()
    assert apply_shear(g, ShearChange(axis, -b, m)) == f


# diagonals up to height 16 in either axis, and coefficients over 1..7
tall_bipolys = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=16), st.integers(min_value=0, max_value=16)),
    st.fractions(min_value=-50, max_value=50, max_denominator=7),
    min_size=1,
    max_size=12,
).map(BiPoly)
fractional_coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(
    lambda b: b != 0
)


def assert_same_shear(f, shear):
    """apply_shear and the nested loop give the same numerators, in the
    same key order, over the same denominator; returns the sheared
    polynomial."""
    g, ref = apply_shear(f, shear), nested_shear(f, shear)
    assert list(g.num.items()) == list(ref.num.items())
    assert g.den == ref.den
    return g


@given(
    tall_bipolys,
    st.one_of(fractional_coefficients, coefficients),
    shear_exponents,
    st.sampled_from(list(ShearAxis)),
)
@settings(max_examples=100)
@example(parse("x2^16 + 3/5*x1^7*x2^9 - x1^40"), Fraction(-5, 3), 3, ShearAxis.X2)
@example(parse("x1^16 - 2/3*x1^2*x2^5 + x2^11"), Fraction(7, 4), 2, ShearAxis.X1)
def test_shear_matches_the_nested_loop(f, b, m, axis):
    assert_same_shear(f, ShearChange(axis, b, m))


def test_shear_matches_the_nested_loop_on_sheared_inputs():
    shears = []

    def checked(f, shear):
        shears.append(shear)
        return assert_same_shear(f, shear)

    sheared_inputs(400, shear=checked)
    assert {s.axis for s in shears} == set(ShearAxis)


def test_shear_matches_hand_expansion():
    f = parse("x2^2")
    g = apply_shear(f, ShearChange(ShearAxis.X2, Fraction(1), 2))
    assert g == parse("x2^2 + 2*x1^2*x2 + x1^4")


def test_apply_jet_is_shear_composition():
    f = parse("(x2 - x1^2 - x1^3)^2")
    jet = [(Fraction(1), 2), (Fraction(1), 3)]
    assert apply_jet(f, jet) == parse("x2^2")
    # an empty jet, a zero f and a cancelling jet all return f itself
    assert apply_jet(f, []) is f
    zero = BiPoly.zero()
    assert apply_jet(zero, jet) is zero
    assert apply_jet(f, jet + [(-b, m) for b, m in jet]) is f


jets = st.lists(st.tuples(coefficients, shear_exponents), max_size=8)


@given(bipolys(max_terms=8), jets, st.booleans(), st.booleans())
@settings(max_examples=150)
def test_apply_jet_matches_the_shear_chain(h, jet, undo, opposite):
    # undo: f is h sheared back by the jet, so the jet cancels f down to
    # h; opposite: each term is followed by its negative, so phi = 0
    if opposite:
        jet = [t for b, m in jet for t in ((b, m), (-b, m))]
    f = sequential_jet(h, [(-b, m) for b, m in jet]) if undo else h
    g = apply_jet(f, jet)
    assert g == sequential_jet(f, jet)
    if undo or opposite:
        assert g == (h if undo else f)


def test_apply_jet_rejects_what_a_shear_rejects():
    f = parse("x2^2 + x1^3")
    with pytest.raises(ValueError):
        apply_jet(f, [(Fraction(1), 2), (Fraction(0), 3)])
    with pytest.raises(ValueError):
        apply_jet(f, [(Fraction(1), 0)])


DEEP_JET_STARTS = [
    ("jet-1+x1", parse("(x2*(1 + x1) - x1^2)^2"), 64),
    ("jet-3+x1", parse("(x2*(3 + x1) - 2*x1^2)^2"), 24),
    ("morse-14", parse("x2^2 + 10000000000037*x1^2"), 64),
    (
        "sheared-triple",
        sheared_by(
            "5*x2^4 + 2*x1^2*x2^3",
            (ShearAxis.X2, -1, 2), (ShearAxis.X2, 1, 1), (ShearAxis.X1, 1, 2),
        ),
        8,
    ),
    (
        "sheared-cube",
        sheared_by(
            "(x2*(1 + x1) - x1^2)^3*(x2 + x1)",
            (ShearAxis.X1, 1, 2), (ShearAxis.X2, 1, 3),
        ),
        64,
    ),
]


@pytest.mark.parametrize("name, f, cap", DEEP_JET_STARTS, ids=[c[0] for c in DEEP_JET_STARTS])
def test_apply_jet_matches_the_shear_chain_on_deep_jets(name, f, cap):
    res = adapt(f, cap)
    start = swap_axes(f) if res.axis_swapped else f
    assert apply_jet(start, res.jet.terms) == sequential_jet(start, res.jet.terms)


@given(nonzero_bipolys)
def test_swap_axes_is_involution(f):
    assert swap_axes(swap_axes(f)) == f
    assert {(k, j) for (j, k) in f.support} == swap_axes(f).support


@given(nonzero_bipolys, coefficients, coefficients)
@settings(max_examples=60)
def test_scale_axes_multiplies_coefficients(f, c1, c2):
    g = scale_axes(f, c1, c2)
    assert g.support == f.support
    for (j, k), c in f.terms().items():
        assert g.coeff(j, k) == c * c1**j * c2**k
    assert scale_axes(g, 1 / c1, 1 / c2) == f


def test_scale_axes_rejects_zero():
    with pytest.raises(ValueError):
        scale_axes(BiPoly.monomial(1, 0), 0, 1)


def test_squarefree_part_x2_splits_multiplicity():
    f = parse("(x2 - x1^2)^2") * parse("x2 - x1^3")
    factors = squarefree_part_x2(f)
    mults = sorted(m for _, m in factors)
    assert mults == [1, 2]
    rebuilt = BiPoly.constant(1)
    for base, m in factors:
        for _ in range(m):
            rebuilt = rebuilt * base
    # rebuild agrees up to an x1-content unit
    assert rebuilt.x2_degree == f.x2_degree
    for m, base in ((2, "x2 - x1^2"), (1, "x2 - x1^3")):
        assert any(
            mult == m and factor == parse(base) for factor, mult in factors
        )
    assert factors[0][0] * factors[1][0] == parse("(x2 - x1^2)*(x2 - x1^3)")


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=2),
)
def test_squarefree_part_x2_powers(m1, m2):
    f = parse("x2 - x1^2") ** m1 * parse("x2 + x1") ** m2
    factors = squarefree_part_x2(f)
    # both distinct factors survive once
    assert sum(F.x2_degree for F, _ in factors) == 2
    assert {m for _, m in factors} == {m1, m2}


def _is_normalized(F: BiPoly) -> bool:
    coeffs = list(F.terms().values())
    top = max(j for j, k in F.support if k == F.x2_degree)
    return (
        all(c.denominator == 1 for c in coeffs)
        and gcd(*(c.numerator for c in coeffs)) == 1
        and F.coeff(top, F.x2_degree) > 0
    )


def _top_row(F: BiPoly) -> tuple[Fraction, ...]:
    """The x1-polynomial that multiplies F's top power of x2, as a tuple
    of Fractions, lowest degree first."""
    top = F.x2_degree
    return tuple(F.coeff(j, top) for j in range(max(j for j, k in F.support if k == top) + 1))


def _at(F: BiPoly, a: int) -> tuple[Fraction, ...]:
    """F with x1 = a, as a polynomial in x2: a tuple of Fractions, lowest
    degree first."""
    out = [Fraction(0)] * (F.x2_degree + 1)
    for (j, k), c in F.terms().items():
        out[k] += c * a**j
    return tuple(out)


# two products whose first width lifts a wrong candidate
_UNLUCKY_PRODUCTS = (
    "(-x1^3 - 3*x1^3*x2)^2 * (-2*x1^2 + x1^2*x2)",
    "(-x1 - 3*x1*x2 + 2*x1^2*x2)^2 * (-x2 - 3*x1^2 - x1^3*x2)",
)


def _recorded(monkeypatch, module, name: str) -> list:
    """The arguments of every call `module` makes to its function `name`
    from now on, recorded as it runs."""
    calls = []
    inner = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


def test_squarefree_part_x2_oracle():
    # products of two corpus polynomials raised to powers 1..3, and the
    # unlucky products; the checks use Q[x2] arithmetic at integer x1 and
    # BiPoly products, never the decomposition's own evaluation point
    rng = Random(3)
    pool = random_corpus(60)
    products = []
    for _ in range(25):
        f, g = rng.sample(pool, 2)
        products.append(f ** rng.randint(1, 3) * g ** rng.randint(1, 3))
    products += [parse(s) for s in _UNLUCKY_PRODUCTS]
    for p in products:
        factors = squarefree_part_x2(p)
        mults = [j for _, j in factors]
        assert mults == sorted(set(mults))
        product = BiPoly.constant(1)
        for F, j in factors:
            assert F.x2_degree >= 1 and _is_normalized(F)
            product = product * F ** j
        assert product.x2_degree == p.x2_degree
        # the quotient p / product lies in Q[x1]: read it off the top rows
        q = exact_div(_top_row(p), _top_row(product))
        assert product * BiPoly({(i, 0): c for i, c in enumerate(q)}) == p
        # squarefree and pairwise coprime: degree-0 gcds at some x1 = a
        # where no leading coefficient vanishes
        points = [a for a in range(2, 40) if all(_at(F, a)[-1] != 0 for F, _ in factors)][:4]
        for i, (F, _) in enumerate(factors):
            for G, _ in factors[i:]:
                def other(a):
                    return tuple(_z_deriv(list(_at(G, a)))) if G is F else _at(G, a)

                assert min(len(poly_gcd(_at(F, a), other(a))) for a in points) == 1


def test_squarefree_part_x2_checks_the_lift_by_the_product(monkeypatch):
    # at the first width, x1 = 2^5 and x1 = 2^6, every factor of the image
    # lifts with no remainder, but the multiplicity-1 factor lifts to a
    # polynomial that does not divide the input, 14 - x1 + 9*x2 for the
    # first; only the exact product rejects it, and the width doubles once
    packs = _recorded(monkeypatch, bipoly, "_z_pack")
    products = _recorded(monkeypatch, bipoly, "prod")
    assert squarefree_part_x2(parse(_UNLUCKY_PRODUCTS[0])) == (
        (parse("x2 - 2"), 1),
        (parse("1 + 3*x2"), 2),
    )
    assert (sorted({k for _, k in packs}), len(products)) == ([5, 10], 2)
    packs.clear()
    products.clear()
    assert squarefree_part_x2(parse(_UNLUCKY_PRODUCTS[1])) == (
        (parse("x2 + 3*x1^2 + x1^3*x2"), 1),
        (parse("2*x1*x2 - 3*x2 - 1"), 2),
    )
    assert (sorted({k for _, k in packs}), len(products)) == ([6, 12], 2)


def test_rows_primitive_divides_an_x1_content_out_past_an_empty_row():
    # -2*(x1 + x1^2) times the rows of (1 + 2*x1) + (x1^2 - 3)*x2^2
    primitive = [[1, 2], [], [-3, 0, 1]]
    content = [0, -2, -2]
    assert bipoly._rows_primitive([_z_mul(row, content) for row in primitive]) == primitive


def test_squarefree_part_x2_divides_out_the_start_content():
    f = parse("(x1 + x1^2)*(x2*(1 + x1) - x1^2)^2")
    assert squarefree_part_x2(f) == ((parse("x2 + x1*x2 - x1^2"), 2),)


def test_gcds_retry_past_an_unlucky_evaluation_point(monkeypatch):
    # at the first width, k = 5, the gcd of the images reads back to a
    # candidate that does not divide the inputs; k doubles once
    packs = _recorded(monkeypatch, unipoly, "_z_pack")
    assert _z_gcd([4, 10, 8, 2], [0, -6, -9, -3]) == ([2, 3, 1], [2, 2], [0, -3])
    assert sorted({k for _, k in packs}) == [5, 10]
