"""Quasi-homogeneous analysis: weight detection, root-polynomial
factorization data, circle vanishing order, and shear-vertex prediction.

The main property test builds polynomials from a known factorization
   c * x1^nu1 * x2^nu2 * prod (x2 - r_i * x1^p)^{m_i}
and checks that analysis recovers every constructed invariant.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaptcoord import (
    BiPoly,
    ShearAxis,
    ShearChange,
    UniPoly,
    Weight,
    analyze,
    apply_shear,
    build_polyhedron,
    edge_root_polynomial,
    edge_weight,
    newton_polyhedron,
    parse,
    predict_shear_vertices,
    root_structure,
    swap_axes,
    weighted_part,
)
from adaptcoord.errors import (
    AxesNotNormalized,
    MonomialInput,
    NonvanishingGradient,
    NotQuasiHomogeneous,
    WrongHomogeneity,
    ZeroPolynomial,
)
from adaptcoord import quasihomog, unipoly
from adaptcoord.quasihomog import deep_root, mirrored
from adaptcoord.unipoly import (
    _sturm_chain,
    _z_eval,
    _z_quo,
    count_real_roots,
    exact_real_roots,
    integer_row,
    rational_roots,
    squarefree_decompose,
)
from conftest import random_corpus, sheared_inputs
from q_reference import _z_mul, quasihomogeneous_height

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
nonzero_rationals = rationals.filter(lambda r: r != 0)


def product_poly(
    nu1: int, nu2: int, p: int, roots: list[tuple[Fraction, int]]
) -> BiPoly:
    f = BiPoly.monomial(nu1, nu2)
    for r, m in roots:
        factor = BiPoly.monomial(0, 1) - BiPoly.monomial(p, 0, r)
        for _ in range(m):
            f = f * factor
    return f


@st.composite
def factored_inputs(draw):
    nu1 = draw(st.integers(min_value=0, max_value=3))
    nu2 = draw(st.integers(min_value=0, max_value=2))
    p = draw(st.integers(min_value=1, max_value=4))
    values = draw(
        st.lists(nonzero_rationals, min_size=1, max_size=3, unique=True)
    )
    mults = [draw(st.integers(min_value=1, max_value=3)) for _ in values]
    roots = list(zip(values, mults))
    n = sum(mults)
    if nu1 + nu2 + n < 2:
        nu2 += 2
    return nu1, nu2, p, roots


def test_root_structure_weight_examples():
    w = root_structure(parse("x2^2 - x1^3"))[0]
    assert isinstance(w, Weight)
    assert (w.k1, w.k2) == (Fraction(1, 3), Fraction(1, 2))
    with pytest.raises(MonomialInput):
        root_structure(parse("x1^2*x2"))
    with pytest.raises(NotQuasiHomogeneous):
        root_structure(parse("x2^2 + x1^3 + x1*x2^2"))
    # horizontal support line: no positive weight exists
    with pytest.raises(NotQuasiHomogeneous):
        root_structure(parse("x2^2 + x1*x2^2"))
    # support line of positive slope: the weight (1/2, -1/2) is not positive
    with pytest.raises(NotQuasiHomogeneous):
        root_structure(parse("x1^2 + x1^3*x2"))
    with pytest.raises(ZeroPolynomial):
        root_structure(BiPoly.zero())


def line_rule_weight(P: BiPoly) -> Weight:
    """The weight of P's support by a scan of the whole support: the
    weight of the line through its extreme points, refused unless that
    line has negative slope and holds every point."""
    if P.is_zero:
        raise ZeroPolynomial("zero polynomial has no weight")
    pts = sorted(P.support)
    if len(pts) == 1:
        raise MonomialInput("root structure needs at least two terms")
    a, b = pts[0], pts[-1]
    w = None if a[0] == b[0] or a[1] <= b[1] else edge_weight(a, b)
    if w is None or any(w.q * j + w.p * k != w.m for j, k in pts):
        raise NotQuasiHomogeneous("support is not on one positively-weighted line")
    return w


@st.composite
def line_supports(draw):
    """Two to four terms on one drawn line, of any slope, mostly with
    nothing else, sometimes with a term or two drawn anywhere."""
    dj = draw(st.integers(min_value=0, max_value=3))
    falling = st.integers(min_value=-3, max_value=-1)
    dk = draw(st.one_of(falling, st.integers(min_value=-3, max_value=3)))
    if not dj and not dk:
        dk = 1
    j0 = draw(st.integers(min_value=0, max_value=3))
    k0 = draw(st.integers(min_value=9, max_value=12))
    index = st.integers(min_value=0, max_value=3)
    steps = draw(st.lists(index, min_size=2, max_size=4, unique=True))
    pts = {(j0 + i * dj, k0 + i * dk) for i in steps}
    coord = st.integers(min_value=0, max_value=12)
    off_line = st.lists(st.tuples(coord, coord), max_size=2)
    pts |= set(draw(st.one_of(st.just([]), st.just([]), off_line)))
    coeff = st.integers(min_value=-3, max_value=3).filter(bool)
    return BiPoly({t: draw(coeff) for t in sorted(pts)})


@given(line_supports())
@example(BiPoly.zero())
@example(BiPoly.monomial(2, 1))
@settings(max_examples=300, deadline=None)
def test_root_structure_refuses_what_the_line_rule_refuses(P):
    try:
        want = line_rule_weight(P)
    except (ZeroPolynomial, MonomialInput, NotQuasiHomogeneous) as e:
        with pytest.raises(type(e)) as got:
            root_structure(P)
        assert (type(got.value), str(got.value)) == (type(e), str(e))
    else:
        assert root_structure(P)[0] == want


def test_root_structure_example():
    w, nu1, nu2, n, u = root_structure(parse("x1*x2^2 - x1^3*x2"))
    assert (nu1, nu2) == (1, 1)
    assert (w.q, w.p) == (1, 2)
    assert n == 1
    assert u == UniPoly.from_coeffs([-1, 1])  # y - 1 up to sign convention
    assert Fraction(w.q * 1 + w.p * 2, w.m) == 1


def test_root_structure_fractional_ratio():
    w, nu1, nu2, n, u = root_structure(parse("x2^2 - x1^3"))
    assert (nu1, nu2, w.q, w.p, n) == (0, 0, 2, 3, 1)
    assert u == UniPoly.from_coeffs([-1, 1])


def test_edge_reader_matches_weighted_part_on_corpus():
    edges = 0
    for f in random_corpus(500):
        for a, b in newton_polyhedron(f).edges:
            w, nu1, nu2, n, u = edge_root_polynomial(f, a, b)
            read = BiPoly(
                {(nu1 + w.p * (n - i), nu2 + w.q * i): c for i, c in enumerate(u.coeffs)}
            )
            assert w == edge_weight(a, b)
            assert read == weighted_part(f, w, 1), (f, a, b)
            edges += 1
    assert edges > 500


def test_mirrored_is_the_edge_reading_of_the_swapped_axes():
    edges = 0
    for f in random_corpus(500) + [g for _, g in sheared_inputs(200)]:
        g = swap_axes(f)
        for (j0, k0), (j1, k1) in newton_polyhedron(f).edges:
            want = edge_root_polynomial(g, (k1, j1), (k0, j0))
            assert mirrored(edge_root_polynomial(f, (j0, k0), (j1, k1))) == want, f
            edges += 1
    assert edges >= 700


@given(factored_inputs())
@settings(max_examples=80, deadline=None)
def test_analyze_recovers_constructed_factorization(data):
    nu1, nu2, p, roots = data
    P = product_poly(nu1, nu2, p, roots)
    got = analyze(P)
    assert got.nu1 == nu1
    assert got.nu2 == nu2
    assert got.n == sum(m for _, m in roots)
    assert sum(factor.degree for factor, _ in got.factors) == len(roots)
    recovered = sorted((r.value, r.multiplicity) for r in got.real_roots)
    assert recovered == sorted(roots)
    n = got.n
    assert got.d_h == Fraction(nu1 + nu2 * p + p * n, 1 + p)
    assert got.m_order == max(nu1, nu2, max(m for _, m in roots))
    for factor, _ in got.factors:
        assert gcd(*factor.coeffs) == 1 and factor.coeffs[-1] > 0
    over = [r for r, m in roots if m > got.d_h]
    # the principal root pairs the value with the shear exponent p
    assert got.principal_root == ((over[0], p) if over else None)


def test_analyze_requires_normalized_axes():
    with pytest.raises(AxesNotNormalized):
        analyze(parse("x1^2 - x2^3"))


def test_analyze_requires_vanishing_gradient():
    with pytest.raises(NonvanishingGradient):
        analyze(parse("x2 - x1^2"))


def test_analyze_rejects_monomial_and_mixed_support():
    with pytest.raises(MonomialInput):
        analyze(parse("x1^2*x2^2"))
    with pytest.raises(NotQuasiHomogeneous):
        analyze(parse("x2^2 + x1^3 + x1^5"))
    with pytest.raises(NotQuasiHomogeneous):
        analyze(parse("x1^2 + x1^3*x2"))


def test_analyze_irrational_roots_keep_isolating_intervals():
    got = analyze(parse("x2^2 - 2*x1^2"))
    assert got.principal_root is None
    assert got.max_real_multiplicity == 1
    assert len(got.real_roots) == 2
    for r in got.real_roots:
        assert r.value is None
        assert r.factor is not None
        lo, hi = r.interval
        assert lo < hi
        row = list(r.factor.coeffs)
        at_lo = _z_eval(row, lo.numerator, lo.denominator)
        assert at_lo * _z_eval(row, hi.numerator, hi.denominator) <= 0


def test_circle_vanishing_order_examples():
    assert analyze(parse("(x2 - x1^2)^2")).m_order == 2
    assert analyze(parse("x2^2 + x1^2")).m_order == 0
    assert analyze(parse("x2^2 - x1^2")).m_order == 1
    assert analyze(parse("(x2^2 - x1^3)^2")).m_order == 2
    # a double complex pair outranks no real root
    assert analyze(parse("(x2^2 + x1^2)^2*(x2 - x1)")).m_order == 1


def test_quasihomogeneous_height_examples():
    assert quasihomogeneous_height(parse("(x2 - x1^2)^2")) == 2
    assert quasihomogeneous_height(parse("(x2^2 - x1^3)^2")) == Fraction(12, 5)
    assert quasihomogeneous_height(parse("x2^2 + x1^2")) == 1
    assert quasihomogeneous_height(parse("x1*x2^2 - x1^3*x2")) == Fraction(5, 3)


def test_principal_root_is_unique_and_rational():
    got = analyze(parse("(x2 - 3*x1^2)^3"))
    assert got.principal_root == (Fraction(3), 2)  # (value, exponent)
    assert got.max_real_multiplicity == 3
    assert got.d_h == Fraction(2)


@pytest.mark.parametrize(
    "src, principal, max_real",
    [
        ("(x2 - 3*x1^2)^3", (Fraction(3), 2), 3),
        ("(x1 + x2)^300", (Fraction(-1), 1), 300),
    ],
)
def test_analyze_decomposes_u_once(monkeypatch, src, principal, max_real):
    calls = []

    def counted(p):
        calls.append(p)
        return squarefree_decompose(p)

    monkeypatch.setattr(quasihomog, "squarefree_decompose", counted)
    got = analyze(parse(src))
    assert (got.principal_root, got.max_real_multiplicity) == (principal, max_real)
    assert len(calls) == 1


COPRIME_WEIGHTS = [
    (q, p) for p in range(1, 5) for q in range(1, p + 1) if gcd(q, p) == 1
]


def yun_sturm_deep_root(edge) -> tuple[Fraction, int] | None:
    """The deep root read off every squarefree factor above d_h that has
    a real root (Sturm), without deep_root's two shortcuts or its
    reading of the last factor alone."""
    w = edge[0]
    d_h = Fraction(w.m, w.q + w.p)
    deep = [
        (factor, mult)
        for factor, mult in squarefree_decompose(edge[-1])
        if mult > d_h and count_real_roots(factor)
    ]
    if not deep:
        return None
    ((factor, mult),) = deep  # one real factor above d_h, and it is linear
    assert factor.degree == 1
    return Fraction(-factor.coeffs[0], factor.coeffs[1]), mult


def tallied_deep_root(
    roots: list[tuple[Fraction, int]], j: int, a: int, d_h: Fraction
) -> tuple[Fraction, int] | None:
    """The deep root of c * prod (y - r)^mult * (y^2 + a)^j counted off the
    drawn roots alone, with no polynomial arithmetic: equal roots add
    their multiplicities, and y^2 - 1 adds +1 and -1 j times each."""
    total: dict[Fraction, int] = {}
    for r, mult in roots:
        total[r] = total.get(r, 0) + mult
    if a == -1:
        for r in (Fraction(1), Fraction(-1)):
            total[r] = total.get(r, 0) + j
    deep = [(r, mult) for r, mult in total.items() if mult > d_h]
    assert len(deep) <= 1
    return deep[0] if deep else None


@given(
    nu1=st.integers(min_value=0, max_value=3),
    nu2=st.integers(min_value=0, max_value=3),
    qp=st.sampled_from(COPRIME_WEIGHTS),
    c=st.sampled_from([-3, -2, -1, 1, 2, 3]),
    roots=st.lists(
        st.tuples(nonzero_rationals, st.integers(min_value=1, max_value=5)),
        min_size=1,
        max_size=3,
    ),
    j=st.integers(min_value=0, max_value=2),
    a=st.sampled_from([-3, -2, -1, 1, 2, 3]),
)
# q = 2: a triple root is no deeper than d_h = 18/5
@example(nu1=0, nu2=0, qp=(2, 3), c=1, roots=[(Fraction(1), 3)], j=0, a=1)
# n = nu1 + p*nu2 = 2: the double root sits at d_h = 2
@example(nu1=0, nu2=1, qp=(1, 2), c=1, roots=[(Fraction(1), 2)], j=0, a=1)
# n = 5, d_h = 5/2, k = 3: a root of multiplicity exactly k is deep
@example(nu1=0, nu2=0, qp=(1, 1), c=2, roots=[(Fraction(1, 2), 3)], j=1, a=1)
# n = 4, d_h = 2, k = 3: a root of multiplicity k - 1 is not
@example(nu1=0, nu2=0, qp=(1, 1), c=1, roots=[(Fraction(1), 2)], j=1, a=2)
# y^2 - 1 and a drawn triple root -1: -1 is deep, 3 + 2 > d_h = 7/2
@example(nu1=0, nu2=0, qp=(1, 1), c=1, roots=[(Fraction(-1), 3)], j=2, a=-1)
# n = 125, d_h = 125/2: Yun's loop stops at the linear factor of
# multiplicity 121 left after the double root and the quadratic
@example(
    nu1=0,
    nu2=0,
    qp=(1, 1),
    c=-3,
    roots=[(Fraction(-1, 2), 2), (Fraction(2, 3), 121)],
    j=1,
    a=1,
)
@settings(max_examples=150, deadline=None)
def test_deep_root_matches_yun_and_sturm(nu1, nu2, qp, c, roots, j, a):
    q, p = qp
    u = [c]
    for r, mult in roots:
        for _ in range(mult):
            u = _z_mul(u, [-r.numerator, r.denominator])
    for _ in range(j):
        u = _z_mul(u, [a, 0, 1])
    u = UniPoly.from_coeffs(u)
    n = u.degree
    w = Weight(q, p, q * nu1 + p * nu2 + p * q * n)
    edge = (w, nu1, nu2, n, u)
    want = tallied_deep_root(roots, j, a, Fraction(w.m, q + p))
    assert deep_root(edge) == yun_sturm_deep_root(edge) == want
    # analyze reads the same root without deep_root's two shortcuts
    P = BiPoly(
        {(nu1 + p * (n - i), nu2 + q * i): ui for i, ui in enumerate(u.coeffs) if ui}
    )
    if P.origin_order >= 2:
        assert analyze(P).principal_root == (None if want is None else (want[0], p))


def chain_rational_multiplicities(u: UniPoly) -> dict[Fraction, int]:
    """u's rational roots with their multiplicities, through no heuristic
    gcd and no Yun loop: u over the last entry of its Sturm chain, a
    primitive remainder sequence that ends at gcd(u, u') up to a constant,
    is its squarefree part; exact_real_roots reads that part's rational
    roots, and each root n/d's multiplicity is the number of times d*y - n
    divides u exactly."""
    chain = _sturm_chain(integer_row(u))
    part = _z_quo(chain[0], chain[-1])
    out = {}
    for _, _, r in exact_real_roots(UniPoly(tuple(part))):
        if r is not None:
            row, mult = chain[0], 0
            while (row := _z_quo(row, [-r.numerator, r.denominator])) is not None:
                mult += 1
            out[r] = mult
    return out


def test_deep_root_matches_the_chain_multiplicities():
    # every compact edge of the corpus, of its sheared inputs and of
    # powers of lines, in the orientation k1 <= k2 that the verdict reads;
    # a real root deeper than d_h >= n/2 is rational, as its conjugates
    # would be as deep
    lines = [f"(x1 + x2)^{n}" for n in (2, 3, 7, 40, 300)]
    lines += [f"(3*x2 - 2*x1)^{n}" for n in (2, 5, 60)]
    lines += ["(x2 - 2*x1^2)^5 * (3*x2 + x1^2)^2", "(x2^2 - x1^3)^4 * x1^3"]
    polys = random_corpus(200) + [f for _, f in sheared_inputs(200)] + [parse(s) for s in lines]
    deep = 0
    for f in polys:
        for a, b in newton_polyhedron(f).edges:
            edge = edge_root_polynomial(f, a, b)
            if edge[0].q > edge[0].p:
                edge = mirrored(edge)
            w = edge[0]
            d_h = Fraction(w.m, w.q + w.p)
            mults = chain_rational_multiplicities(edge[-1])
            assert dict(rational_roots(edge[-1])) == mults
            want = [(r, mult) for r, mult in mults.items() if mult > d_h]
            assert len(want) <= 1
            assert deep_root(edge) == (want[0] if want else None), (str(f), a, b)
            deep += bool(want)
    assert deep >= 20


def test_predict_shear_vertices_examples():
    P = parse("(x2 - x1^2)^2")
    first, last = predict_shear_vertices(P, 1)
    assert first == (0, 2)
    assert last == (0, 2)  # full root: everything collapses onto x2^2
    first, last = predict_shear_vertices(P, 2)
    assert first == (0, 2)
    assert last == (4, 0)  # non-root lands on the x1-axis


def test_predict_shear_vertices_validates_input():
    with pytest.raises(ValueError):
        predict_shear_vertices(parse("(x2 - x1^2)^2"), 0)
    with pytest.raises(WrongHomogeneity):
        predict_shear_vertices(parse("x1^2*x2^2"), 1)
    with pytest.raises(WrongHomogeneity):
        predict_shear_vertices(parse("x2^2 - x1^3"), 1)  # ratio 3/2
    with pytest.raises(NotQuasiHomogeneous):
        predict_shear_vertices(parse("x2^2 + x1^3 + x1^5"), 1)


@pytest.mark.parametrize(
    "src, bs",
    [
        # u = (y - 1)(y - 2)(y - 3)^2: 1 and 2 are roots of the quadratic
        # squarefree factor y^2 - 3y + 2
        ("(x2 - x1)*(x2 - 2*x1)*(x2 - 3*x1)^2", [2, 1, 3, 5]),
        (
            "x1*(2*x2 - x1^2)^2*(x2 + 3*x1^2)^2*(x2 - 2*x1^2)",
            [Fraction(1, 2), -3, 2, 7],
        ),
        ("x2^2*(x2^2 - 2*x1^6)*(3*x2 + x1^3)^3", [Fraction(-1, 3), 1]),
    ],
)
def test_predict_shear_vertices_builds_no_sturm_chain(monkeypatch, src, bs):
    P = parse(src)
    m = root_structure(P)[0].p
    want = []
    for b in bs:
        g = apply_shear(P, ShearChange(ShearAxis.X2, Fraction(b), m))
        hull = build_polyhedron(g.support)
        want.append((hull.first, hull.last))

    def no_sturm_chain(p):
        raise AssertionError("predict_shear_vertices built a Sturm chain")

    monkeypatch.setattr(unipoly, "_sturm_chain", no_sturm_chain)
    assert [predict_shear_vertices(P, b) for b in bs] == want


@given(factored_inputs(), st.integers(min_value=0, max_value=4))
@settings(max_examples=80, deadline=None)
def test_predict_shear_vertices_against_expansion(data, pick):
    nu1, nu2, p, roots = data
    P = product_poly(nu1, nu2, p, roots)
    pool = [r for r, _ in roots] + [Fraction(7), Fraction(-1, 5)]
    b = pool[pick % len(pool)]
    first, last = predict_shear_vertices(P, b)
    g = apply_shear(P, ShearChange(ShearAxis.X2, b, p))
    hull = build_polyhedron(g.support)
    assert hull.first == first
    assert hull.last == last
