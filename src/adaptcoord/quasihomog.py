"""Structure theory of quasi-homogeneous bivariate polynomials.

A polynomial P is quasi-homogeneous when its support lies on a single line
with positive weights (k1, k2), normalized so the weighted degree is one.
Writing k1 = q/m, k2 = p/m in lowest terms, P factors as

    P = c * x1^nu1 * x2^nu2 * prod_l (x2^q - lambda_l * x1^p)^{n_l}

over the complex numbers.  The same holds for the terms of any f on a
compact edge of its Newton polygon.  Everything this module reports is
derived exactly from that factorization: the lambda_l are the roots of a
single univariate polynomial u in Z[y], which edge_root_polynomial reads
straight off the edge's lattice points, with the edge's weight from
newton.edge_weight (the one path from an edge to u, used by the
adaptedness verdict, the cluster refinement and analyze alike).
root_structure is the one quasi-homogeneity test: P is quasi-homogeneous
when u, read on the edge between P's extreme points, holds every term of
P.  mirrored gives the edge reading after the axes are swapped.  The
squarefree decomposition (Yun) of u gives every multiplicity: Sturm
counts say which factors have real roots, and a rational value has the
multiplicity of the one factor it annihilates, tested exactly, without
ever leaving the rationals.

Key quantities:

* homogeneous distance d_h = 1/(k1+k2) = m/(q+p), where
  m = nu1*q + nu2*p + p*q*n;
* circle vanishing order m(P): the maximal order of vanishing of P along
  the unit circle, max{nu1, nu2, max real n_l};
* the deep root: the unique real root with multiplicity M > d_h, which
  can only exist when q = 1 and is then provably rational; deep_root
  and analyze read it off the last factor of u's squarefree decomposition.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .bipoly import BiPoly, Term, Weight
from .errors import (
    AxesNotNormalized,
    InternalInvariantViolation,
    MonomialInput,
    NonvanishingGradient,
    NotQuasiHomogeneous,
    WrongHomogeneity,
    ZeroPolynomial,
)
from .newton import edge_weight
from .unipoly import (
    UniPoly,
    _z_eval,
    count_real_roots,
    exact_real_roots,
    squarefree_decompose,
)


class RealRootDescriptor(NamedTuple):
    """One real root of the root polynomial, with its multiplicity.

    Rational roots carry their exact value; irrational ones carry the
    primitive squarefree integer factor they satisfy and a half-open
    isolating interval.
    """

    multiplicity: int
    value: Fraction | None = None
    factor: UniPoly | None = None
    interval: tuple[Fraction, Fraction] | None = None


Edge = tuple[Weight, int, int, int, UniPoly]


def edge_root_polynomial(f: BiPoly, a: Term, b: Term) -> Edge:
    """(weight, nu1, nu2, n, u) for the compact edge of f from a to b.

    With a = (j0, k0) left of b = (j1, k1) and the edge's weight (q, p, m)
    from edge_weight, the lattice points of the edge are
    (j0 + p*(n - i), k1 + q*i) for i = 0..n, where n = (j1 - j0)/p; u
    collects f's integer numerators at them, so the terms of f on the edge
    are x1^j0 * x2^k1 * x1^(p*n) * u(x2^q / x1^p) over f.den, and
    u(y) = c * prod (y - lambda_l)^{n_l}.
    """
    w = edge_weight(a, b)
    (j0, _), (j1, k1) = a, b
    n = (j1 - j0) // w.p
    u = UniPoly.from_coeffs(
        f.num.get((j0 + w.p * (n - i), k1 + w.q * i), 0) for i in range(n + 1)
    )
    if u.degree != n or not u.coeffs[0]:
        raise InternalInvariantViolation("root polynomial lost an extreme term")
    return w, j0, k1, n, u


def root_structure(P: BiPoly) -> Edge:
    """The edge reading (weight, nu1, nu2, n, u) of quasi-homogeneous P.

    P is quasi-homogeneous exactly when its support is the edge between
    its two extreme points: the line through them has negative slope, so
    both weight components are positive, and u holds every term of P, as
    every point of that line between the extremes is a lattice point of
    the edge.  Raises MonomialInput for single-term input and
    NotQuasiHomogeneous otherwise.
    """
    if P.is_zero:
        raise ZeroPolynomial("zero polynomial has no weight")
    if len(P.num) == 1:
        raise MonomialInput("root structure needs at least two terms")
    a, b = min(P.num), max(P.num)
    # a has the least j and b the greatest, so the line through them has
    # negative slope exactly when j rises and k falls from a to b
    edge = None if a[0] == b[0] or a[1] <= b[1] else edge_root_polynomial(P, a, b)
    if edge is None or sum(map(bool, edge[-1].coeffs)) != len(P.num):
        raise NotQuasiHomogeneous("support is not on one positively-weighted line")
    return edge


class QuasiHomogData(NamedTuple):
    """Exact factorization data of a quasi-homogeneous polynomial: the
    squarefree decomposition of its root polynomial u into primitive
    integer factors, its largest real multiplicity, and the deep root
    paired with the shear exponent p."""

    weight: Weight
    nu1: int
    nu2: int
    n: int
    d_h: Fraction
    factors: tuple[tuple[UniPoly, int], ...]
    max_real_multiplicity: int
    principal_root: tuple[Fraction, int] | None

    @property
    def m_order(self) -> int:
        return max(self.nu1, self.nu2, self.max_real_multiplicity)

    @property
    def real_roots(self) -> tuple[RealRootDescriptor, ...]:
        """Every real root of u, isolated afresh on each access."""
        return tuple(
            RealRootDescriptor(mult, value=value)
            if value is not None
            else RealRootDescriptor(mult, factor=factor, interval=(lo, hi))
            for factor, mult in self.factors
            for lo, hi, value in exact_real_roots(factor)
        )


def _require_order_two(P: BiPoly) -> None:
    if P.is_zero:
        raise ZeroPolynomial("zero polynomial")
    if P.origin_order < 2:
        raise NonvanishingGradient(
            "input must vanish to order >= 2 at the origin"
        )


def _deep_factor(w: Weight, last: tuple[UniPoly, int]) -> tuple[Fraction, int] | None:
    """(b, M) for the real root b of multiplicity M > d_h of an edge of
    weight w, from the last squarefree factor of its root polynomial u of
    degree n; None when no root is that deep.

    k = floor(d_h) + 1 > d_h >= pqn/(p+q) >= n/2 is the least multiplicity
    above d_h.  The factors are pairwise coprime with deg*M summing to n,
    so at most one has M >= k, and it is the last, of largest
    multiplicity; deg*M <= n < 2k makes it linear: one rational root.
    """
    g, mult = last
    if mult <= w.m // (w.q + w.p):
        return None
    if g.degree != 1:
        raise InternalInvariantViolation("deep roots are not one rational root")
    return Fraction(-g.coeffs[0], g.coeffs[1]), mult


def deep_root(edge: Edge) -> tuple[Fraction, int] | None:
    """_deep_factor's answer for an edge (from edge_root_polynomial) with
    k1 <= k2, after two shortcuts that need no decomposition.  With its
    weight (q, p, m), q <= p:

    * q >= 2 gives p > q >= 2, so pq >= p + q and d_h >= pqn/(p+q) >= n:
      no multiplicity exceeds d_h;
    * for q = 1, d_h = (nu1 + p*nu2 + p*n)/(1+p), so n <= d_h exactly when
      n <= nu1 + p*nu2.
    """
    w, nu1, nu2, n, u = edge
    if w.q != 1 or n <= nu1 + w.p * nu2:
        return None
    return _deep_factor(w, squarefree_decompose(u)[-1])


def mirrored(edge: Edge) -> Edge:
    """The edge reading of swap_axes(f) for the mirror image of an edge of
    f: the weight (q, p, m) becomes (p, q, m), nu1 and nu2 trade places,
    and the edge's lattice points run in the opposite order, so u is
    reversed."""
    w, nu1, nu2, n, u = edge
    return Weight(w.p, w.q, w.m), nu2, nu1, n, UniPoly(u.coeffs[::-1])


def analyze(P: BiPoly) -> QuasiHomogData:
    """Full factorization data for quasi-homogeneous P with k1 <= k2.

    The input must vanish to order >= 2 at the origin and must not be a
    monomial.  u is decomposed once: _deep_factor reads the principal root
    off the last factor, paired with the shear exponent p, and it must be
    None exactly when the Sturm counts put no real multiplicity above d_h,
    or InternalInvariantViolation is raised.
    """
    _require_order_two(P)
    w, nu1, nu2, n, u = root_structure(P)
    if w.q > w.p:
        raise AxesNotNormalized("expected k1 <= k2; swap the axes first")
    d_h = Fraction(w.m, w.q + w.p)
    factors = squarefree_decompose(u)
    max_real = max(
        (mult for factor, mult in factors if count_real_roots(factor)), default=0
    )
    deep = _deep_factor(w, factors[-1])
    if (deep is None) != (max_real <= d_h):
        raise InternalInvariantViolation("deep root disagrees with the Sturm counts")
    principal = None if deep is None else (deep[0], w.p)
    return QuasiHomogData(w, nu1, nu2, n, d_h, factors, max_real, principal)


def predict_shear_vertices(P: BiPoly, b: Fraction | int) -> tuple[Term, Term]:
    """Extreme polyhedron vertices of P(x1, x2 + b*x1^m) without expanding.

    P must be quasi-homogeneous with integer weight ratio m = k2/k1 (so
    q = 1) and b must be nonzero.  Writing P = c * x1^a * x2^B *
    prod(x2 - c_l x1^m)^{n_l} with N = sum n_l, the sheared polynomial has
    first vertex (a, B + N) unchanged, and last vertex
        (a + m(B + N - n0), n0)   with n0 the multiplicity of b among the
    c_l: that of the one squarefree factor of u vanishing at b, as the
    factors are pairwise coprime (zero when none does).
    """
    b = Fraction(b)
    if b == 0:
        raise ValueError("shear coefficient must be nonzero")
    if len(P.support) == 1:
        raise WrongHomogeneity("a single monomial does not determine the weight")
    w, nu1, nu2, n, u = root_structure(P)
    if w.q != 1:
        raise WrongHomogeneity(f"weight ratio {w.p}/{w.q} is not an integer")
    num, den, factors = b.numerator, b.denominator, squarefree_decompose(u)
    mult = next((m for g, m in factors if not _z_eval(g.coeffs, num, den)), 0)
    first = (nu1, nu2 + n)
    last = (nu1 + w.p * (nu2 + n - mult), mult)
    return first, last
