"""Structure theory of quasi-homogeneous bivariate polynomials.

A polynomial P is quasi-homogeneous when its support lies on a single line
with positive weights (k1, k2), normalized so the weighted degree is one.
Writing k1 = q/m, k2 = p/m in lowest terms, P factors as

    P = c * x1^nu1 * x2^nu2 * prod_l (x2^q - lambda_l * x1^p)^{n_l}

over the complex numbers.  Everything this module reports is derived
exactly from that factorization: the lambda_l are the roots of a single
univariate polynomial read off the support line, so its squarefree
decomposition, real-root counting (Sturm) and rational roots found by
Sturm isolation give the full multiplicity data without ever leaving the
rationals, in time polynomial in the coefficient size.

Key quantities:

* homogeneous distance d_h = 1/(k1+k2) = (nu1*q + nu2*p + p*q*n)/(p+q);
* circle vanishing order m(P): the maximal order of vanishing of P along
  the unit circle, max{nu1, nu2, max real n_l};
* height of P itself: max{m(P), d_h};
* the principal root: the unique real root with multiplicity > d_h, which
  can only exist when q = 1 and is then provably rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

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
from .unipoly import (
    UniPoly,
    count_real_roots,
    exact_real_roots,
    rational_roots,
    squarefree_decompose,
)


class WeightDetection(Enum):
    """Non-weight outcomes of detect_weight."""

    MONOMIAL = "monomial"
    NOT_QUASI_HOMOGENEOUS = "not-quasi-homogeneous"


def detect_weight(P: BiPoly) -> Weight | WeightDetection:
    """The unique degree-one weight, or the reason there is none.

    Returns MONOMIAL for single-term input and NOT_QUASI_HOMOGENEOUS when
    the support is not collinear or the supporting line does not have
    negative slope (both weight components must be positive).
    """
    if P.is_zero:
        raise ZeroPolynomial("zero polynomial has no weight")
    pts = sorted(P.support)
    if len(pts) == 1:
        return WeightDetection.MONOMIAL
    (j1, k1), (j2, k2) = pts[0], pts[-1]
    det = Fraction(j1 * k2 - j2 * k1)
    if det == 0:
        return WeightDetection.NOT_QUASI_HOMOGENEOUS
    w1 = (k2 - k1) / det
    w2 = (j1 - j2) / det
    if w1 <= 0 or w2 <= 0:
        return WeightDetection.NOT_QUASI_HOMOGENEOUS
    w = Weight(w1, w2)
    for t in pts:
        if w.degree_of(t) != 1:
            return WeightDetection.NOT_QUASI_HOMOGENEOUS
    return w


@dataclass(frozen=True, slots=True)
class RealRootDescriptor:
    """One real root of the root polynomial, with its multiplicity.

    Rational roots carry their exact value; irrational ones carry the
    squarefree factor they satisfy and a half-open isolating interval.
    """

    multiplicity: int
    value: Fraction | None = None
    factor: UniPoly | None = None
    interval: tuple[Fraction, Fraction] | None = None


@dataclass(frozen=True, slots=True)
class QuasiHomogData:
    """Exact factorization data of a quasi-homogeneous polynomial."""

    weight: Weight
    nu1: int
    nu2: int
    n: int
    distinct_count: int
    real_roots: tuple[RealRootDescriptor, ...]
    d_h: Fraction
    m_order: int
    principal_root: tuple[Fraction, int] | None

    @property
    def max_real_multiplicity(self) -> int:
        return max((r.multiplicity for r in self.real_roots), default=0)


def _require_order_two(P: BiPoly) -> None:
    if P.is_zero:
        raise ZeroPolynomial("zero polynomial")
    if P.origin_order < 2:
        raise NonvanishingGradient(
            "input must vanish to order >= 2 at the origin"
        )


def root_structure(P: BiPoly) -> tuple[Weight, int, int, int, int, int, UniPoly]:
    """(weight, nu1, nu2, q, p, n, u) with u the root polynomial.

    After pulling out x1^nu1 * x2^nu2 the remaining support runs along the
    line from (p*n, 0) to (0, q*n); u collects the coefficients along it,
    so u(y) = c * prod (y - lambda_l)^{n_l}.  Requires at least two support
    points (use the monomial conventions upstream otherwise).
    """
    w = detect_weight(P)
    if w is WeightDetection.MONOMIAL:
        raise MonomialInput("root structure needs at least two terms")
    if w is WeightDetection.NOT_QUASI_HOMOGENEOUS:
        raise NotQuasiHomogeneous("support is not on one positively-weighted line")
    return _root_structure(P, w)


def _root_structure(
    P: BiPoly, w: Weight
) -> tuple[Weight, int, int, int, int, int, UniPoly]:
    """root_structure(P) for P already known to have the weight w."""
    nu1, nu2 = P.min_x1, P.min_x2
    q, p, _ = w.reduced
    coeffs: dict[int, Fraction] = {}
    n: int | None = None
    for (j, k), c in P.terms().items():
        jj, kk = j - nu1, k - nu2
        if jj % p or kk % q:
            raise InternalInvariantViolation("support not on the root lattice")
        i = kk // q
        if n is None:
            n = i + jj // p
        elif i + jj // p != n:
            raise InternalInvariantViolation("support line miscounted")
        coeffs[i] = c
    assert n is not None
    u = UniPoly.from_coeffs([coeffs.get(i, Fraction(0)) for i in range(n + 1)])
    if u.degree != n or u.trailing_order != 0:
        raise InternalInvariantViolation("root polynomial lost an extreme term")
    return w, nu1, nu2, q, p, n, u


@dataclass(frozen=True, slots=True)
class VerdictRoots:
    """The squarefree decomposition of the root polynomial u of P, with the
    two values the adaptedness verdict reads off it."""

    nu1: int
    nu2: int
    n: int
    d_h: Fraction
    factors: tuple[tuple[UniPoly, int], ...]
    max_real_multiplicity: int
    principal_root: tuple[Fraction, int] | None


def verdict_roots(P: BiPoly, w: Weight) -> VerdictRoots:
    """Largest real root multiplicity and principal root of P, which has the
    weight w with k1 <= k2.

    A real root of multiplicity above d_h can only exist when q = 1, and is
    then unique and rational: d_h >= n/2, so its squarefree factor has
    degree * multiplicity <= n < 2 * multiplicity and is linear.
    """
    _, nu1, nu2, q, p, n, u = _root_structure(P, w)
    d_h = Fraction(nu1 * q + nu2 * p + p * q * n, q + p)
    if d_h != 1 / (w.k1 + w.k2):
        raise InternalInvariantViolation("two homogeneous-distance formulas disagree")
    factors = squarefree_decompose(u).factors
    max_real = 0
    principal: tuple[Fraction, int] | None = None
    for factor, mult in factors:
        real = count_real_roots(factor)
        if not real:
            continue
        max_real = mult  # factors come in increasing multiplicity
        if mult <= d_h:
            continue
        if principal is not None or real > 1:
            raise InternalInvariantViolation("more than one root above the threshold")
        if q != 1:
            raise InternalInvariantViolation("root above threshold despite q >= 2")
        if factor.degree != 1:
            raise InternalInvariantViolation(
                "principal root must be rational for rational input"
            )
        principal = (-factor.coeffs[0], p)
    return VerdictRoots(nu1, nu2, n, d_h, factors, max_real, principal)


def analyze(P: BiPoly) -> QuasiHomogData:
    """Full factorization data for quasi-homogeneous P with k1 <= k2.

    The input must vanish to order >= 2 at the origin and must not be a
    monomial.  The principal root is populated exactly when q = 1 and one
    real root has multiplicity exceeding d_h; such a root is rational.
    """
    _require_order_two(P)
    w = detect_weight(P)
    if w is WeightDetection.MONOMIAL:
        raise MonomialInput("analysis is for non-monomial input")
    if w is WeightDetection.NOT_QUASI_HOMOGENEOUS:
        raise NotQuasiHomogeneous("support is not on one positively-weighted line")
    if w.k1 > w.k2:
        raise AxesNotNormalized("expected k1 <= k2; swap the axes first")
    roots = verdict_roots(P, w)
    real_roots = tuple(
        RealRootDescriptor(mult, value=value)
        if value is not None
        else RealRootDescriptor(mult, factor=factor, interval=(lo, hi))
        for factor, mult in roots.factors
        for lo, hi, value in exact_real_roots(factor)
    )
    return QuasiHomogData(
        weight=w,
        nu1=roots.nu1,
        nu2=roots.nu2,
        n=roots.n,
        distinct_count=sum(factor.degree for factor, _ in roots.factors),
        real_roots=real_roots,
        d_h=roots.d_h,
        m_order=max(roots.nu1, roots.nu2, roots.max_real_multiplicity),
        principal_root=roots.principal_root,
    )


def circle_vanishing_order(P: BiPoly) -> int:
    """Maximal order of vanishing of P along the unit circle.

    Monomials are handled directly (the order is max(nu1, nu2) at the axis
    points); otherwise this is the m_order of the factorization data.
    """
    _require_order_two(P)
    if len(P.support) == 1:
        ((j, k),) = P.support
        return max(j, k)
    return analyze(P).m_order


def quasihomogeneous_height(P: BiPoly) -> Fraction:
    """Height of a quasi-homogeneous polynomial: max{m(P), d_h}."""
    data = analyze(P)
    return max(Fraction(data.m_order), data.d_h)


def predict_shear_vertices(P: BiPoly, b: Fraction | int) -> tuple[Term, Term]:
    """Extreme polyhedron vertices of P(x1, x2 + b*x1^m) without expanding.

    P must be quasi-homogeneous with integer weight ratio m = k2/k1 (so
    q = 1) and b must be nonzero.  Writing P = c * x1^a * x2^B *
    prod(x2 - c_l x1^m)^{n_l} with N = sum n_l, the sheared polynomial has
    first vertex (a, B + N) unchanged, and last vertex
        (a + m(B + N - n0), n0)   with n0 the multiplicity of b among the
    c_l (zero when b is not a root).
    """
    b = Fraction(b)
    if b == 0:
        raise ValueError("shear coefficient must be nonzero")
    w = detect_weight(P)
    if w is WeightDetection.MONOMIAL:
        raise WrongHomogeneity("a single monomial does not determine the weight")
    if w is WeightDetection.NOT_QUASI_HOMOGENEOUS:
        raise NotQuasiHomogeneous("support is not on one positively-weighted line")
    q, p, _ = w.reduced
    if q != 1:
        raise WrongHomogeneity(f"weight ratio {p}/{q} is not an integer")
    _, nu1, nu2, q, p, n, u = _root_structure(P, w)
    mult = dict(rational_roots(u)).get(b, 0)
    first = (nu1, nu2 + n)
    last = (nu1 + p * (nu2 + n - mult), mult)
    return first, last

