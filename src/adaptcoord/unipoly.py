"""Exact univariate polynomial arithmetic over the rationals.

Coefficients are stdlib Fractions stored dense, lowest degree first, with
no trailing zeros.  Everything in this module is exact: squarefree
decomposition (Yun), real-root counting (Sturm chains on half-open
intervals), root isolation by bisection, and rational roots read off
isolating intervals refined below 1/leading coefficient, so root finding
costs time polynomial in the coefficient size.  No floating point
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd, lcm
from typing import Iterable, Sequence

from .errors import NotSquarefree, ZeroPolynomial


def _frac(x: Fraction | int) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True, slots=True)
class UniPoly:
    """Dense univariate polynomial; coeffs[i] multiplies y**i."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(seq: Iterable[Fraction | int]) -> "UniPoly":
        cs = [_frac(c) for c in seq]
        while cs and cs[-1] == 0:
            cs.pop()
        return UniPoly(tuple(cs))

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly(())

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly((Fraction(1),))

    @staticmethod
    def constant(c: Fraction | int) -> "UniPoly":
        return UniPoly.from_coeffs([c])

    @staticmethod
    def variable() -> "UniPoly":
        return UniPoly((Fraction(0), Fraction(1)))

    @staticmethod
    def monomial(exponent: int, coefficient: Fraction | int = 1) -> "UniPoly":
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        c = _frac(coefficient)
        if c == 0:
            return UniPoly.zero()
        return UniPoly((Fraction(0),) * exponent + (c,))

    @staticmethod
    def from_roots(roots: Iterable[Fraction | int]) -> "UniPoly":
        p = UniPoly.one()
        for r in roots:
            p = p * UniPoly.from_coeffs([-_frac(r), 1])
        return p

    # basic queries

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def trailing_order(self) -> int:
        """Smallest exponent with a nonzero coefficient."""
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no trailing order")
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        raise AssertionError("unreachable")

    @property
    def trailing(self) -> Fraction:
        return self.coeffs[self.trailing_order]

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    # arithmetic

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly.from_coeffs(out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "UniPoly | Fraction | int") -> "UniPoly":
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        if self.is_zero or other.is_zero:
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return UniPoly.from_coeffs(out)

    __rmul__ = __mul__

    def scale(self, c: Fraction | int) -> "UniPoly":
        c = _frac(c)
        if c == 0:
            return UniPoly.zero()
        return UniPoly(tuple(a * c for a in self.coeffs))

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power")
        result = UniPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, x: Fraction | int) -> Fraction:
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly.from_coeffs(
            [i * c for i, c in enumerate(self.coeffs)][1:]
        )

    def monic(self) -> "UniPoly":
        if self.is_zero:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        return self.scale(1 / self.leading)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*y" if c != 1 else "y")
            else:
                parts.append(f"{c}*y^{i}" if c != 1 else f"y^{i}")
        return " + ".join(parts).replace("+ -", "- ")


def divmod_poly(num: UniPoly, den: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Quotient and remainder of exact field division."""
    if den.is_zero:
        raise ZeroPolynomial("division by the zero polynomial")
    if num.degree < den.degree:
        return UniPoly.zero(), num
    rem = list(num.coeffs)
    dd = den.degree
    lead = den.leading
    quot = [Fraction(0)] * (len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        q = c / lead
        quot[i - dd] = q
        for j, dc in enumerate(den.coeffs):
            rem[i - dd + j] -= q * dc
    return UniPoly.from_coeffs(quot), UniPoly.from_coeffs(rem)


def exact_div(num: UniPoly, den: UniPoly) -> UniPoly:
    q, r = divmod_poly(num, den)
    if not r.is_zero:
        raise ValueError("division is not exact")
    return q


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd via the Euclidean algorithm."""
    while not b.is_zero:
        _, r = divmod_poly(a, b)
        a, b = b, r
    if a.is_zero:
        return a
    return a.monic()


def integer_scale(coeffs: Iterable[Fraction], leading: Fraction) -> Fraction:
    """The factor that turns coeffs into coprime integers and the
    coefficient `leading` among them positive; coeffs must not all be 0."""
    coeffs = tuple(coeffs)
    den = lcm(*(c.denominator for c in coeffs))
    scale = Fraction(den, gcd(*(c.numerator * (den // c.denominator) for c in coeffs)))
    return -scale if leading < 0 else scale


def integer_primitive(p: UniPoly) -> UniPoly:
    """Scale to coprime integer coefficients with positive leading term."""
    if p.is_zero:
        return p
    return p.scale(integer_scale(p.coeffs, p.leading))


@dataclass(frozen=True, slots=True)
class SquarefreeDecomposition:
    """p = constant * prod(factor**multiplicity); factors monic, squarefree,
    pairwise coprime, listed with strictly increasing multiplicity."""

    constant: Fraction
    factors: tuple[tuple[UniPoly, int], ...]

    def expand(self) -> UniPoly:
        p = UniPoly.constant(self.constant)
        for f, mult in self.factors:
            p = p * f**mult
        return p


def yun(p, *, gcd, div, deriv, sub, degree) -> list:
    """Yun's algorithm for p in one variable over a field, in any
    representation: the callables give the gcd, exact division,
    derivative, difference and degree.  Returns [(factor, multiplicity)]
    over the factors of positive degree, multiplicities increasing; the
    product of factor**multiplicity is p up to a unit.  Any associate
    gcd works, since the derivative commutes with unit scalings.
    """
    dp = deriv(p)
    a = gcd(p, dp)
    b = div(p, a)
    d = sub(div(dp, a), deriv(b))
    factors = []
    i = 1
    while degree(b) > 0:
        g = gcd(b, d)
        if degree(g) > 0:
            factors.append((g, i))
        b = div(b, g)
        d = sub(div(d, g), deriv(b))
        i += 1
    return factors


def squarefree_decompose(p: UniPoly) -> SquarefreeDecomposition:
    """Yun's algorithm over the rationals."""
    if p.is_zero:
        raise ZeroPolynomial("cannot decompose the zero polynomial")
    if p.degree == 0:
        return SquarefreeDecomposition(p.coeffs[0], ())
    factors = yun(
        p.monic(),
        gcd=poly_gcd,
        div=exact_div,
        deriv=UniPoly.derivative,
        sub=UniPoly.__sub__,
        degree=lambda q: q.degree,
    )
    return SquarefreeDecomposition(p.leading, tuple(factors))


def squarefree_part(p: UniPoly) -> UniPoly:
    """Monic product of the distinct irreducible factors."""
    dec = squarefree_decompose(p)
    out = UniPoly.one()
    for f, _ in dec.factors:
        out = out * f
    return out


# Sturm chains.  Sign counts use the convention that zeros are skipped, so
# the difference of variation counts gives the number of distinct real
# roots in the half-open interval (lo, hi].


def sturm_chain(p: UniPoly) -> list[UniPoly]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero:
        _, r = divmod_poly(chain[-2], chain[-1])
        chain.append(-r)
    chain.pop()
    return chain


def _squarefree_sturm_chain(p: UniPoly) -> list[UniPoly]:
    """Sturm chain of p, whose last entry is gcd(p, p') up to a constant."""
    chain = sturm_chain(p)
    if chain[-1].degree > 0:
        raise NotSquarefree("input has a repeated root")
    return chain


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sign_at(p: UniPoly, x: Fraction | None, positive_end: bool) -> int:
    """Sign of p at x, or at +/- infinity when x is None."""
    if p.is_zero:
        return 0
    if x is None:
        s = _sign(p.leading)
        if not positive_end and p.degree % 2 == 1:
            s = -s
        return s
    return _sign(p.evaluate(x))


def _variations(chain: Sequence[UniPoly], x: Fraction | None, positive_end: bool) -> int:
    signs = [s for s in (_sign_at(p, x, positive_end) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(
    p: UniPoly,
    lo: Fraction | int | None = None,
    hi: Fraction | int | None = None,
) -> int:
    """Number of real roots of squarefree p in (lo, hi]; None means infinite."""
    if p.is_zero:
        raise ZeroPolynomial("root counting needs a nonzero polynomial")
    if p.degree == 0:
        return 0
    chain = _squarefree_sturm_chain(p)
    lo_f = None if lo is None else _frac(lo)
    hi_f = None if hi is None else _frac(hi)
    if lo_f is not None and hi_f is not None and lo_f >= hi_f:
        raise ValueError("empty interval: need lo < hi")
    return _variations(chain, lo_f, False) - _variations(chain, hi_f, True)


def root_bound(p: UniPoly) -> Fraction:
    """Cauchy bound: every real root lies in (-B, B]."""
    if p.is_zero or p.degree == 0:
        return Fraction(1)
    lead = abs(p.leading)
    return 1 + max(abs(c) for c in p.coeffs[:-1]) / lead


def isolate_real_roots(
    p: UniPoly, width: Fraction | None = None
) -> list[tuple[Fraction, Fraction]]:
    """Disjoint half-open intervals (lo, hi], one real root of p in each.

    p must be squarefree.  Intervals are returned in increasing order, each
    narrower than `width` when one is given.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot isolate roots of zero")
    if p.degree == 0:
        return []
    chain = _squarefree_sturm_chain(p)

    def var(x: Fraction) -> int:
        return _variations(chain, x, True)

    bound = root_bound(p)
    out: list[tuple[Fraction, Fraction]] = []
    # stack of (lo, hi, roots inside (lo, hi])
    stack = [(-bound, bound, var(-bound) - var(bound))]
    while stack:
        lo, hi, k = stack.pop()
        if k == 0:
            continue
        if k == 1 and (width is None or hi - lo < width):
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        kl = var(lo) - var(mid)
        stack.append((mid, hi, k - kl))
        stack.append((lo, mid, kl))
    out.sort()
    return out


def exact_real_roots(
    p: UniPoly,
) -> list[tuple[Fraction, Fraction, Fraction | None]]:
    """Isolating intervals (lo, hi] of squarefree p's real roots, each with
    the root itself when it is rational and None otherwise.

    A rational root of the integer polynomial an*y^n + ... is z/an for an
    integer z, so an interval narrower than 1/an holds at most one
    candidate, floor(an*hi)/an, which is tested exactly.
    """
    prim = integer_primitive(p)
    an = prim.leading.numerator
    out: list[tuple[Fraction, Fraction, Fraction | None]] = []
    for lo, hi in isolate_real_roots(prim, Fraction(1, an)):
        r = Fraction(floor(an * hi), an)
        out.append((lo, hi, r if r > lo and prim.evaluate(r) == 0 else None))
    return out


def split_rational_roots(p: UniPoly) -> tuple[list[tuple[Fraction, int]], UniPoly]:
    """All rational roots with multiplicities, plus the deflated cofactor.

    p == cofactor * prod((y - r)**m) exactly; the cofactor has no rational
    roots.  Roots are sorted increasing; each root's multiplicity is that of
    its squarefree factor.
    """
    if p.is_zero:
        raise ZeroPolynomial("zero polynomial has every root")
    dec = squarefree_decompose(p)
    roots: list[tuple[Fraction, int]] = []
    cofactor = UniPoly.constant(dec.constant)
    for factor, mult in dec.factors:
        for _, _, r in exact_real_roots(factor):
            if r is not None:
                roots.append((r, mult))
                factor = exact_div(factor, UniPoly.from_coeffs([-r, 1]))
        cofactor = cofactor * factor**mult
    roots.sort()
    return roots, cofactor


def rational_roots(p: UniPoly) -> list[tuple[Fraction, int]]:
    """Rational roots of p with multiplicities, sorted increasing."""
    return split_rational_roots(p)[0]
