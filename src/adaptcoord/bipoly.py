"""Bivariate polynomials over the rationals, with the coordinate changes
used throughout the package: shears x2 -> x2 + b*x1^m (and the mirrored
x1-shear), axis swaps, and axis scalings.

A BiPoly is a sparse map (j, k) -> coefficient of x1^j * x2^k.  The
squarefree decomposition with respect to x2 works over the rational
function field in x1, normalizing every factor to coprime integer
coefficients; it exists to expose repeated x2-roots, so the
implementation favours clarity over asymptotic speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, gcd as int_gcd
from typing import Iterable, Mapping

from .errors import (
    DegenerateInX2,
    InternalInvariantViolation,
    ZeroPolynomial,
)
from .unipoly import UniPoly, _frac, divmod_poly, integer_scale, poly_gcd

Term = tuple[int, int]


class BiPoly:
    """Immutable sparse bivariate polynomial with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Term, Fraction | int] | None = None):
        data: dict[Term, Fraction] = {}
        if terms:
            for (j, k), c in terms.items():
                if j < 0 or k < 0:
                    raise ValueError("exponents must be non-negative")
                c = _frac(c)
                if c != 0:
                    data[(int(j), int(k))] = c
        object.__setattr__(self, "_terms", data)

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    # constructors

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly()

    @staticmethod
    def constant(c: Fraction | int) -> "BiPoly":
        return BiPoly({(0, 0): c})

    @staticmethod
    def monomial(j: int, k: int, c: Fraction | int = 1) -> "BiPoly":
        return BiPoly({(j, k): c})

    @staticmethod
    def x1() -> "BiPoly":
        return BiPoly({(1, 0): 1})

    @staticmethod
    def x2() -> "BiPoly":
        return BiPoly({(0, 1): 1})

    # queries

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> dict[Term, Fraction]:
        return dict(self._terms)

    def coeff(self, j: int, k: int) -> Fraction:
        return self._terms.get((j, k), Fraction(0))

    @property
    def support(self) -> frozenset[Term]:
        return frozenset(self._terms)

    @property
    def x1_degree(self) -> int:
        if self.is_zero:
            return -1
        return max(j for j, _ in self._terms)

    @property
    def x2_degree(self) -> int:
        if self.is_zero:
            return -1
        return max(k for _, k in self._terms)

    @property
    def min_x1(self) -> int:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has empty support")
        return min(j for j, _ in self._terms)

    @property
    def min_x2(self) -> int:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has empty support")
        return min(k for _, k in self._terms)

    @property
    def origin_order(self) -> int:
        """Order of vanishing at the origin: min total degree of a term."""
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has empty support")
        return min(j + k for j, k in self._terms)

    # arithmetic

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "BiPoly") -> "BiPoly":
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return BiPoly(out)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __neg__(self) -> "BiPoly":
        return BiPoly({key: -c for key, c in self._terms.items()})

    def __mul__(self, other: "BiPoly | Fraction | int") -> "BiPoly":
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        out: dict[Term, Fraction] = {}
        for (j1, k1), c1 in self._terms.items():
            for (j2, k2), c2 in other._terms.items():
                key = (j1 + j2, k1 + k2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return BiPoly(out)

    __rmul__ = __mul__

    def scale(self, c: Fraction | int) -> "BiPoly":
        c = _frac(c)
        if c == 0:
            return BiPoly.zero()
        return BiPoly({key: v * c for key, v in self._terms.items()})

    def __pow__(self, n: int) -> "BiPoly":
        if n < 0:
            raise ValueError("negative power")
        result = BiPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, a: Fraction | int, b: Fraction | int) -> Fraction:
        a, b = _frac(a), _frac(b)
        total = Fraction(0)
        for (j, k), c in self._terms.items():
            total += c * a**j * b**k
        return total

    def derivative(self, axis: int) -> "BiPoly":
        """Partial derivative; axis 1 differentiates in x1, axis 2 in x2."""
        out: dict[Term, Fraction] = {}
        for (j, k), c in self._terms.items():
            if axis == 1 and j > 0:
                out[(j - 1, k)] = c * j
            elif axis == 2 and k > 0:
                out[(j, k - 1)] = c * k
        return BiPoly(out)

    # conversions between the sparse form and the dense view in x2

    def x2_coefficients(self) -> list[UniPoly]:
        """Dense list of x1-polynomials: entry k multiplies x2^k."""
        if self.is_zero:
            return []
        rows: list[dict[int, Fraction]] = [dict() for _ in range(self.x2_degree + 1)]
        for (j, k), c in self._terms.items():
            rows[k][j] = c
        out = []
        for row in rows:
            if row:
                size = max(row) + 1
                out.append(UniPoly.from_coeffs(
                    [row.get(i, Fraction(0)) for i in range(size)]
                ))
            else:
                out.append(UniPoly.zero())
        return out

    @staticmethod
    def from_x2_coefficients(rows: Iterable[UniPoly]) -> "BiPoly":
        terms: dict[Term, Fraction] = {}
        for k, row in enumerate(rows):
            for j, c in enumerate(row.coeffs):
                if c != 0:
                    terms[(j, k)] = c
        return BiPoly(terms)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for (j, k), c in sorted(self._terms.items(), key=lambda t: (t[0][0] + t[0][1], t[0][0], t[0][1])):
            factors = []
            if j == 1:
                factors.append("x1")
            elif j > 1:
                factors.append(f"x1^{j}")
            if k == 1:
                factors.append("x2")
            elif k > 1:
                factors.append(f"x2^{k}")
            if not factors:
                body = str(abs(c))
            else:
                mag = abs(c)
                body = "*".join(factors) if mag == 1 else f"{mag}*" + "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"BiPoly({self._terms!r})"


@dataclass(frozen=True, slots=True)
class Weight:
    """A weight (k1, k2) with k1, k2 >= 0, not both zero.

    `reduced` writes k1 = q/m, k2 = p/m over the least common denominator m
    with gcd(q, p, m) = 1; under the convention k1 <= k2 this is the usual
    normalized pair with p >= q and gcd(p, q) = 1.
    """

    k1: Fraction
    k2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "k1", _frac(self.k1))
        object.__setattr__(self, "k2", _frac(self.k2))
        if self.k1 < 0 or self.k2 < 0:
            raise ValueError("weights must be non-negative")
        if self.k1 == 0 and self.k2 == 0:
            raise ValueError("weight (0, 0) is not allowed")

    @property
    def reduced(self) -> tuple[int, int, int]:
        """(q, p, m) with k1 = q/m, k2 = p/m, gcd(q, p, m) = 1."""
        m = self.k1.denominator
        m = m * self.k2.denominator // int_gcd(m, self.k2.denominator)
        q = int(self.k1 * m)
        p = int(self.k2 * m)
        if int_gcd(int_gcd(q, p), m) != 1:
            raise InternalInvariantViolation("reduced weight triple not coprime")
        return q, p, m

    @property
    def ratio(self) -> Fraction:
        """k2 / k1 (requires k1 > 0)."""
        if self.k1 == 0:
            raise ZeroDivisionError("ratio undefined for k1 = 0")
        return self.k2 / self.k1

    def degree_of(self, term: Term) -> Fraction:
        j, k = term
        return self.k1 * j + self.k2 * k


class ShearAxis(Enum):
    """Which variable a shear replaces."""

    X2 = "x2"
    X1 = "x1"


@dataclass(frozen=True, slots=True)
class ShearChange:
    """The substitution applied to reach the new coordinates.

    With axis X2 the new polynomial is f(x1, x2 + b*x1^m): this is the
    inverse substitution of the coordinate change y2 = x2 - b*x1^m, so the
    chain of shears can be read back as the root jet y2 = x2 - sum b*x1^m.
    """

    axis: ShearAxis
    coefficient: Fraction
    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "coefficient", _frac(self.coefficient))
        if self.coefficient == 0:
            raise ValueError("shear coefficient must be nonzero")
        if self.exponent < 1:
            raise ValueError("shear exponent must be >= 1")


def weighted_order(f: BiPoly, w: Weight) -> Fraction:
    """Minimal weighted degree over the support."""
    if f.is_zero:
        raise ZeroPolynomial("zero polynomial has no weighted order")
    return min(w.degree_of(t) for t in f.support)


def weighted_part(f: BiPoly, w: Weight, degree: Fraction | int) -> BiPoly:
    """Sum of the terms of exact weighted degree `degree`."""
    degree = _frac(degree)
    return BiPoly({
        t: c for t, c in f.terms().items() if w.degree_of(t) == degree
    })


def apply_shear(f: BiPoly, shear: ShearChange) -> BiPoly:
    """Substitute x2 -> x2 + b*x1^m (axis X2) or x1 -> x1 + b*x2^m (X1)."""
    b, m = shear.coefficient, shear.exponent
    out: dict[Term, Fraction] = {}
    if shear.axis is ShearAxis.X2:
        for (j, k), c in f.terms().items():
            for i in range(k + 1):
                key = (j + m * (k - i), i)
                val = c * comb(k, i) * b ** (k - i)
                out[key] = out.get(key, Fraction(0)) + val
    else:
        for (j, k), c in f.terms().items():
            for i in range(j + 1):
                key = (i, k + m * (j - i))
                val = c * comb(j, i) * b ** (j - i)
                out[key] = out.get(key, Fraction(0)) + val
    return BiPoly(out)


def apply_jet(f: BiPoly, jet: Iterable[tuple[Fraction, int]]) -> BiPoly:
    """Apply a chain of x2-shears in order."""
    for b, m in jet:
        f = apply_shear(f, ShearChange(ShearAxis.X2, b, m))
    return f


def swap_axes(f: BiPoly) -> BiPoly:
    return BiPoly({(k, j): c for (j, k), c in f.terms().items()})


def scale_axes(f: BiPoly, c1: Fraction | int, c2: Fraction | int) -> BiPoly:
    """Substitute x1 -> c1*x1, x2 -> c2*x2 (both scalars nonzero)."""
    c1, c2 = _frac(c1), _frac(c2)
    if c1 == 0 or c2 == 0:
        raise ValueError("axis scalings must be invertible")
    return BiPoly({
        (j, k): c * c1**j * c2**k for (j, k), c in f.terms().items()
    })


# --- squarefree structure with respect to x2 -------------------------------
#
# Polynomials in x2 with coefficients in Q[x1], kept as dense lists (the
# "view").  gcds use a primitive pseudo-remainder sequence; exact division
# falls back on coefficient-wise exact division in Q[x1].

View = list[UniPoly]


def _view_strip(v: View) -> View:
    while v and v[-1].is_zero:
        v.pop()
    return v


def _view_is_zero(v: View) -> bool:
    return not v


def _view_deriv(v: View) -> View:
    return _view_strip([row.scale(k) for k, row in enumerate(v)][1:])


def _view_sub(u: View, v: View) -> View:
    out = []
    for i in range(max(len(u), len(v))):
        a = u[i] if i < len(u) else UniPoly.zero()
        b = v[i] if i < len(v) else UniPoly.zero()
        out.append(a - b)
    return _view_strip(out)


def _view_content(v: View) -> UniPoly:
    g = UniPoly.zero()
    for row in v:
        if row.is_zero:
            continue
        g = row.monic() if g.is_zero else poly_gcd(g, row)
        if g.degree == 0:
            return UniPoly.one()
    return g if not g.is_zero else UniPoly.zero()


def _view_scale_down(v: View, d: UniPoly) -> View:
    out = []
    for row in v:
        if row.is_zero:
            out.append(row)
        else:
            q, r = divmod_poly(row, d)
            if not r.is_zero:
                raise InternalInvariantViolation("content division not exact")
            out.append(q)
    return _view_strip(out)


def _view_primitive(v: View) -> View:
    v = _view_strip(list(v))
    if _view_is_zero(v):
        return v
    content = _view_content(v)
    if content.degree > 0:
        v = _view_scale_down(v, content)
    scale = integer_scale((c for row in v for c in row.coeffs), v[-1].leading)
    return [row.scale(scale) for row in v]


def _pseudo_rem(u: View, v: View) -> View:
    """lc(v)^t * u reduced mod v; exact over Q[x1]."""
    r = list(u)
    dv = len(v) - 1
    lead_v = v[-1]
    while not _view_is_zero(_view_strip(r)) and len(r) - 1 >= dv:
        lead_r = r[-1]
        r = [row * lead_v for row in r]
        offset = len(r) - 1 - dv
        for i, row in enumerate(v):
            r[offset + i] = r[offset + i] - lead_r * row
        r = _view_strip(r)
    return r


def _view_gcd(u: View, v: View) -> View:
    """Primitive gcd in x2 over the fraction field of Q[x1]."""
    u = _view_primitive(u)
    v = _view_primitive(v)
    if _view_is_zero(u):
        return v
    if _view_is_zero(v):
        return u
    if len(u) < len(v):
        u, v = v, u
    while not _view_is_zero(v):
        if len(v) == 1:
            return [UniPoly.one()]
        r = _pseudo_rem(u, v)
        u, v = v, _view_primitive(r)
    return _view_primitive(u)


def _view_exact_div(num: View, den: View) -> View:
    """Exact division in x2; each leading step divides exactly in Q(x1)."""
    if _view_is_zero(den):
        raise ZeroPolynomial("division by zero polynomial")
    rem = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quot: View = [UniPoly.zero()] * max(len(rem) - dd, 0)
    while not _view_is_zero(_view_strip(rem)):
        dr = len(rem) - 1
        if dr < dd:
            raise InternalInvariantViolation("x2-division expected to be exact")
        q, r = divmod_poly(rem[-1], lead)
        if not r.is_zero:
            raise InternalInvariantViolation("x2-division leading step not exact")
        quot[dr - dd] = q
        for i, row in enumerate(den):
            rem[dr - dd + i] = rem[dr - dd + i] - q * row
        rem = _view_strip(rem)
    return _view_strip(quot)


def squarefree_part_x2(f: BiPoly) -> tuple[BiPoly, tuple[tuple[BiPoly, int], ...]]:
    """Squarefree decomposition of f as a polynomial in x2.

    Returns (squarefree, factors) with factors a tuple of (F, j) such that
    f equals a polynomial in x1 alone times prod(F**j); each F is primitive
    with coprime integer coefficients, squarefree and pairwise coprime over
    the rational functions in x1, and multiplicities are strictly
    increasing.  `squarefree` is the product of the F's.
    """
    if f.is_zero:
        raise ZeroPolynomial("cannot decompose the zero polynomial")
    if f.x2_degree < 1:
        raise DegenerateInX2("input does not involve x2")
    p = _view_primitive(f.x2_coefficients())
    dp = _view_deriv(p)
    a = _view_gcd(p, dp)
    b = _view_exact_div(p, a)
    c = _view_exact_div(dp, a)
    d = _view_sub(c, _view_deriv(b))
    factors: list[tuple[BiPoly, int]] = []
    i = 1
    while len(b) - 1 > 0:
        g = _view_gcd(b, d)
        if len(g) - 1 > 0:
            factors.append((BiPoly.from_x2_coefficients(g), i))
        b = _view_exact_div(b, g)
        c = _view_exact_div(d, g)
        d = _view_sub(c, _view_deriv(b))
        i += 1
    squarefree = BiPoly.constant(1)
    for g_poly, _ in factors:
        squarefree = squarefree * g_poly
    return squarefree, tuple(factors)
