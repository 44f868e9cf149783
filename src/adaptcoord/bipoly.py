"""Bivariate polynomials over the rationals, with the coordinate changes
used throughout the package: shears x2 -> x2 + b*x1^m (and the mirrored
x1-shear), axis swaps, and axis scalings.

A BiPoly is a sparse map (j, k) -> Fraction coefficient of x1^j * x2^k.
The two kernels of the shear iteration work on integer numerators over
one common denominator and build Fractions only for their output.  A
shear is a Taylor shift of each weighted diagonal of the support, done
with integer adds and multiplies.  The squarefree decomposition with
respect to x2 is Yun's algorithm over Z[x1][x2], with gcds taken by
evaluating x1 at a large integer; it normalizes every factor to coprime
integer coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd as int_gcd, lcm
from typing import Iterable, Mapping

from .errors import (
    DegenerateInX2,
    InternalInvariantViolation,
    ZeroPolynomial,
)
from .unipoly import (
    Row,
    _frac,
    _z_adic,
    _z_eval,
    _z_gcd,
    _z_mul,
    _z_primitive,
    _z_quo,
    _z_sub,
    yun,
)

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

    @classmethod
    def _of(cls, data: dict[Term, Fraction]) -> "BiPoly":
        """Wrap a dict of nonzero Fraction coefficients, unchecked."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "_terms", data)
        return poly

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
    def x2_degree(self) -> int:
        if self.is_zero:
            return -1
        return max(k for _, k in self._terms)

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

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        # the keys (j + k, j, k) are distinct, so c is never compared
        for _, j, k, c in sorted((j + k, j, k, c) for (j, k), c in self._terms.items()):
            factors = []
            if j == 1:
                factors.append("x1")
            elif j > 1:
                factors.append(f"x1^{j}")
            if k == 1:
                factors.append("x2")
            elif k > 1:
                factors.append(f"x2^{k}")
            n, d = c.numerator, c.denominator
            mag = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
            if not factors:
                body = mag
            else:
                body = "*".join(factors) if mag == "1" else f"{mag}*" + "*".join(factors)
            if not parts:
                parts.append(body if n > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if n > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"BiPoly({self._terms!r})"


@dataclass(frozen=True, slots=True)
class Weight:
    """The weight (k1, k2) = (q/m, p/m) in lowest terms: integers q, p >= 0,
    not both zero, m > 0 and gcd(q, p, m) = 1.

    The weight of a compact edge of slope -q/p has gcd(p, q) = 1 as well,
    and the terms of weighted degree one are those with q*j + p*k = m.
    """

    q: int
    p: int
    m: int

    def __post_init__(self):
        if self.q < 0 or self.p < 0:
            raise ValueError("weights must be non-negative")
        if self.q == 0 and self.p == 0:
            raise ValueError("weight (0, 0) is not allowed")
        if self.m <= 0:
            raise ValueError("weight denominator must be positive")
        if int_gcd(self.q, self.p, self.m) != 1:
            raise ValueError("weight triple (q, p, m) must be coprime")

    @property
    def k1(self) -> Fraction:
        return Fraction(self.q, self.m)

    @property
    def k2(self) -> Fraction:
        return Fraction(self.p, self.m)

    def degree_of(self, term: Term) -> Fraction:
        j, k = term
        return Fraction(self.q * j + self.p * k, self.m)


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


def weighted_part(f: BiPoly, w: Weight, degree: Fraction | int) -> BiPoly:
    """Sum of the terms of exact weighted degree `degree`."""
    degree = _frac(degree)
    return BiPoly({
        t: c for t, c in f.terms().items() if w.degree_of(t) == degree
    })


def apply_shear(f: BiPoly, shear: ShearChange) -> BiPoly:
    """Substitute x2 -> x2 + b*x1^m (axis X2) or x1 -> x1 + b*x2^m (X1).

    For an x2-shear, the terms with j + m*k = s form x1^s * P(x2/x1^m),
    and the shear maps them to x1^s * P(x2/x1^m + b): a Taylor shift of
    the univariate P, whose output terms keep the diagonal s, so
    diagonals never mix.  With f = N/den over integers N, b = bn/bd and
    K = deg P, bd^K * P(t + b) = R(bd*t) for R(u) = sum N_k bd^(K-k)
    (u + bn)^k, which Horner's scheme shifts with integer adds and
    multiplies only (von zur Gathen & Gerhard 1997).  An x1-shear is the
    same with the roles of j and k swapped.
    """
    terms = f._terms
    if not terms:
        return f
    m = shear.exponent
    bn, bd = shear.coefficient.numerator, shear.coefficient.denominator
    den = lcm(*(c.denominator for c in terms.values()))
    x2_axis = shear.axis is ShearAxis.X2
    diagonals: dict[int, dict[int, int]] = {}
    for (j, k), c in terms.items():
        if not x2_axis:
            j, k = k, j
        diagonals.setdefault(j + m * k, {})[k] = c.numerator * (den // c.denominator)
    bd_powers = [1]
    for _ in range(max(max(d) for d in diagonals.values())):
        bd_powers.append(bd_powers[-1] * bd)
    out: dict[Term, Fraction] = {}
    for s, diagonal in diagonals.items():
        top = max(diagonal)
        r = [diagonal.get(k, 0) * bd_powers[top - k] for k in range(top + 1)]
        for i in range(top):
            for k in range(top - 1, i - 1, -1):
                r[k] += bn * r[k + 1]
        # the coefficient of t^i is r[i] * bd^i / (den * bd^K), K = top
        for i, c in enumerate(r):
            if c:
                key = (s - m * i, i) if x2_axis else (i, s - m * i)
                d = den * bd_powers[top - i]
                out[key] = Fraction(c) if d == 1 else Fraction(c, d)
    return BiPoly._of(out)


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
# A polynomial in x2 over Z[x1] is kept as a list of rows, entry k the
# x1-polynomial that multiplies x2^k, each row a list of integers, lowest
# degree first, no trailing zeros ([] is zero); the top row is nonzero.
# gcds are heuristic gcds (Char, Geddes & Gonnet 1989) at both levels:
# x1 is set to a large integer xi, the gcd of the images is read back in
# symmetric base xi, and the candidate is kept only when it divides both
# inputs exactly.  Every factor met is primitive, so by Gauss's lemma
# every exact division in the decomposition stays in Z[x1].  The rows'
# own arithmetic and gcd are unipoly.py's Z[x] helpers.


def _rows_strip(v: list[Row]) -> list[Row]:
    while v and not v[-1]:
        v.pop()
    return v


def _rows_primitive(v: list[Row]) -> list[Row]:
    """v over its content in Z[x1], the top row's leading coefficient
    positive: coprime integer coefficients, no x1-factor in common."""
    rows = sorted((row for row in v if row), key=len)
    g = rows[0] if len(rows[0]) == 1 else _z_primitive(rows[0])
    for row in rows[1:]:
        if len(g) == 1:
            break
        g = _z_gcd(g, row)
    if len(g) > 1:
        v = [_z_quo(row, g) if row else row for row in v]
    c = int_gcd(*(x for row in v for x in row))
    if v[-1][-1] < 0:
        c = -c
    return v if c == 1 else [[x // c for x in row] for row in v]


def _rows_sub(u: list[Row], v: list[Row]) -> list[Row]:
    size = max(len(u), len(v))
    u = u + [[]] * (size - len(u))
    v = v + [[]] * (size - len(v))
    return _rows_strip([_z_sub(a, b) for a, b in zip(u, v)])


def _rows_deriv(v: list[Row]) -> list[Row]:
    return [[k * x for x in row] for k, row in enumerate(v)][1:]


def _rows_quo(num: list[Row], den: list[Row]) -> list[Row] | None:
    """The quotient num / den in x2 over Z[x1], or None when den does not
    divide num."""
    rem = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quot: list[Row] = [[] for _ in range(max(len(rem) - dd, 0))]
    while len(rem) > dd:
        q = _z_quo(rem.pop(), lead)
        if q is None:
            return None
        off = len(rem) - dd
        quot[off] = q
        for i in range(dd):
            rem[off + i] = _z_sub(rem[off + i], _z_mul(q, den[i]))
        _rows_strip(rem)
    return None if rem else quot


def _rows_exact_quo(num: list[Row], den: list[Row]) -> list[Row]:
    q = _rows_quo(num, den)
    if q is None:
        raise InternalInvariantViolation("x2-division expected to be exact")
    return q


def _rows_gcd(u: list[Row], v: list[Row]) -> list[Row]:
    """Primitive gcd in x2 over Z[x1] of nonzero u and any v.

    Every root of lc(u) and lc(v) is below xi in size, so the gcd G keeps
    its degree at x1 = xi, and G(xi, x2) divides the gcd h of u(xi, x2)
    and v(xi, x2).  A primitive candidate that divides u and v divides G,
    so it is G when it has the degree of h.  Scaled to the leading
    coefficient l(xi), l = gcd(lc u, lc v), h is the image of
    (l/lc G)*G unless xi is one of the finitely many roots of the
    resultant of the cofactors, and read back in base xi it is that
    polynomial once xi is large; xi grows until the candidate divides.
    """
    if not v:
        return _rows_primitive(u)
    if len(u) == 1 or len(v) == 1:
        return [[1]]
    lead = _z_gcd(u[-1], v[-1])
    lead = [int_gcd(int_gcd(*u[-1]), int_gcd(*v[-1])) * c for c in lead]
    xi = 2 * max(abs(c) for w in (u, v) for row in w for c in row) + 2
    while True:
        h = _z_gcd([_z_eval(row, xi) for row in u], [_z_eval(row, xi) for row in v])
        if len(h) == 1:
            return [[1]]
        scale, r = divmod(_z_eval(lead, xi), h[-1])
        if not r:
            g = _rows_primitive([_z_adic(scale * c, xi) for c in h])
            if _rows_quo(u, g) is not None and _rows_quo(v, g) is not None:
                return g
        xi *= xi


def _rows_of(f: BiPoly) -> list[Row]:
    """The rows of f times a common denominator of its coefficients."""
    den = lcm(*(c.denominator for c in f._terms.values()))
    rows: list[Row] = [[] for _ in range(f.x2_degree + 1)]
    for (j, k), c in f._terms.items():
        row = rows[k]
        if len(row) <= j:
            row.extend([0] * (j + 1 - len(row)))
        row[j] = c.numerator * (den // c.denominator)
    return rows


def _rows_to_bipoly(v: list[Row]) -> BiPoly:
    return BiPoly._of({
        (j, k): Fraction(c) for k, row in enumerate(v) for j, c in enumerate(row) if c
    })


def squarefree_part_x2(f: BiPoly) -> tuple[tuple[BiPoly, int], ...]:
    """Squarefree decomposition of f as a polynomial in x2.

    Returns a tuple of (F, j) such that f equals a polynomial in x1 alone
    times prod(F**j); each F is primitive with coprime integer
    coefficients, squarefree and pairwise coprime over the rational
    functions in x1, and multiplicities are strictly increasing.
    """
    if f.is_zero:
        raise ZeroPolynomial("cannot decompose the zero polynomial")
    if f.x2_degree < 1:
        raise DegenerateInX2("input does not involve x2")
    found = yun(
        _rows_primitive(_rows_of(f)),
        gcd=_rows_gcd,
        div=_rows_exact_quo,
        deriv=_rows_deriv,
        sub=_rows_sub,
        degree=lambda v: len(v) - 1,
    )
    return tuple((_rows_to_bipoly(g), i) for g, i in found)
