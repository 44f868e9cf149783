"""Bivariate polynomials over the rationals, with the coordinate changes
used throughout the package: shears x2 -> x2 + b*x1^m (and the mirrored
x1-shear) and axis swaps.

A BiPoly is a sparse map (j, k) -> integer numerator of x1^j * x2^k over
one positive denominator, in lowest terms, so every kernel reads
integers and equal polynomials have equal fields.  A shear is a Taylor
shift of each weighted diagonal of the support, done with integer adds
and multiplies.  The squarefree decomposition with respect to x2 fixes
x1 at a power of two, packing each row into one integer by Kronecker
substitution, decomposes the image with unipoly.py's Yun in Z[x2], and
reads each factor back from the base-2**k digits of its coefficients,
made coprime and checked by the exact product.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, gcd as int_gcd, lcm, prod
from operator import index
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import DegenerateInX2, InternalInvariantViolation, ZeroPolynomial
from .unipoly import (
    Row,
    UniPoly,
    _frac,
    _z_gcd,
    _z_pack,
    _z_primitive,
    _z_quo,
    _z_unpack,
    squarefree_decompose,
)

Term = tuple[int, int]


class BiPoly:
    """Immutable sparse bivariate polynomial over Q: nonzero integer
    numerators `num` over one denominator `den` > 0, with
    gcd(den, *num.values()) == 1."""

    __slots__ = ("num", "den")

    def __new__(cls, terms: Mapping[Term, Fraction | int] | None = None):
        data: dict[Term, Fraction | int] = {}
        if terms:
            for (j, k), c in terms.items():
                j, k = index(j), index(k)
                if j < 0 or k < 0:
                    raise ValueError("exponents must be non-negative")
                if not isinstance(c, (int, Fraction)):
                    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")
                if c != 0:
                    data[(j, k)] = c
        den = lcm(*(c.denominator for c in data.values()))
        return cls._of({t: c.numerator * (den // c.denominator) for t, c in data.items()}, den)

    @classmethod
    def _of(cls, num: dict[Term, int], den: int = 1) -> "BiPoly":
        """Wrap nonzero integer numerators over den > 0, unchecked, and
        reduce them to lowest terms."""
        if den > 1:
            g = int_gcd(den, *num.values())
            if g > 1:
                num = {t: c // g for t, c in num.items()}
                den //= g
        poly = object.__new__(cls)
        object.__setattr__(poly, "num", num)
        object.__setattr__(poly, "den", den)
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

    # queries

    @property
    def is_zero(self) -> bool:
        return not self.num

    def terms(self) -> dict[Term, Fraction]:
        return {t: Fraction(c, self.den) for t, c in self.num.items()}

    def coeff(self, j: int, k: int) -> Fraction:
        return Fraction(self.num.get((j, k), 0), self.den)

    def select(self, keep: Callable[[Term], bool]) -> "BiPoly":
        """The terms whose exponent pair passes `keep`."""
        return BiPoly._of({t: c for t, c in self.num.items() if keep(t)}, self.den)

    @property
    def support(self) -> frozenset[Term]:
        return frozenset(self.num)

    @property
    def x2_degree(self) -> int:
        return max((k for _, k in self.num), default=-1)

    @property
    def origin_order(self) -> int:
        """Order of vanishing at the origin: min total degree of a term."""
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has empty support")
        return min(j + k for j, k in self.num)

    # arithmetic

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.den, frozenset(self.num.items())))

    def __add__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        return _sum((self, other))

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "BiPoly":
        return BiPoly._of({t: -c for t, c in self.num.items()}, self.den)

    def __mul__(self, other: "BiPoly | Fraction | int") -> "BiPoly":
        if isinstance(other, (Fraction, int)):
            c = _frac(other)
            num = {t: v * c.numerator for t, v in self.num.items()} if c else {}
            return BiPoly._of(num, self.den * c.denominator)
        if not isinstance(other, BiPoly):
            return NotImplemented
        out: dict[Term, int] = {}
        for (j1, k1), c1 in self.num.items():
            for (j2, k2), c2 in other.num.items():
                key = (j1 + j2, k1 + k2)
                out[key] = out.get(key, 0) + c1 * c2
        return BiPoly._of({t: c for t, c in out.items() if c}, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        """self**n by J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2,
        section 4.7), which gives each coefficient of the power from the
        terms of self alone: one small-by-large product for each pair of
        a term of self and a term of the power.

        Read exponents as (x2-degree, x1-degree) and let a0*x^e0 be the
        first term of the integer numerators in that order.  The other
        terms sit at offsets d_i = (dk_i, dj_i) from e0 with dk_i > 0, or
        dk_i = 0 and dj_i > 0; dj_i may be negative.  Let s be the
        x1-degree span of self, B = (n + 1)*s + 1 and L(dk, dj) = B*dk +
        dj.  Then every L(d_i) > 0, since dj_i >= -s when dk_i > 0 and B >
        s, and L is one to one on the sums of n offsets, whose x1-parts
        lie in a range of width n*s < B.

        Divide by x^e0: h = a0 + sum_i a_i*x^(d_i) and g = h^n, so the
        numerators of self**n are x^(n*e0)*g.  The L-weighted Euler
        operator D_L = B*x2*d/dx2 + x1*d/dx1 maps x^K to L(K)*x^K, and
        D_L g = n*h^(n-1)*D_L h, so h*D_L g = n*g*D_L h.  Substituting
        x1 = t, x2 = t^B, under which D_L is t*d/dt, and comparing the
        coefficients of t^L gives, with G_L the coefficient of g at the
        one K with L(K) = L,

            a0*L*G_L = sum_i ((n + 1)*L(d_i) - L)*a_i*G_(L - L(d_i)).

        G is integral, so the division by a0*L is exact; a remainder
        raises InternalInvariantViolation.  The L visited come from a heap
        that starts at the L(d_i), the successors of G_0 = a0^n, and
        receives L + L(d_i) only when G_L != 0.  Each push lies above the
        L being visited, so the L are popped in increasing order and are
        all positive: no division is by zero.  Every nonzero G_L is
        reached, by induction on L: for L > 0 and G_L != 0 the right side
        has a nonzero G_(L - L(d_i)), visited earlier, which pushed L.  So
        each G the right side reads is final, and an L never pushed has
        G_L = 0.  A one-term base has no offsets, and g = a0^n.  BiPoly is
        immutable, so self**1 is self.
        """
        n = index(n)
        if n < 0:
            raise ValueError("negative power")
        if n == 1 or not self.num:
            return BiPoly.constant(1) if n == 0 else self
        k0, j0 = min((k, j) for j, k in self.num)
        a0 = self.num[j0, k0]
        js = [j for j, _ in self.num]
        lo = min(js)
        B = (n + 1) * (max(js) - lo) + 1
        offsets = [
            (B * (k - k0) + j - j0, c)
            for (j, k), c in self.num.items()
            if (j, k) != (j0, k0)
        ]
        g = {0: a0**n}
        heap = [d for d, _ in offsets]
        heapify(heap)
        queued = set(heap)
        while heap:
            L = heappop(heap)
            acc = 0
            for d, c in offsets:
                prev = g.get(L - d)
                if prev:
                    acc += ((n + 1) * d - L) * c * prev
            q, r = divmod(acc, a0 * L)
            if r:
                raise InternalInvariantViolation("Miller's recurrence left a remainder")
            if q:
                g[L] = q
                for d, _ in offsets:
                    if L + d not in queued:
                        queued.add(L + d)
                        heappush(heap, L + d)
        # on the sums of n offsets, the x1-part plus n*(j0 - lo) lies in [0, B)
        shift = n * (j0 - lo)
        out = {}
        for L, c in g.items():
            dk = (L + shift) // B
            out[(n * j0 + L - B * dk, n * k0 + dk)] = c
        return BiPoly._of(out, self.den**n)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        # the keys (j + k, j, k) are distinct, so n is never compared
        for _, j, k, n in sorted((j + k, j, k, n) for (j, k), n in self.num.items()):
            factors = []
            if j == 1:
                factors.append("x1")
            elif j > 1:
                factors.append(f"x1^{j}")
            if k == 1:
                factors.append("x2")
            elif k > 1:
                factors.append(f"x2^{k}")
            g = int_gcd(n, self.den)
            d = self.den // g
            mag = str(abs(n) // g) if d == 1 else f"{abs(n) // g}/{d}"
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
        return f"BiPoly({self.terms()!r})"


def _sum(polys: Sequence[BiPoly]) -> BiPoly:
    """The sum of `polys`: their numerators over the lcm of the
    denominators, added term by term."""
    den = lcm(*(f.den for f in polys))
    out: dict[Term, int] = {}
    for f in polys:
        scale = den // f.den
        for t, c in f.num.items():
            out[t] = out.get(t, 0) + c * scale
    return BiPoly._of({t: c for t, c in out.items() if c}, den)


class _WeightFields(NamedTuple):
    q: int
    p: int
    m: int


class Weight(_WeightFields):
    """The weight (k1, k2) = (q/m, p/m) in lowest terms: integers q, p >= 0,
    not both zero, m > 0 and gcd(q, p, m) = 1.

    The weight of a compact edge of slope -q/p has gcd(p, q) = 1 as well,
    and the terms of weighted degree one are those with q*j + p*k = m.
    """

    __slots__ = ()

    def __new__(cls, q: int, p: int, m: int) -> Weight:
        if q < 0 or p < 0:
            raise ValueError("weights must be non-negative")
        if q == 0 and p == 0:
            raise ValueError("weight (0, 0) is not allowed")
        if m <= 0:
            raise ValueError("weight denominator must be positive")
        if int_gcd(q, p, m) != 1:
            raise ValueError("weight triple (q, p, m) must be coprime")
        return super().__new__(cls, q, p, m)

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> Weight:
        # _replace builds through _make, which would skip the checks
        return cls(*iterable)

    @property
    def k1(self) -> Fraction:
        return Fraction(self.q, self.m)

    @property
    def k2(self) -> Fraction:
        return Fraction(self.p, self.m)


class ShearAxis(Enum):
    """Which variable a shear replaces."""

    X2 = "x2"
    X1 = "x1"


class _ShearChangeFields(NamedTuple):
    axis: ShearAxis
    coefficient: Fraction
    exponent: int


class ShearChange(_ShearChangeFields):
    """The substitution applied to reach the new coordinates.

    With axis X2 the new polynomial is f(x1, x2 + b*x1^m): this is the
    inverse substitution of the coordinate change y2 = x2 - b*x1^m, so the
    chain of shears can be read back as the root jet y2 = x2 - sum b*x1^m.
    The axis is read through ShearAxis: a member or its value, "x1" or
    "x2"; anything else raises ValueError.
    """

    __slots__ = ()

    def __new__(
        cls, axis: ShearAxis, coefficient: Fraction | int, exponent: int
    ) -> ShearChange:
        axis = ShearAxis(axis)
        coefficient = _frac(coefficient)
        if coefficient == 0:
            raise ValueError("shear coefficient must be nonzero")
        exponent = index(exponent)
        if exponent < 1:
            raise ValueError("shear exponent must be >= 1")
        return super().__new__(cls, axis, coefficient, exponent)

    @classmethod
    def _make(cls, iterable: Iterable) -> ShearChange:
        # _replace builds through _make, which would skip the checks
        return cls(*iterable)


def weighted_part(f: BiPoly, w: Weight, degree: Fraction | int) -> BiPoly:
    """Sum of the terms of exact weighted degree `degree`: those with
    q*j + p*k == degree*m."""
    level = _frac(degree) * w.m
    n, d = level.numerator, level.denominator
    return f.select(lambda t: d * (w.q * t[0] + w.p * t[1]) == n)


def apply_shear(f: BiPoly, shear: ShearChange) -> BiPoly:
    """Substitute x2 -> x2 + b*x1^m (axis X2) or x1 -> x1 + b*x2^m (X1).

    For an x2-shear, the terms with j + m*k = s form x1^s * P(x2/x1^m),
    and the shear maps them to x1^s * P(x2/x1^m + b): a Taylor shift of
    the univariate P, whose output terms keep the diagonal s, so
    diagonals never mix.  With f = N/den, b = bn/bd and K the largest
    diagonal degree, bd^K * P(t + b) = R(bd*t) for R(u) = sum N_k
    bd^(K-k) (u + bn)^k, which Horner's scheme shifts with integer adds
    and multiplies only (von zur Gathen & Gerhard 1997), its running
    value in one local.  One pass over f groups the diagonals, in the
    order f's terms first reach them, and finds K; the output lists the
    diagonals in that order, each by increasing k.  An x1-shear is the
    x2-shear in swapped axes: swap_axes keeps the order of the terms, so
    the output's is the same as for a shear of the swapped f.
    """
    if shear.axis is ShearAxis.X1:
        return swap_axes(apply_shear(swap_axes(f), shear._replace(axis=ShearAxis.X2)))
    m = shear.exponent
    bn, bd = shear.coefficient.numerator, shear.coefficient.denominator
    diagonals: dict[int, dict[int, int]] = {}
    K = 0
    for (j, k), c in f.num.items():
        s = j + m * k
        if s in diagonals:
            diagonals[s][k] = c
        else:
            diagonals[s] = {k: c}
        if k > K:
            K = k
    bd_powers = [bd**i for i in range(K + 1)]
    out: dict[Term, int] = {}
    for s, diagonal in diagonals.items():
        top = max(diagonal)
        r = [0] * (top + 1)
        for k, c in diagonal.items():
            r[k] = c * bd_powers[K - k]
        for i in range(top):
            acc = r[top]
            for k in range(top - 1, i - 1, -1):
                acc = r[k] + bn * acc
                r[k] = acc
        # the coefficient of t^i is r[i] * bd^i / (den * bd^K)
        for i, c in enumerate(r):
            if c:
                out[(s - m * i, i)] = c * bd_powers[i]
    return BiPoly._of(out, f.den * bd_powers[K])


def _dense_product(a: list[int], b: list[int]) -> list[int]:
    """a*b for integer rows, lowest degree first, b no longer than a: one
    shifted multiple of a for each nonzero entry of b."""
    n = len(a)
    out = [0] * (n + len(b) - 1)
    for i, c in enumerate(b):
        if c:
            out[i:i + n] = [x + c * y for x, y in zip(out[i:i + n], a)]
    return out


def apply_jet(f: BiPoly, jet: Iterable[tuple[Fraction, int]]) -> BiPoly:
    """f(x1, x2 + phi) for phi = sum b*x1^m over the terms (b, m) of
    `jet`: the chain of x2-shears by those terms, composed once.

    x2-shears commute and add, so the chain is the one substitution x2 ->
    x2 + phi, in any order of the terms; each term must be a shear, with
    b nonzero and m >= 1, or ValueError is raised.  With f = sum_k
    a_k(x1)*x2^k / den of x2-degree K, D the lcm of the b's denominators
    and P = D*phi in Z[x1],

        den * D^K * f(x1, x2 + phi)
            = sum_i x2^i * sum_(k >= i) C(k, i) * D^(K-k+i) * a_k * P^(k-i).

    The K + 1 powers P^e are dense integer rows in x1, each the last
    times P, and the K + 1 powers of D are taken once; a term c*x1^j*x2^k
    of f adds C(k, e)*c*D^(K-e) times P^e, shifted by j, to row k - e
    for every e <= k.  So the work is one pass of shifted multiples, not
    one shear per term of a polynomial that grows with every term of the
    jet.  f itself is returned when P is zero (an empty jet, or terms
    that cancel) or f has no x2, the zero polynomial included.
    """
    terms = [(_frac(b), index(m)) for b, m in jet]
    for b, m in terms:
        if not b or m < 1:
            raise ValueError(f"jet term ({b}, {m}) is no shear: b must be nonzero, m >= 1")
    D = lcm(*(b.denominator for b, _ in terms))
    P = [0] * (max((m for _, m in terms), default=0) + 1)
    for b, m in terms:
        P[m] += b.numerator * (D // b.denominator)
    while P and not P[-1]:
        P.pop()
    K = f.x2_degree
    if not P or K < 1:
        return f
    powers = [[1], P]
    for _ in range(K - 1):
        powers.append(_dense_product(powers[-1], P))
    D_powers = [D**i for i in range(K + 1)]
    width = max(j for j, _ in f.num) + len(powers[-1])
    rows = [[0] * width for _ in range(K + 1)]
    for (j, k), c in f.num.items():
        for e in range(k + 1):
            p, row, cc = powers[e], rows[k - e], comb(k, e) * c * D_powers[K - e]
            row[j:j + len(p)] = [x + cc * y for x, y in zip(row[j:j + len(p)], p)]
    return _rows_to_bipoly(rows, f.den * D_powers[K])


def swap_axes(f: BiPoly) -> BiPoly:
    return BiPoly._of({(k, j): c for (j, k), c in f.num.items()}, f.den)


# --- squarefree structure with respect to x2 -------------------------------
#
# A polynomial in x2 over Z[x1] is kept as a list of rows, entry k the
# x1-polynomial that multiplies x2^k, each row a list of integers, lowest
# degree first, no trailing zeros ([] is zero); the top row is nonzero.
# Rows are packed, read back and made primitive with unipoly.py's Z[x]
# helpers.


def _rows_primitive(v: list[Row]) -> list[Row]:
    """v over its content in Z[x1], the top row's leading coefficient
    positive: coprime integer coefficients, no x1-factor in common."""
    rows = sorted((row for row in v if row), key=len)
    g = _z_primitive(rows[0])
    for row in rows[1:]:
        # a constant content ends the search: on the sheared cube's 15 rows this takes
        # 24 us with the break, 182 us without (2-core Xeon, Python 3.11)
        if len(g) == 1:
            break
        g = _z_gcd(g, row)[0]
    # dividing by [1] gives the same rows, but takes the cube from 24 us to 96 us
    if len(g) > 1:
        v = [_z_quo(row, g) for row in v]
    c = int_gcd(*(x for row in v for x in row))
    if v[-1][-1] < 0:
        c = -c
    return v if c == 1 else [[x // c for x in row] for row in v]


def _rows_of(f: BiPoly) -> list[Row]:
    """The rows of f's integer numerators."""
    rows: list[Row] = [[] for _ in range(f.x2_degree + 1)]
    for (j, k), c in f.num.items():
        row = rows[k]
        if len(row) <= j:
            row.extend([0] * (j + 1 - len(row)))
        row[j] = c
    return rows


def _rows_to_bipoly(v: list[Row], den: int = 1) -> BiPoly:
    """The BiPoly sum_k v[k](x1)*x2^k / den; rows may carry zeros."""
    return BiPoly._of({(j, k): c for k, row in enumerate(v) for j, c in enumerate(row) if c}, den)


def squarefree_part_x2(f: BiPoly) -> tuple[tuple[BiPoly, int], ...]:
    """Squarefree decomposition of f as a polynomial in x2.

    Returns a tuple of (F, j) such that f equals a polynomial in x1 alone
    times prod(F**j); each F is primitive with coprime integer
    coefficients, squarefree and pairwise coprime over the rational
    functions in x1, and multiplicities are strictly increasing.

    x1 is fixed at xi = 2**k, k the bit length of 2*max|c| + 2 over f's
    primitive rows, so xi is above the Cauchy bound of the top row lc,
    lc(xi) != 0 and the image in Z[x2] keeps f's degree; each row is
    packed into its value at xi by Kronecker substitution (_z_pack).  Each
    squarefree factor g of the image, scaled to the leading coefficient
    lc(xi), is read back in symmetric base xi (_z_unpack) and made
    primitive (Geddes, Czapor & Labahn 1992, ch. 7).  The factors F are
    accepted only when prod(F**j) is f's primitive part exactly.  Then
    each F(xi) is a multiple of its g of the same degree, and a factor h
    of positive degree repeated in one F, or shared by two, would divide
    f, so lc(h)(xi) != 0 and h(xi) would be repeated in, or shared by,
    the images: F is squarefree and the F pairwise coprime, so they are
    the decomposition.  The true factors come back once xi avoids the
    finitely many roots of their discriminants and resultants and
    exceeds twice the coefficients of (lc/lc F)*F; k doubles, squaring
    xi, until then.
    """
    if f.is_zero:
        raise ZeroPolynomial("cannot decompose the zero polynomial")
    if f.x2_degree < 1:
        raise DegenerateInX2("input does not involve x2")
    rows = _rows_primitive(_rows_of(f))
    target = _rows_to_bipoly(rows)
    k = (2 * max(abs(c) for row in rows for c in row) + 2).bit_length()
    while True:
        image = tuple(_z_pack(row, k) for row in rows)
        found = []
        for g, i in squarefree_decompose(UniPoly(image)):
            scale, r = divmod(image[-1], g.coeffs[-1])
            if r:
                break
            F = _rows_to_bipoly(_rows_primitive([_z_unpack(scale * c, k) for c in g.coeffs]))
            found.append((F, i))
        else:
            if prod((F**i for F, i in found), start=BiPoly.constant(1)) == target:
                return tuple(found)
        k *= 2
