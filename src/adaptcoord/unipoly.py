"""Exact univariate polynomials over the integers.

A UniPoly is an integer row: a tuple of ints, lowest degree first, with
no trailing zeros.  Roots, multiplicities and root counts do not change
when a polynomial is scaled, so the kernels read the row as it is.
Squarefree decomposition is Yun's algorithm in Z[y] with heuristic gcds
checked by exact division; it is the one multiplicity kernel, which the
adaptedness verdict reads too.  A heuristic gcd evaluates at a power of
two by Kronecker substitution: each row is packed into one integer, and
the integer gcd read back, by shifts and masks.  Real roots are counted
(Sturm chains on half-open intervals) and isolated by bisection on one
primitive remainder sequence, evaluated once at each bisection point,
whose signs at a rational point are those of an integer; bisection
starts from a power-of-two bound, so every point is dyadic.  Rational
roots are read off isolating intervals narrowed below 1/leading
coefficient by the sign of the polynomial alone, so root finding costs
time polynomial in the coefficient size.  bipoly.py reads its rows over Z[x1] with the Z[x]
helpers here, and decomposes in x2 with the Yun loop here.  No floating
point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from .errors import InternalInvariantViolation, NotSquarefree, ZeroPolynomial


def _frac(x: Fraction | int) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class UniPoly(NamedTuple):
    """Dense univariate polynomial in Z[y]; coeffs[i] multiplies y**i."""

    coeffs: tuple[int, ...]

    @staticmethod
    def from_coeffs(seq: Iterable[int]) -> "UniPoly":
        cs = list(seq)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"expected int, got {type(c).__name__}")
        while cs and cs[-1] == 0:
            cs.pop()
        return UniPoly(tuple(cs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1


# --- integer rows ---------------------------------------------------------
#
# The kernels below work on a UniPoly's coefficients as a row: a list of
# integers, lowest degree first, no trailing zeros ([] is zero).  bipoly.py
# reads its rows over Z[x1] with the same helpers.

Row = list[int]


def integer_row(p: UniPoly) -> Row:
    """p's primitive integer row: p over the gcd of its coefficients, the
    leading one positive.  Every root and decomposition entry below reads
    p through here before any other work, so this is their one check that
    p is not zero."""
    if p.is_zero:
        raise ZeroPolynomial("the zero polynomial has no primitive row")
    return _z_primitive(list(p.coeffs))


def _z_sub(a: Row, b: Row) -> Row:
    out = a + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    while out and not out[-1]:
        out.pop()
    return out


def _z_deriv(a: Row) -> Row:
    return [i * c for i, c in enumerate(a)][1:]


def _z_quo(a: Row, b: Row) -> Row | None:
    """The quotient a / b in Z[x], or None when b does not divide a."""
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    quot = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            q, r = divmod(c, lead)
            if r:
                return None
            quot[i - db] = q
            for j, y in enumerate(b):
                rem[i - db + j] -= q * y
    return None if any(rem[:db]) else quot


def _z_exact_quo(a: Row, b: Row) -> Row:
    q = _z_quo(a, b)
    if q is None:
        raise InternalInvariantViolation("division in Z[y] expected to be exact")
    return q


def _z_eval(a: Row, num: int, den: int) -> int:
    """den**deg(a) * a(num/den), which has the sign of a(num/den) for
    den > 0: the sum of c_i * num**i * den**(deg a - i).  The kernels read
    signs at rational points with it; the heuristic gcds evaluate at a
    power of two with _z_pack."""
    acc = 0
    scale = 1
    for c in reversed(a):
        acc = acc * num + c * scale
        scale *= den
    return acc


def _z_pack(a: Row, k: int) -> int:
    """a(2**k), the Kronecker image of a at width k: the sum of its
    coefficients shifted by k bits per degree.

    Up to 16 coefficients are packed by Horner's scheme with shifts.  A
    longer row packs as its low half plus its high half shifted onto it,
    so each level of the split is linear in the bits, where one shift of
    a growing accumulator per coefficient would be quadratic.
    """
    if len(a) <= 16:
        acc = 0
        for c in reversed(a):
            acc = (acc << k) + c
        return acc
    h = len(a) // 2
    return _z_pack(a[:h], k) + (_z_pack(a[h:], k) << k * h)


def _z_unpack(h: int, k: int) -> Row:
    """The digits of h in symmetric base xi = 2**k, k >= 2, lowest first:
    the d_i with h = sum d_i*xi**i and -xi/2 < d_i <= xi/2, no trailing
    zeros; _z_pack's inverse on rows whose coefficients are in that range.

    |h| is cut into its unsigned k-bit slices by _z_slices.  One carry
    pass from the lowest slice, with h's sign, then moves every digit into
    (-xi/2, xi/2]; the carry out of the top slice, 0 or h's sign, is the
    last digit when it is not 0.
    """
    sign = 1 if h > 0 else -1
    xi = 1 << k
    out: Row = []
    v = 0
    for s in _z_slices(abs(h), k, -(-h.bit_length() // k)):
        v += sign * s
        c = v % xi
        if c > xi // 2:
            c -= xi
        out.append(c)
        v = (v - c) >> k
    return out + [v] if v else out


def _z_slices(n: int, k: int, count: int) -> Row:
    """The `count` lowest k-bit slices of n >= 0, lowest first.  Up to 16
    are read by shift and mask; more are cut in halves, the low half by a
    mask and the high half by a shift, so each level is linear in the
    bits, where one shift of all of n per slice would be quadratic."""
    if count <= 16:
        return [n >> k * i & (1 << k) - 1 for i in range(count)]
    h = count // 2
    return _z_slices(n & (1 << k * h) - 1, k, h) + _z_slices(n >> k * h, k, count - h)


def _z_primitive(a: Row) -> Row:
    """a over the gcd of its coefficients, leading coefficient positive."""
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else [c // g for c in a]


def _z_gcd(a: Row, b: Row) -> tuple[Row, Row, Row]:
    """(G, a/G, b/G) for the primitive gcd G in Z[x] of a and b, not both
    zero, leading coefficient positive (G is [1] when either is a nonzero
    constant), by the heuristic lift (Char, Geddes & Gonnet 1989).

    Both rows are evaluated at xi = 2**k by Kronecker substitution
    (_z_pack), k the bit length of 2*max|c| + 2 over both rows, so every
    coefficient, and every root of a and b (Cauchy's bound), is below
    xi/2 in size, and a factor Q of a or b of positive degree has
    |Q(xi)| > xi/2.  The integer gcd of a(xi) and b(xi) is read back in
    symmetric base xi (_z_unpack), with digits of size at most xi/2, and
    the primitive part P of that candidate is kept when it divides a and
    b.  Then P divides the gcd G, and G = P*Q with deg Q > 0 is
    impossible: Q(xi) would divide the candidate's content.  The integer
    gcd is c*G(xi), with c dividing the resultant of the cofactors, so P
    is G once xi > 2*|c*G|; k doubles, squaring xi, until then.

    Zero and constant rows need no reading of their own.  A zero row
    packs to 0, so the integer gcd is |b(xi)| (or |a(xi)|), which reads
    back as the other row up to sign, and P is its primitive part, which
    divides 0 with quotient [].  A nonzero constant c has |c| < xi/2, so
    the integer gcd divides c and reads back as one digit, whose
    primitive part is [1].  The cofactors returned are the exact
    quotients that accepted G.
    """
    k = (2 * max(map(abs, a + b)) + 2).bit_length()
    while True:
        g = _z_primitive(_z_unpack(gcd(_z_pack(a, k), _z_pack(b, k)), k))
        qa = _z_quo(a, g)
        qb = None if qa is None else _z_quo(b, g)
        if qb is not None:
            return g, qa, qb
        k *= 2


def squarefree_decompose(p: UniPoly) -> tuple[tuple[UniPoly, int], ...]:
    """Yun's algorithm on p's primitive integer row, with heuristic gcds
    in Z[y] whose exact cofactors are its divisions: the pairs (factor,
    multiplicity) with p equal to an integer times the product of
    factor**multiplicity.

    Every gcd is primitive, so by Gauss's lemma every division stays in
    Z[y]: each factor is primitive and squarefree, its leading
    coefficient positive, the factors pairwise coprime and listed with
    strictly increasing multiplicity.

    b is the product of the factors not yet found and `left` the degree
    they still account for, so once b is linear it is the last factor,
    of multiplicity `left`, and the loop stops without peeling it.
    """
    a = integer_row(p)
    g, b, c = _z_gcd(a, _z_deriv(a))
    left = len(a) - 1
    factors = []
    i = 1
    while len(b) > 2:
        g, b, c = _z_gcd(b, _z_sub(c, _z_deriv(b)))
        if len(g) > 1:
            factors.append((UniPoly(tuple(g)), i))
            left -= (len(g) - 1) * i
        i += 1
    if len(b) == 2:
        factors.append((UniPoly(tuple(b)), left))
    return tuple(factors)


# Sturm chains.  Sign counts use the convention that zeros are skipped, so
# the difference of variation counts gives the number of distinct real
# roots in the half-open interval (lo, hi].


def _sturm_next(a: Row, b: Row) -> Row:
    """-(|lc b|^(deg a - deg b + 1) * a mod b) over its positive content:
    a positive multiple of -(a mod b)."""
    rem = list(a)
    db = len(b) - 1
    lead = abs(b[-1])
    tail = b[:-1] if b[-1] > 0 else [-c for c in b[:-1]]
    # rem -> |lc b| * rem - c * y^off * sign(lc b) * b cancels the top term c
    for top in range(len(rem) - 1, db - 1, -1):
        c = rem.pop()
        rem = [lead * x for x in rem]
        if c:
            off = top - db
            for j, y in enumerate(tail):
                rem[off + j] -= c * y
    while rem and not rem[-1]:
        rem.pop()
    g = gcd(*rem)
    return [-x // g for x in rem]


def _sturm_chain(a: Row) -> list[Row]:
    """Sturm chain of the polynomial whose primitive row is a, as a
    primitive remainder sequence (Collins 1967; Brown & Traub 1971) on
    integer rows.

    The chain starts at a, and each pseudo-division scales by |lc| and
    divides by a positive content, so every entry is a positive multiple
    of the entry the Euclidean chain of that row has: the signs, and with
    them the variation counts, are the same.
    """
    b = _z_deriv(a)
    chain = [a]
    if b:
        b = _z_primitive(b)
    while b:
        chain.append(b)
        a, b = b, _sturm_next(a, b)
    return chain


def _squarefree_sturm_chain(row: Row) -> list[Row]:
    """Sturm chain of the primitive row, whose last entry is gcd(p, p') up
    to a constant."""
    chain = _sturm_chain(row)
    if len(chain[-1]) > 1:
        raise NotSquarefree("input has a repeated root")
    return chain


def _variations(chain: Sequence[Row], x: Fraction | None, positive_end: bool) -> int:
    """Sign changes along the chain at x, or at +/- infinity when x is
    None; the sign at infinity is read off the leading coefficient and
    the parity of the degree."""
    if x is None:
        flip = not positive_end
        signs = [(row[-1] > 0) != (flip and len(row) % 2 == 0) for row in chain]
    else:
        num, den = x.numerator, x.denominator
        signs = [v > 0 for v in (_z_eval(row, num, den) for row in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def count_real_roots(
    p: UniPoly,
    lo: Fraction | int | None = None,
    hi: Fraction | int | None = None,
) -> int:
    """Number of real roots of squarefree p in (lo, hi]; None means infinite."""
    chain = _squarefree_sturm_chain(integer_row(p))
    lo_f = None if lo is None else _frac(lo)
    hi_f = None if hi is None else _frac(hi)
    if lo_f is not None and hi_f is not None and lo_f >= hi_f:
        raise ValueError("empty interval: need lo < hi")
    return _variations(chain, lo_f, False) - _variations(chain, hi_f, True)


def _root_bound(row: Row) -> Fraction:
    """Cauchy's bound 1 + max|c|/|lc| of the polynomial whose primitive
    row is row, rounded up to a power of two B: every real root lies in
    (-B, B), and every point that bisection from -B and B reaches is
    dyadic, m/2^e, so evaluating there scales by a power of two and not
    by a power of the leading coefficient.  The ratio is read off the
    primitive row, which does not change it; a nonzero constant has no
    other coefficient, so its bound is 1."""
    lead = row[-1]
    ceiling = -(-(lead + max(map(abs, row[:-1]), default=0)) // lead)
    return Fraction(1 << (ceiling - 1).bit_length())


def isolate_real_roots(p: UniPoly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint half-open intervals (lo, hi], one real root of p in each.

    p must be squarefree.  Intervals are bisected depth first, lower half
    first, so they come out in increasing order; each carries the variation
    counts at both its ends, so the chain is evaluated once per midpoint.
    A constant's chain is one entry with no sign change, so it has no
    interval.
    """
    return _isolate(integer_row(p))


def _isolate(row: Row) -> list[tuple[Fraction, Fraction]]:
    """isolate_real_roots of the polynomial whose primitive row is row."""
    chain = _squarefree_sturm_chain(row)
    bound = _root_bound(row)
    out: list[tuple[Fraction, Fraction]] = []
    # stack of (lo, hi, variations at lo, variations at hi)
    stack = [(-bound, bound, _variations(chain, -bound, True), _variations(chain, bound, True))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo - vhi == 1:
            out.append((lo, hi))
        elif vlo - vhi > 1:
            mid = (lo + hi) / 2
            vmid = _variations(chain, mid, True)
            stack.append((mid, hi, vmid, vhi))
            stack.append((lo, mid, vlo, vmid))
    return out


def exact_real_roots(
    p: UniPoly,
) -> list[tuple[Fraction, Fraction, Fraction | None]]:
    """Isolating intervals (lo, hi] of squarefree p's real roots, each with
    the root itself when it is rational and None otherwise.

    A rational root of the integer polynomial an*y^n + ... is z/an for an
    integer z, so an interval narrower than 1/an holds at most one
    candidate, floor(an*hi)/an, which is tested exactly.  Each isolating
    interval is halved until it is that narrow by the sign of p alone
    (Collins & Loos 1982): the root is simple, so it is hi when p(hi) = 0,
    and otherwise lies in (lo, mid] exactly when p(mid) is 0 or has the
    sign of p(hi).  These are the halvings the Sturm chain would make.
    """
    row = integer_row(p)
    an = row[-1]
    out: list[tuple[Fraction, Fraction, Fraction | None]] = []
    for lo, hi in _isolate(row):
        s = _z_eval(row, hi.numerator, hi.denominator)
        while an * (hi - lo) >= 1:
            mid = (lo + hi) / 2
            v = _z_eval(row, mid.numerator, mid.denominator) if s else 0
            if s and (v == 0 or (v > 0) == (s > 0)):
                hi, s = mid, v
            else:
                lo = mid
        r = Fraction(an * hi.numerator // hi.denominator, an)
        hit = r > lo and _z_eval(row, r.numerator, r.denominator) == 0
        out.append((lo, hi, r if hit else None))
    return out


def rational_roots(p: UniPoly) -> list[tuple[Fraction, int]]:
    """Rational roots of p with multiplicities, sorted increasing; each
    root's multiplicity is that of its squarefree factor."""
    return sorted(
        (r, mult)
        for factor, mult in squarefree_decompose(p)
        for _, _, r in exact_real_roots(factor)
        if r is not None
    )


def split_rational_roots(p: UniPoly) -> tuple[list[tuple[Fraction, int]], UniPoly]:
    """All rational roots with multiplicities, plus the deflated cofactor.

    With r = n/d in lowest terms, p == cofactor * prod((d*y - n)**m)
    exactly, the cofactor in Z[y] by Gauss's lemma; the cofactor has no
    rational roots.  Roots are sorted increasing.
    """
    roots = rational_roots(p)
    row = list(p.coeffs)
    for r, mult in roots:
        for _ in range(mult):
            row = _z_exact_quo(row, [-r.numerator, r.denominator])
    return roots, UniPoly(tuple(row))
