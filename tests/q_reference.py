"""Division and Euclid's gcd over Q, on tuples of Fractions, lowest
degree first, with no trailing zeros, and the product of integer rows
that builds test inputs.  No kernel uses them: they are the reference
the integer kernels are tested against."""

from __future__ import annotations

from fractions import Fraction

from adaptcoord.errors import ZeroPolynomial

QRow = tuple[Fraction, ...]


def divmod_poly(num: QRow, den: QRow) -> tuple[QRow, QRow]:
    """Quotient and remainder of exact field division."""
    if not den:
        raise ZeroPolynomial("division by the zero polynomial")
    rem = list(num)
    dd = len(den) - 1
    quot = [Fraction(0)] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        q = Fraction(rem[i]) / den[-1]
        quot[i - dd] = q
        for j, c in enumerate(den):
            rem[i - dd + j] -= q * c
    del rem[dd:]
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(quot), tuple(rem)


def exact_div(num: QRow, den: QRow) -> QRow:
    q, r = divmod_poly(num, den)
    if r:
        raise ValueError("division is not exact")
    return q


def poly_gcd(a: QRow, b: QRow) -> QRow:
    """Monic gcd via the Euclidean algorithm."""
    while b:
        a, b = b, divmod_poly(a, b)[1]
    return tuple(c / Fraction(a[-1]) for c in a)


def _z_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two integer rows, lowest degree first."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out
