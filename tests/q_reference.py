"""Division and Euclid's gcd over Q, on tuples of Fractions, lowest
degree first, with no trailing zeros, the product of integer rows that
builds test inputs, rational roots found by the Sturm chain alone, and
the straightforward forms of four kernels: the base-xi digit loop, the
Newton staircase from a sort of the whole support, the Taylor shift of
a shear as a nested loop, and a jet as one shear per term, and the
shear iteration with a full verdict on every polynomial.  No kernel uses
them: they are the reference the integer kernels and adapt are tested
against.

Three oracles the acceptance and cluster tests check the pipeline with,
which no pipeline path computes: the height max{m(P), d_h} of a
quasi-homogeneous P (quasihomogeneous_height), the substitution
x1 -> c1*x1, x2 -> c2*x2 (scale_axes), and an edge's principal part
read off the cluster vertices (edge_principal_part_from_clusters)."""

from __future__ import annotations

from fractions import Fraction

from adaptcoord.adapt import (
    STABILIZATION_WINDOW,
    AdaptResult,
    AdaptStatus,
    AdaptStep,
    RootJet,
    _polynomial_root_degree_bound,
    _verdict,
    _x1_extremes,
    check_adapted,
)
from adaptcoord.bipoly import (
    BiPoly,
    ShearAxis,
    ShearChange,
    Term,
    apply_shear,
    squarefree_part_x2,
    swap_axes,
)
from adaptcoord.clusters import polygon_from_clusters, top_clusters
from adaptcoord.errors import (
    InternalInvariantViolation,
    IterationCapExceeded,
    ZeroPolynomial,
)
from adaptcoord.newton import _cross
from adaptcoord.quasihomog import analyze
from adaptcoord.unipoly import (
    UniPoly,
    _root_bound,
    _sturm_chain,
    _variations,
    _z_eval,
    integer_row,
)

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


def chain_exact_real_roots(p: UniPoly) -> list[tuple[Fraction, Fraction, Fraction | None]]:
    """exact_real_roots of squarefree p with every halving, those of an
    interval that holds one root too, decided by Sturm variation counts
    until the interval is narrower than 1/an."""
    row = integer_row(p)
    chain = _sturm_chain(row)
    an = row[-1]
    out = []
    bound = _root_bound(row)
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        k = _variations(chain, lo, True) - _variations(chain, hi, True)
        if k == 1 and an * (hi - lo) < 1:
            r = Fraction(an * hi.numerator // hi.denominator, an)
            hit = r > lo and _z_eval(row, r.numerator, r.denominator) == 0
            out.append((lo, hi, r if hit else None))
        elif k:
            mid = (lo + hi) / 2
            stack += [(mid, hi), (lo, mid)]
    return out


def digit_adic(h: int, xi: int) -> list[int]:
    """The digits of h in symmetric base xi, one long division by xi per
    digit: the reference for unipoly._z_unpack, which reads them at
    xi = 2**k by bit slices."""
    out = []
    while h:
        c = h % xi
        if c > xi // 2:
            c -= xi
        out.append(c)
        h = (h - c) // xi
    return out


def sorted_staircase(points) -> tuple[Term, ...]:
    """The Newton staircase's vertices: the whole support sorted, the
    points no earlier point dominates kept, and a monotone chain over
    them."""
    minimal: list[Term] = []
    best_k = None
    for j, k in sorted(set(points)):
        if best_k is None or k < best_k:
            minimal.append((j, k))
            best_k = k
    hull: list[Term] = []
    for p in minimal:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return tuple(hull)


def nested_shear(f: BiPoly, shear: ShearChange) -> BiPoly:
    """apply_shear with the Taylor shift of each diagonal as a nested
    loop over a dense row, read and written in place."""
    if f.is_zero:
        return f
    m = shear.exponent
    bn, bd = shear.coefficient.numerator, shear.coefficient.denominator
    x2_axis = shear.axis is ShearAxis.X2
    diagonals: dict[int, dict[int, int]] = {}
    for (j, k), c in f.num.items():
        if not x2_axis:
            j, k = k, j
        diagonals.setdefault(j + m * k, {})[k] = c
    K = max(max(d) for d in diagonals.values())
    out: dict[Term, int] = {}
    for s, diagonal in diagonals.items():
        top = max(diagonal)
        r = [diagonal.get(k, 0) * bd ** (K - k) for k in range(top + 1)]
        for i in range(top):
            for k in range(top - 1, i - 1, -1):
                r[k] += bn * r[k + 1]
        for i, c in enumerate(r):
            if c:
                out[(s - m * i, i) if x2_axis else (i, s - m * i)] = c * bd**i
    return BiPoly._of(out, f.den * bd**K)


def sequential_jet(f: BiPoly, jet) -> BiPoly:
    """apply_jet as the chain of x2-shears by the jet's terms (b, m), one
    apply_shear per term, in order."""
    for b, m in jet:
        f = apply_shear(f, ShearChange(ShearAxis.X2, b, m))
    return f


def _certify_at_cap(
    start: BiPoly, jet: list[tuple[Fraction, int]], steps: list[AdaptStep]
) -> int | None:
    """The certified multiplicity N, from the factor F of multiplicity N
    sheared along the whole jet at once, or None."""
    if len(steps) < STABILIZATION_WINDOW:
        return None
    N = steps[-1].multiplicity
    if N < 2 or any(s.multiplicity != N for s in steps[-STABILIZATION_WINDOW:]):
        return None
    matching = [F for F, j in squarefree_part_x2(start) if j == N]
    if not matching:
        return None
    F = matching[0]
    low = _x1_extremes(sequential_jet(F, jet), min)
    if 0 not in low or 1 not in low:
        return None
    e0 = low[0]
    m_next = e0 - low[1]
    if m_next <= jet[-1][1]:
        return None
    if any(e + i * m_next <= e0 for i, e in low.items() if i >= 2):
        return None
    if m_next <= _polynomial_root_degree_bound(F):
        return None
    if Fraction(N) <= steps[-1].distance:
        raise InternalInvariantViolation("stabilized multiplicity below distance")
    return N


def verdict_loop_adapt(f: BiPoly, max_steps: int) -> AdaptResult:
    """adapt with a full _verdict on every polynomial a shear produces and
    the non-termination certificate tried at the cap alone."""
    report = check_adapted(f)
    swapped = report.axis_swapped and not report.adapted
    start = swap_axes(f) if swapped else f
    g, rep = start, report
    jet: list[tuple[Fraction, int]] = []
    steps: list[AdaptStep] = []
    while not rep.adapted and len(steps) < max_steps:
        if steps and rep.axis_swapped:
            raise InternalInvariantViolation("axis orientation flipped")
        w = rep.witness
        if jet and w.exponent <= jet[-1][1]:
            raise InternalInvariantViolation("jet exponents failed to increase")
        if steps and w.multiplicity > steps[-1].multiplicity:
            raise InternalInvariantViolation("root multiplicity increased")
        steps.append(AdaptStep(w.multiplicity, w.exponent, rep.distance))
        jet.append((w.coefficient, w.exponent))
        g = apply_shear(g, ShearChange(ShearAxis.X2, w.coefficient, w.exponent))
        last, rep = rep, _verdict(g)
        if rep.distance <= last.distance:
            raise InternalInvariantViolation("shear failed to increase the distance")
    if rep.adapted:
        status, height = AdaptStatus.TERMINATED, rep.distance
    else:
        certified = _certify_at_cap(start, jet, steps)
        if certified is None:
            raise IterationCapExceeded("no certificate at the cap")
        status, height = AdaptStatus.NONTERMINATING_CERTIFIED, Fraction(certified)
    return AdaptResult(
        RootJet(tuple(jet), truncated=not rep.adapted),
        swapped,
        height,
        g,
        tuple(steps),
        status,
        report,
        rep,
    )


def quasihomogeneous_height(P: BiPoly) -> Fraction:
    """Height of a quasi-homogeneous polynomial: max{m(P), d_h}."""
    data = analyze(P)
    return max(Fraction(data.m_order), data.d_h)


def scale_axes(f: BiPoly, c1: Fraction | int, c2: Fraction | int) -> BiPoly:
    """Substitute x1 -> c1*x1, x2 -> c2*x2 (both scalars nonzero)."""
    c1, c2 = Fraction(c1), Fraction(c2)
    if c1 == 0 or c2 == 0:
        raise ValueError("axis scalings must be invertible")
    return BiPoly({
        (j, k): c * c1**j * c2**k for (j, k), c in f.terms().items()
    })


def edge_principal_part_from_clusters(f: BiPoly, l: int) -> BiPoly:
    """Terms of f on the supporting line of the l-th edge (1-based).

    The line is t1 + a_l t2 = A_l + a_l B_l with vertex data taken from
    the cluster reconstruction; the result carries the prefactor
    x1^{A_{l-1}} x2^{B_l} visible in its extreme terms.
    """
    cl = top_clusters(f)
    if l < 1 or l > len(cl.clusters):
        raise IndexError(f"no compact edge with index {l}")
    verts, _ = polygon_from_clusters(cl)
    a = cl.clusters[l - 1].exponent
    A, B = verts[l]
    line_level = A + a * B
    return f.select(lambda t: t[0] + a * t[1] == line_level)
