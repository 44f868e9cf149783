"""Adaptedness of coordinates and the distance-raising shear iteration.

Coordinates are adapted to f when no local coordinate change can increase
the Newton distance.  For analytic f this fails exactly when three
conditions hold at once:

  (a) the principal face is a compact edge,
  (b) after normalizing k1 <= k2 the weight ratio m = k2/k1 is an integer,
  (c) the principal part vanishes on the unit circle to an order larger
      than the distance, attained away from the coordinate axes.

When they do hold, the offending zero curve is tangent to x2 = b*x1^m for
a rational b, and shearing x2 -> x2 + b*x1^m strictly increases the
distance.  Iterating this step either terminates in adapted coordinates or
tracks an infinite power-series root of some fixed multiplicity N; in the
latter case the height equals N.

Condition (c) is read off the last factor of the squarefree decomposition
of the edge's root polynomial, with no root isolated; the argument is at
quasihomog.deep_root.

Non-termination is certified exactly, not guessed: once the step
multiplicities stabilize at N, the squarefree factor F of f with
multiplicity N must carry the root being tracked.  A polynomial root of F
through the origin has x1-degree at most a bound computable from the
coefficient degrees of F, so as soon as the next jet exponent provably
exceeds that bound while F evaluated along the jet stays nonzero, the
tracked root cannot be a polynomial and the iteration can never stop.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .bipoly import (
    BiPoly,
    ShearAxis,
    ShearChange,
    Weight,
    apply_jet,
    apply_shear,
    squarefree_part_x2,
    swap_axes,
)
from .errors import (
    AlreadyAdapted,
    InternalInvariantViolation,
    IterationCapExceeded,
)
from .newton import HullAnalysis, hull_analysis, newton_polyhedron
from .quasihomog import _require_order_two, deep_root, edge_root_polynomial
from .unipoly import UniPoly

DEFAULT_MAX_STEPS = 64
STABILIZATION_WINDOW = 3


class PrincipalRootWitness(NamedTuple):
    """The root driving a non-adapted verdict: x2 = coefficient * x1^exponent
    annihilates the principal part to order `multiplicity`."""

    coefficient: Fraction
    exponent: int
    multiplicity: int


class AdaptednessReport(NamedTuple):
    """The verdict on f.  `weight` and `witness` are taken in the
    axis-normalized orientation; `hull` is the Newton data of f as given."""

    adapted: bool
    condition_a: bool
    condition_b: bool
    condition_c: bool
    axis_swapped: bool
    witness: PrincipalRootWitness | None
    distance: Fraction
    weight: Weight
    hull: HullAnalysis


class RootJet(NamedTuple):
    """Terms (b_l, m_l) of the shear chain y2 = x2 - sum b_l * x1^{m_l};
    exponents strictly increasing.  `truncated` marks a jet cut off at the
    step cap rather than completed."""

    terms: tuple[tuple[Fraction, int], ...]
    truncated: bool


class AdaptStep(NamedTuple):
    """One shear step: the multiplicity of the principal root used, the
    x1-exponent of the shear, and the distance before shearing."""

    multiplicity: int
    exponent: int
    distance: Fraction


class AdaptStatus(Enum):
    TERMINATED = "terminated"
    NONTERMINATING_CERTIFIED = "nonterminating-certified"


class AdaptResult(NamedTuple):
    """`input_check` is check_adapted(f) on the input as given;
    `final_check` is the loop's last verdict, on `final_poly`, so its
    hull is the Newton data of `final_poly`."""

    jet: RootJet
    axis_swapped: bool
    height: Fraction
    final_poly: BiPoly
    steps: tuple[AdaptStep, ...]
    status: AdaptStatus
    input_check: AdaptednessReport
    final_check: AdaptednessReport


def check_adapted(f: BiPoly) -> AdaptednessReport:
    """Decide adaptedness of the current coordinates.

    Axes are normalized internally so k1 <= k2; when that requires a swap
    the report says so and the weight and witness refer to the swapped
    orientation.  A swap only relabels the axes, so it mirrors f's hull
    data in place: the weight (q, p, m) becomes (p, q, m), and the edge's
    lattice points run in the opposite order, so u is reversed.
    """
    _require_order_two(f)
    return _verdict(f)


def _verdict(f: BiPoly) -> AdaptednessReport:
    """check_adapted without its order-two check, for polynomials a shear
    produced: a shear fixes the origin with an invertible linear part, so
    it keeps f nonzero and its order at the origin."""
    hull = hull_analysis(newton_polyhedron(f))
    face, weight = hull.face, hull.weight
    # k1 <= k2 needs a swap for a vertical half-line, whose weight is
    # (1/j, 0), and for an edge steeper than -1
    swapped = weight.q > weight.p
    if swapped:
        weight = Weight(weight.p, weight.q, weight.m)
    # in this orientation a vertex has weight (1, 1, 2d) and a half-line
    # is horizontal with q = 0, so q == 1 reads condition (b) for every
    # face: vacuously true on a vertex, false on a half-line
    condition_a = face.is_compact_edge
    condition_b = weight.q == 1
    condition_c = False
    witness = None
    if condition_a:
        edge = edge_root_polynomial(f, *face.points)
        if swapped:
            nu1, nu2, q, p, n, u = edge
            edge = nu2, nu1, p, q, n, UniPoly(u.coeffs[::-1])
        deep = deep_root(weight, edge)
        condition_c = deep is not None
        if condition_c:
            b, mult = deep
            witness = PrincipalRootWitness(
                coefficient=b, exponent=weight.p, multiplicity=mult
            )
    return AdaptednessReport(
        adapted=not (condition_a and condition_b and condition_c),
        condition_a=condition_a,
        condition_b=condition_b,
        condition_c=condition_c,
        axis_swapped=swapped,
        witness=witness,
        distance=hull.distance,
        weight=weight,
        hull=hull,
    )


def _shear_by_witness(
    g: BiPoly, rep: AdaptednessReport
) -> tuple[ShearChange, BiPoly, AdaptednessReport]:
    """Shear g by the witness of its non-adapted verdict `rep`, g taken in
    the axis-normalized orientation; return the shear, the sheared
    polynomial and its verdict.  The distance must grow."""
    assert rep.witness is not None
    w = rep.witness
    shear = ShearChange(ShearAxis.X2, w.coefficient, w.exponent)
    g_next = apply_shear(g, shear)
    rep_next = _verdict(g_next)
    if rep_next.distance <= rep.distance:
        raise InternalInvariantViolation("shear failed to increase the distance")
    return shear, g_next, rep_next


def shear_step(f: BiPoly) -> tuple[ShearChange, BiPoly]:
    """One distance-raising shear by the principal root of f's principal part.

    Raises AlreadyAdapted when no such step exists.  The returned shear is
    taken in the axis-normalized orientation: when check_adapted(f) reports
    axis_swapped, it applies to swap_axes(f).
    """
    report = check_adapted(f)
    if report.adapted:
        raise AlreadyAdapted("coordinates are already adapted")
    g = swap_axes(f) if report.axis_swapped else f
    shear, g_next, _ = _shear_by_witness(g, report)
    return shear, g_next


def _x1_extremes(F: BiPoly, pick) -> dict[int, int]:
    """The smallest (pick=min) or largest (pick=max) x1-exponent of F's
    terms, for each x2-exponent that occurs."""
    out: dict[int, int] = {}
    for j, k in F.support:
        out[k] = pick(out.get(k, j), j)
    return out


def _polynomial_root_degree_bound(F: BiPoly) -> int:
    """Upper bound on deg(sigma) over polynomial roots sigma(x1) of F.

    If F = sum a_i(x1) x2^i with top index B, a root of x1-degree t makes
    the top term contribute degree deg(a_B) + B*t, which must be matched by
    some lower term: t <= (deg a_i - deg a_B) / (B - i).
    """
    deg = _x1_extremes(F, max)
    top = F.x2_degree
    return max([0] + [(deg[i] - deg[top]) // (top - i) for i in deg if i < top])


def _certify_nonterminating(
    start: BiPoly,
    jet: list[tuple[Fraction, int]],
    steps: list[AdaptStep],
) -> int | None:
    """Return the certified multiplicity N, or None if no certificate holds.

    `start` is the polynomial the iteration began from (axes already
    normalized); `jet` the shears applied so far.  The certificate checks
    that the squarefree factor of multiplicity N carries a simple series
    root extending the jet, and that the root provably is not a polynomial.
    """
    if len(steps) < STABILIZATION_WINDOW:
        return None
    tail = steps[-STABILIZATION_WINDOW:]
    N = tail[-1].multiplicity
    if any(s.multiplicity != N for s in tail):
        return None
    if N < 2:
        return None
    matching = [F for F, j in squarefree_part_x2(start) if j == N]
    if not matching:
        return None
    F = matching[0]
    low = _x1_extremes(apply_jet(F, jet), min)
    if 0 not in low or 1 not in low:
        return None
    e0 = low[0]
    m_next = e0 - low[1]
    m_last = jet[-1][1]
    if m_next <= m_last:
        return None
    # the (i=0, i=1) edge of the series Newton polygon must dominate, so
    # the continuation is the unique root of maximal order and is simple
    if any(e + i * m_next <= e0 for i, e in low.items() if i >= 2):
        return None
    if m_next <= _polynomial_root_degree_bound(F):
        return None
    if Fraction(N) <= steps[-1].distance:
        raise InternalInvariantViolation("stabilized multiplicity below distance")
    return N


def adapt(f: BiPoly, max_steps: int = DEFAULT_MAX_STEPS) -> AdaptResult:
    """Construct an adapted coordinate system by iterated shears.

    Runs principal-root shears until the coordinates are adapted, in which
    case the height is the final distance, or until `max_steps` shears have
    been applied, in which case a non-termination certificate is attempted
    (the height is then the stabilized multiplicity and the jet is marked
    truncated).  Raises IterationCapExceeded when the cap is hit and no
    certificate holds.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    report = check_adapted(f)
    # an input adapted as given is returned as given, even when its
    # verdict was read in swapped axes
    swapped = report.axis_swapped and not report.adapted
    start = swap_axes(f) if swapped else f
    g = start
    rep = report
    jet: list[tuple[Fraction, int]] = []
    steps: list[AdaptStep] = []
    while not rep.adapted and len(steps) < max_steps:
        if steps and rep.axis_swapped:
            raise InternalInvariantViolation(
                "axis orientation flipped after the first shear"
            )
        assert rep.witness is not None
        w = rep.witness
        if jet and w.exponent <= jet[-1][1]:
            raise InternalInvariantViolation("jet exponents failed to increase")
        if steps and w.multiplicity > steps[-1].multiplicity:
            raise InternalInvariantViolation("root multiplicity increased along the jet")
        steps.append(AdaptStep(w.multiplicity, w.exponent, rep.distance))
        jet.append((w.coefficient, w.exponent))
        _, g, rep = _shear_by_witness(g, rep)
    if rep.adapted:
        status, height = AdaptStatus.TERMINATED, rep.distance
    else:
        certified = _certify_nonterminating(start, jet, steps)
        if certified is None:
            raise IterationCapExceeded(
                f"no adapted system within {max_steps} shears and no "
                "non-termination certificate; retry with a larger max_steps"
            )
        status, height = AdaptStatus.NONTERMINATING_CERTIFIED, Fraction(certified)
    return AdaptResult(
        jet=RootJet(tuple(jet), truncated=not rep.adapted),
        axis_swapped=swapped,
        height=height,
        final_poly=g,
        steps=tuple(steps),
        status=status,
        input_check=report,
        final_check=rep,
    )


def height(f: BiPoly, max_steps: int = DEFAULT_MAX_STEPS) -> Fraction:
    """The supremum of the Newton distance over all local coordinates."""
    return adapt(f, max_steps=max_steps).height
