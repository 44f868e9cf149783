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
quasihomog.deep_root.  On a compact principal edge the verdict's weight
is the edge reading's own, and an axis swap mirrors that reading once,
by quasihomog.mirrored.

Non-termination is certified exactly, not guessed: once the step
multiplicities stabilize at N, the squarefree factor F of f with
multiplicity N must carry the root being tracked.  A polynomial root of F
through the origin has x1-degree at most a bound computable from the
coefficient degrees of F, so as soon as the next jet exponent provably
exceeds that bound while F evaluated along the jet stays nonzero, the
tracked root cannot be a polynomial and the iteration can never stop.
The certificate is tried after every step once the multiplicities are
stable, not only at the cap, with the certified factor F carried along
the jet one shear per step.  Before it decomposes the start, it
decomposes the start's image at one integer x1 where the leading
coefficient in x2 does not vanish: no factor of the start has a
multiplicity above the image's largest, so a start that cannot have a
factor of multiplicity N is never decomposed.  From the step where the
certificate holds, F fixes every later step: each is read off F's two
lowest rows, and the product is no longer sheared.  The Newton polygon
then keeps one vertex V = (j_V, N), an integer point fixed from the last
verdict before the certificate held, and each principal edge runs from V
to (j_V + m*N, 0), so each step's distance is (j_V + m*N)/(1 + m), with
no polygon built.  Once the certificate holds it holds at every later
step, so a run has two phases in one loop over the next step, a witness
and the distance before it, whose source switches once: the verdict on
every sheared polynomial until the certificate holds, then readings off
F to the cap, where a failing certificate is an
InternalInvariantViolation.  After the loop the last polynomial alone is
built, once, as the start composed with x2 -> x2 + phi
(bipoly.apply_jet), and gets a full verdict, whose witness and distance
must agree with that reading.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from operator import index
from typing import NamedTuple

from .bipoly import (
    BiPoly,
    ShearAxis,
    ShearChange,
    Weight,
    _rows_of,
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
from .quasihomog import _require_order_two, deep_root, edge_root_polynomial, mirrored
from .unipoly import UniPoly, _z_pack, squarefree_decompose

DEFAULT_MAX_STEPS = 64
# a cost choice, which _Certificate's proof does not use: a window of 1 gives
# the same reports, but 2,000 corpus-sheared reports take 37% longer (2-core
# Xeon, Python 3.11), as every terminating run with a step of multiplicity >= 2
# then pays the image pre-test
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
    `final_check` is the verdict on `final_poly`, so its hull is the
    Newton data of `final_poly`: the last verdict of the shear loop, or,
    in a certified run, the one verdict on the polynomial composed after
    the loop, which agrees with the certificate's reading."""

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
    data in place: the weight (q, p, m) becomes (p, q, m), and the edge
    reading is quasihomog.mirrored's.
    """
    _require_order_two(f)
    return _verdict(f)


def _verdict(f: BiPoly) -> AdaptednessReport:
    """check_adapted without its order-two check, for polynomials a shear
    produced: a shear fixes the origin with an invertible linear part, so
    it keeps f nonzero and its order at the origin."""
    hull = hull_analysis(newton_polyhedron(f))
    face = hull.face
    condition_a = face.is_compact_edge
    edge = edge_root_polynomial(f, *face.points) if condition_a else None
    weight = edge[0] if edge else hull.weight
    # k1 <= k2 needs a swap for a vertical half-line, whose weight is
    # (1/j, 0), and for an edge steeper than -1
    swapped = weight.q > weight.p
    if swapped and edge:
        edge = mirrored(edge)
        weight = edge[0]
    elif swapped:
        weight = Weight(weight.p, weight.q, weight.m)
    # in this orientation a vertex has weight (1, 1, 2d) and a half-line
    # is horizontal with q = 0, so q == 1 reads condition (b) for every
    # face: vacuously true on a vertex, false on a half-line
    condition_b = weight.q == 1
    deep = deep_root(edge) if edge else None
    condition_c = deep is not None
    witness = PrincipalRootWitness(deep[0], weight.p, deep[1]) if condition_c else None
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


def shear_step(f: BiPoly) -> tuple[ShearChange, BiPoly]:
    """One distance-raising shear by the principal root of f's principal part.

    Raises AlreadyAdapted when no such step exists.  The returned shear is
    taken in the axis-normalized orientation: when check_adapted(f) reports
    axis_swapped, it applies to swap_axes(f).
    """
    report = check_adapted(f)
    if report.adapted:
        raise AlreadyAdapted("coordinates are already adapted")
    shear, g, rep = _shear(swap_axes(f) if report.axis_swapped else f, report)
    _grown(rep.distance, report.distance)
    return shear, g


def _shear(g: BiPoly, rep: AdaptednessReport) -> tuple[ShearChange, BiPoly, AdaptednessReport]:
    """The shear by the witness of rep, the verdict on g (axes normalized),
    with g sheared by it and the result's verdict."""
    assert rep.witness is not None
    shear = ShearChange(ShearAxis.X2, rep.witness.coefficient, rep.witness.exponent)
    g = apply_shear(g, shear)
    return shear, g, _verdict(g)


def _grown(d_next: Fraction, d: Fraction) -> Fraction:
    """d_next, the distance after a shear, when it exceeds d, the one before."""
    if d_next <= d:
        raise InternalInvariantViolation("shear failed to increase the distance")
    return d_next


def _x1_extremes(F: BiPoly, pick) -> dict[int, int]:
    """The smallest (pick=min) or largest (pick=max) x1-exponent of F's
    terms, for each x2-exponent that occurs."""
    out: dict[int, int] = {}
    for j, k in F.num:
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


def _series_term(G: BiPoly, m_last: int, bound: int) -> tuple[Fraction, int] | None:
    """The term (b, m) of G's root past the jet, when G, a factor F sheared
    by a jet whose last exponent is m_last, proves that root simple and no
    polynomial; else None.

    With e0 and e1 the least x1-exponents of G's rows 0 and 1 and m =
    e0 - e1, every other point of G lying strictly above the line through
    (e0, 0) and (e1, 1) makes G's (1, m)-initial form G[e1, 1]*x1^e1*x2 +
    G[e0, 0]*x1^e0: G has exactly one root of order m, simple, x2 =
    b*x1^m + ... with b = -G[e0, 0]/G[e1, 1], and its other roots have
    smaller orders.  m > m_last makes it extend the jet, and m > `bound`
    (_polynomial_root_degree_bound of F) rules out a polynomial root of F.
    """
    low = _x1_extremes(G, min)
    if 0 not in low or 1 not in low:
        return None
    e0, e1 = low[0], low[1]
    m = e0 - e1
    if m <= m_last or m <= bound:
        return None
    if any(e + i * m <= e0 for i, e in low.items() if i >= 2):
        return None
    return Fraction(-G.num[e0, 0], G.num[e1, 1]), m


class _Certificate:
    """The non-termination certificate of one run, tried after every step.

    It holds after a step when the last STABILIZATION_WINDOW multiplicities
    agree at some N >= 2 and the squarefree factor F of the start (axes
    normalized) with multiplicity N, sheared by the jet, passes
    _series_term: the iteration follows a root of F that is no polynomial,
    so it never stops.  The squarefree factors are found at the first try
    that passes a pre-test, and F alone is carried along the jet from then
    on, sheared once by each term; when N changes, the new F is sheared
    from the start.

    The pre-test decomposes the start's image in Z[x2] at the first x1 = a
    = 2**i (i = 0, 1, ...) where the top row lc does not vanish, and the
    certificate fails while N exceeds the image's largest multiplicity.
    That is a proof that the start has no factor of multiplicity N: write
    the start as c(x1) * prod(F_i^i).  Then lc(a) = c(a) * prod(lc(F_i)(a))
    != 0, so each F_i(a, x2) keeps its x2-degree, at least 1, and
    F_i(a, x2)^i divides the image: no multiplicity of the start exceeds
    the image's largest.  The image has the start's x2-degree, so it is
    decomposed once and cheaply, where the start's own decomposition
    lifts and checks many-term factors.

    Once it holds, read gives the next verdict off G = F sheared by the
    jet: witness (b, m, N) with (b, m) from _series_term, and the distance
    (j_V + m*N)/(1 + m) (below).  This is what _verdict(g) returns.  The
    last step, _verdict's by induction, had witness b_last*x1^m_last of
    multiplicity N, so exactly N roots of g have order above m_last, and
    the others have order at most m_last.  G's root, of order m > m_last,
    is a root of multiplicity N of g = c(x1) * prod(G_i^i), so it is those
    N roots.  The (1, m)-initial form of a product is the product of the
    initial forms, and no factor but G has a root of order m or more, so
    the others give a monomial without x2: g's is x1^A * (G[e1, 1]*x2 +
    G[e0, 0]*x1^m)^N.  So g's lowest edge runs from V = (j_V, N) to (j_V +
    m*N, 0), with weight (1, m) and one root b of multiplicity N.  The
    shear by b_last*x1^m_last maps the last principal edge's terms x1^L *
    P(x2/x1^m_last) to x1^L * P(x2/x1^m_last + b_last), whose lowest power
    of x2 is N: g's (1, m_last)-face ends at row N on the line j +
    m_last*k = L, where the boundary's point is V, so j_V = L - m_last*N.
    The last verdict crossed the diagonal at d_last = L/(1 + m_last) < N,
    by condition (c), so j_V < d_last < N.  V lies above the diagonal and
    (j_V + m*N, 0) below it, so the diagonal crosses the lowest edge
    inside, below row N: that edge is the principal face, q = 1 <= p = m
    needs no swap, and deep_root finds b, as n = N > j_V = nu1 and N > d.
    The certificate holds again after the shear by b*x1^m: G's root keeps
    its terms of order above m and G's other roots their orders below m,
    so every later step is read the same way, and the certificate never
    fails once it has held: adapt raises InternalInvariantViolation if it
    does.

    So the distance is read off the fixed vertex V, with no polygon: the
    diagonal meets the edge from (j_V, N) to (j_V + m*N, 0), on the line
    j + m*k = j_V + m*N, at (j_V + m*N)/(1 + m).  j_V is an integer, as L
    and m_last are, and it does not change: the shear by b*x1^m ends g's
    (1, m)-face at row N on the line j + m*k = j_V + m*N, which meets row
    N at j_V again.  So it is taken once, when the certificate first
    holds, off the last step: its distance d_last and exponent m_last give
    L = d_last * (1 + m_last), and j_V = L - m_last*N.  L is an integer,
    or InternalInvariantViolation is raised.  g itself is not
    sheared while the certificate holds; the last polynomial's verdict
    checks the reading.
    """

    __slots__ = ("start", "most", "factors", "F", "applied", "N", "bound", "vertex")

    def __init__(self, start: BiPoly):
        self.start = start
        # the largest multiplicity of the start's image, once it is taken
        self.most: int | None = None
        # start's squarefree factors by multiplicity, found at the first try
        self.factors: dict[int, BiPoly] | None = None
        # N is 0 until a factor has the stable multiplicity N; then F is
        # that factor sheared by the first `applied` terms of the jet
        self.applied = self.N = self.bound = 0
        # j_V, once the certificate has held at this N
        self.vertex: int | None = None

    def read(
        self, jet: list[tuple[Fraction, int]], steps: list[AdaptStep]
    ) -> tuple[PrincipalRootWitness, Fraction] | None:
        """The witness and the distance of the start sheared by `jet`, read
        off F and the fixed vertex, when the certificate holds after
        `steps`; else None."""
        if len(steps) < STABILIZATION_WINDOW:
            return None
        # multiplicities never increase along the jet (adapt checks)
        N = steps[-1].multiplicity
        if N < 2 or steps[-STABILIZATION_WINDOW].multiplicity != N:
            return None
        if self.most is None:
            rows = _rows_of(self.start)
            # the top row has fewer roots than entries, so one of these is no root
            a = next(i for i in range(len(rows[-1])) if _z_pack(rows[-1], i))
            image = UniPoly(tuple(_z_pack(row, a) for row in rows))
            self.most = max(i for _, i in squarefree_decompose(image))
        if N > self.most:
            return None
        if self.factors is None:
            self.factors = {j: F for F, j in squarefree_part_x2(self.start)}
        if N != self.N:
            if N not in self.factors:
                return None
            self.N, self.F, self.applied, self.vertex = N, self.factors[N], 0, None
            self.bound = _polynomial_root_degree_bound(self.F)
        for b, m in jet[self.applied:]:
            self.F = apply_shear(self.F, ShearChange(ShearAxis.X2, b, m))
        self.applied = len(jet)
        term = _series_term(self.F, jet[-1][1], self.bound)
        if term is None:
            return None
        _, m_last, d_last = steps[-1]
        if N <= d_last:
            raise InternalInvariantViolation("stabilized multiplicity below distance")
        if self.vertex is None:
            L = d_last * (1 + m_last)
            if L.denominator != 1:
                raise InternalInvariantViolation("the last principal edge is off the lattice")
            self.vertex = int(L) - m_last * N
        # the diagonal's crossing with the edge from (j_V, N) to (j_V + m*N, 0)
        b, m = term
        return PrincipalRootWitness(b, m, N), Fraction(self.vertex + m * N, 1 + m)


def adapt(f: BiPoly, max_steps: int = DEFAULT_MAX_STEPS) -> AdaptResult:
    """Construct an adapted coordinate system by iterated shears.

    Runs principal-root shears until the coordinates are adapted, in which
    case the height is the final distance, or until `max_steps` shears have
    been applied.  Each step is one witness and the distance before it.
    The non-termination certificate is tried after every step once the
    multiplicities are stable, not only at the cap.  Until it holds, the
    next step comes from the verdict on the sheared polynomial.  From the
    step where it holds, it holds at every later step (see _Certificate),
    and _Certificate.read gives each of them off the certified factor F
    instead of a full verdict; if it ever failed again,
    InternalInvariantViolation would be raised.  The run goes on to the
    cap: the height is then the stabilized multiplicity, the jet is marked
    truncated, and the last polynomial, composed once from the start, gets
    a verdict, `final_check`, that must agree with F's witness and the
    distance read off the fixed vertex, or InternalInvariantViolation is
    raised.  Raises IterationCapExceeded when the cap is hit and no
    certificate holds.  `max_steps` is read through operator.index, so a
    float raises TypeError.
    """
    max_steps = index(max_steps)
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    report = check_adapted(f)
    # an input adapted as given is returned as given, even when its
    # verdict was read in swapped axes
    swapped = report.axis_swapped and not report.adapted
    start = swap_axes(f) if swapped else f
    certificate = _Certificate(start)
    g, rep = start, report
    jet: list[tuple[Fraction, int]] = []
    steps: list[AdaptStep] = []
    # the next step: its witness w and the distance d before it, from the
    # verdict rep on g (start sheared by the jet) until the certificate
    # holds, then read off the certificate, with g no longer sheared
    w, d = rep.witness, rep.distance
    held = False
    while w is not None and len(steps) < max_steps:
        if jet and w.exponent <= jet[-1][1]:
            raise InternalInvariantViolation("jet exponents failed to increase")
        if steps and w.multiplicity > steps[-1].multiplicity:
            raise InternalInvariantViolation("root multiplicity increased along the jet")
        steps.append(AdaptStep(w.multiplicity, w.exponent, d))
        jet.append((w.coefficient, w.exponent))
        step = certificate.read(jet, steps)
        if held and step is None:
            raise InternalInvariantViolation("the certificate failed after it held")
        held = step is not None
        if not held:
            _, g, rep = _shear(g, rep)
            if not rep.adapted and rep.axis_swapped:
                raise InternalInvariantViolation("axis orientation flipped after the first shear")
            step = rep.witness, rep.distance
        w, d = step[0], _grown(step[1], d)
    if held:
        g = apply_jet(start, jet)
        rep = _verdict(g)
        if rep.adapted or rep.witness != w or rep.distance != d:
            raise InternalInvariantViolation("the last verdict disagrees with the certificate")
        status, height = AdaptStatus.NONTERMINATING_CERTIFIED, Fraction(w.multiplicity)
    elif w is not None:
        raise IterationCapExceeded(
            f"no adapted system within {max_steps} shears and no "
            "non-termination certificate; retry with a larger max_steps"
        )
    else:
        status, height = AdaptStatus.TERMINATED, d
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
