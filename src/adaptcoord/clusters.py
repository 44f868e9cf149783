"""Newton-diagram data recomputed from root clusters.

Over the Puiseux field, a polynomial with f(0,0) = 0 and positive x2-degree
factors as

    f = c * x1^nu1 * x2^nu2 * prod (x2 - r_i(x1)),

where each nontrivial root r_i has a positive rational leading exponent.
Grouping roots by that exponent gives the depth-1 clusters: one cluster per
compact edge of the Newton polygon, with exponent the reduced inverse slope
a_l and count the x2-drop N_l along the edge.  The depth-1 level is read
off a Newton polygon its caller built: top_clusters builds f's, and the
report passes the verdict's, so no polygon is built twice.  The vertices
and the distance are recoverable from (nu1, nu2, clusters) alone
(polygon_from_clusters), through the intercepts of the edge lines rather
than the diagonal crossing newton.py walks, which makes the reconstruction
a cross-check of the hull geometry.

Deeper levels group roots by leading coefficient as well.  Only branches
with integer exponent and rational leading coefficient are followed (shear
by the branch term and recurse); the rest are tallied per cluster in
`unresolved`.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import NamedTuple

from .bipoly import BiPoly, ShearAxis, ShearChange, Term, apply_shear
from .errors import (
    DegenerateInX2,
    InternalInvariantViolation,
    NonIntegerVertex,
    ZeroPolynomial,
)
from .newton import NewtonPolyhedron, build_polyhedron
from .quasihomog import edge_root_polynomial
from .unipoly import rational_roots

# each level of refinement recurses through _clusters and _refine_edge,
# so this keeps the deepest refinement far below Python's default
# recursion limit
MAX_DEPTH = 256


class Refinement(NamedTuple):
    """Continuation data for the branches starting coefficient * x1^exponent.

    `count` is the number of roots (with multiplicity) whose expansions
    begin with that term; `sub.nu2` of them stop there exactly, the rest
    reappear in `sub.clusters` with strictly larger exponents.
    """

    coefficient: Fraction
    count: int
    sub: "ClusterLevel"


class Cluster(NamedTuple):
    """Roots sharing the leading exponent `exponent`, `count` of them with
    multiplicity.  `unresolved` tallies branches skipped by refinement
    because their leading terms need an algebraic extension (irrational
    coefficient, or a fractional exponent); it is 0 when refinement was
    not requested."""

    exponent: Fraction
    count: int
    refinements: tuple[Refinement, ...] = ()
    unresolved: int = 0


class ClusterLevel(NamedTuple):
    nu1: int
    nu2: int
    clusters: tuple[Cluster, ...] = ()

    @property
    def total_roots(self) -> int:
        return self.nu2 + sum(c.count for c in self.clusters)


def _validate(cl: ClusterLevel) -> None:
    if cl.nu1 < 0 or cl.nu2 < 0:
        raise ValueError("trivial-root counts must be non-negative")
    # exponents compared as integer cross products of p/q, q > 0
    prev_p, prev_q = 0, 1
    for c in cl.clusters:
        p, q = c.exponent.numerator, c.exponent.denominator
        if p <= 0 or c.count < 1:
            raise ValueError("clusters need positive exponents and counts")
        if p * prev_q <= prev_p * q:
            raise ValueError("cluster exponents must increase strictly")
        prev_p, prev_q = p, q


def _refine_edge(
    f: BiPoly,
    edge: tuple[Term, Term],
    exponent: Fraction,
    count: int,
    depth: int,
) -> tuple[tuple[Refinement, ...], int]:
    """Split one edge's branches by leading coefficient, recursing on the
    rational ones.  Returns (refinements, unresolved count)."""
    if exponent.denominator != 1:
        # fractional leading exponent: every branch lives in a Puiseux
        # extension x1^(1/q), outside rational-shear reach
        return (), count
    a = int(exponent)
    *_, u = edge_root_polynomial(f, *edge)
    refinements: list[Refinement] = []
    resolved = 0
    for value, mult in rational_roots(u):
        g = apply_shear(f, ShearChange(ShearAxis.X2, value, a))
        sub_full = _clusters(g, build_polyhedron(g.num), depth - 1, exponent)
        continuations = tuple(
            c for c in sub_full.clusters if c.exponent > exponent
        )
        sub = ClusterLevel(sub_full.nu1, sub_full.nu2, continuations)
        if sub.total_roots != mult:
            raise InternalInvariantViolation("branch count lost under shear")
        refinements.append(Refinement(coefficient=value, count=mult, sub=sub))
        resolved += mult
    return tuple(refinements), count - resolved


def top_clusters(f: BiPoly, depth: int = 1) -> ClusterLevel:
    """Group the Puiseux roots of f by leading exponent.

    Depth 1 reads the compact edges of the Newton polygon only: exponents
    are the reduced inverse slopes, counts the x2-drops, and no root
    arithmetic happens at all.  With depth >= 2, branches with integer
    exponent and rational leading coefficient are refined recursively;
    everything else is counted in the clusters' `unresolved` fields.
    The depth, read through operator.index, runs from 1 to MAX_DEPTH.
    """
    depth = index(depth)
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be between 1 and {MAX_DEPTH}")
    if f.is_zero:
        raise ZeroPolynomial("cluster data needs a nonzero polynomial")
    if (0, 0) in f.num:
        raise ValueError("cluster data needs f(0,0) = 0")
    if f.x2_degree < 1:
        raise DegenerateInX2("cluster data needs positive degree in x2")
    return _clusters(f, build_polyhedron(f.num), depth, Fraction(0))


def _clusters(
    f: BiPoly, polygon: NewtonPolyhedron, depth: int, above: Fraction
) -> ClusterLevel:
    """top_clusters of a valid f, read off `polygon`, f's Newton polygon as
    the caller built it, refining only the edges of exponent above
    `above`.  Under the shear by a branch b*x1^a, the edges of exponent at
    most a hold the other branches of the edge being refined, which the
    caller drops, so each branch is refined once."""
    clusters: list[Cluster] = []
    for edge in polygon.edges:
        (j0, k0), (j1, k1) = edge
        exponent = Fraction(j1 - j0, k0 - k1)
        count = k0 - k1
        refinements: tuple[Refinement, ...] = ()
        unresolved = 0
        if depth >= 2 and exponent > above:
            refinements, unresolved = _refine_edge(f, edge, exponent, count, depth)
        clusters.append(Cluster(exponent, count, refinements, unresolved))
    return ClusterLevel(polygon.first[0], polygon.last[1], tuple(clusters))


def polygon_from_clusters(cl: ClusterLevel) -> tuple[list[tuple[int, int]], Fraction]:
    """The Newton-polygon vertices and the distance, from cluster data alone.

    A_l = nu1 + sum_{mu <= l} a_mu * N_mu and B_l = B_0 - sum_{mu <= l}
    N_mu, starting from (nu1, nu2 + total count).  The A_l must come out
    integral; NonIntegerVertex flags inconsistent data.  The distance is
    the largest of nu1 = A_0, nu2 = B_n, and the bisectrix intercepts
    (A_l + a_l B_l) / (1 + a_l) of the edge lines: with a_l = p/q the
    intercept is (A_l q + p B_l) / (q + p), and intercepts are compared
    as integer cross products.
    """
    _validate(cl)
    a, b = cl.nu1, cl.total_roots
    verts = [(a, b)]
    num, den = max(a, cl.nu2), 1
    for c in cl.clusters:
        p, q = c.exponent.numerator, c.exponent.denominator
        # A_{l-1} is an integer, so A_l is one exactly when a_l * N_l is
        step, rest = divmod(p * c.count, q)
        if rest:
            raise NonIntegerVertex(
                f"vertex abscissa {a + c.exponent * c.count} is not an integer"
            )
        a += step
        b -= c.count
        verts.append((a, b))
        t_num, t_den = a * q + p * b, q + p
        if t_num * den > num * t_den:
            num, den = t_num, t_den
    return verts, Fraction(num, den)
