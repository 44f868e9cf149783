"""Newton polyhedra of bivariate polynomials and their boundary structure.

The polyhedron of f is the convex hull of the union of translated positive
quadrants (j, k) + R^2_{>=0} over the support.  Its boundary consists of a
vertical half-line, a chain of compact edges with slopes strictly
increasing toward zero, and a horizontal half-line.  The distance is the
coordinate d at which the diagonal t1 = t2 crosses the boundary; the
principal face is the smallest face containing that crossing point.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple

from .bipoly import BiPoly, Term, Weight, weighted_part
from .errors import (
    EmptySupport,
    ZeroPolynomial,
)


class NewtonPolyhedron(NamedTuple):
    """Vertices of the boundary staircase, ordered by increasing first
    coordinate (hence strictly decreasing second coordinate)."""

    vertices: tuple[Term, ...]

    @property
    def edges(self) -> tuple[tuple[Term, Term], ...]:
        return tuple(zip(self.vertices, self.vertices[1:]))

    @property
    def first(self) -> Term:
        return self.vertices[0]

    @property
    def last(self) -> Term:
        return self.vertices[-1]


class FaceKind(Enum):
    VERTEX = "vertex"
    COMPACT_EDGE = "compact-edge"
    HORIZONTAL_HALFLINE = "horizontal-halfline"
    VERTICAL_HALFLINE = "vertical-halfline"


class Face(NamedTuple):
    """A face of the boundary.  `points` holds the single vertex, the two
    endpoints of a compact edge, or the anchor vertex of a half-line."""

    kind: FaceKind
    points: tuple[Term, ...]

    @property
    def is_compact_edge(self) -> bool:
        return self.kind is FaceKind.COMPACT_EDGE


def _cross(o: Term, a: Term, b: Term) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def build_polyhedron(points: Iterable[Term]) -> NewtonPolyhedron:
    """Extreme points of conv(union of (j,k) + first quadrant).

    One pass keeps the lowest j of each row k: no other point of a row
    can be extreme.  Going up the rows, a row's point is dominated (some
    point is <= it componentwise) exactly when a lower row has a j no
    larger, so a row is kept only when its j is below that of every
    lower row.  A monotone chain over the kept points, at most one per
    row, keeps exactly the convex staircase corners.  Collinear interior
    points are not vertices.
    """
    lowest: dict[int, int] = {}
    for j, k in points:
        if k not in lowest or j < lowest[k]:
            lowest[k] = j
    if not lowest:
        raise EmptySupport("no support points given")
    minimal: list[Term] = []
    for k in sorted(lowest):
        j = lowest[k]
        if not minimal or j < minimal[-1][0]:
            minimal.append((j, k))
    # by increasing j, hence decreasing k
    minimal.reverse()
    hull: list[Term] = []
    for p in minimal:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return NewtonPolyhedron(tuple(hull))


def newton_polyhedron(f: BiPoly) -> NewtonPolyhedron:
    if f.is_zero:
        raise ZeroPolynomial("zero polynomial has no Newton polyhedron")
    return build_polyhedron(f.num)


def edge_weight(a: Term, b: Term) -> Weight:
    """The weight of the edge from a = (j0, k0) to b = (j1, k1), left to
    right: the edge has slope -q/p in lowest terms and lies on the line
    q*j + p*k = m through a."""
    (j0, k0), (j1, k1) = a, b
    g = gcd(k0 - k1, j1 - j0)
    q, p = (k0 - k1) // g, (j1 - j0) // g
    return Weight(q, p, q * j0 + p * k0)


class HullAnalysis(NamedTuple):
    """The Newton data of one polynomial, from one pass over its polyhedron:
    the distance and the principal face.  The weights are read off the
    faces when they are asked for."""

    polyhedron: NewtonPolyhedron
    distance: Fraction
    face: Face

    @property
    def weight(self) -> Weight:
        """principal_face_weight of the principal face."""
        return principal_face_weight(self.face)

    @property
    def edge_weights(self) -> tuple[Weight, ...]:
        """The weight of every compact edge, in the order of
        `polyhedron.edges`."""
        return tuple(edge_weight(a, b) for a, b in self.polyhedron.edges)


def hull_analysis(np_: NewtonPolyhedron) -> HullAnalysis:
    """Distance and principal face of np_, from one diagonal crossing: the
    diagonal crosses the boundary at (d, d), in the smallest face
    containing that point.

    Along the staircase j increases and k decreases, so j - k increases
    strictly and the diagonal passes between the last vertex with j < k and
    the first with j >= k.  On the edge from (j1, k1) to (j2, k2) the
    crossing is d = (j2*k1 - j1*k2) / ((j2 - j1) + (k1 - k2)), both terms
    positive; on a vertex or a half-line d is an integer.
    """
    verts = np_.vertices
    for i, (j, k) in enumerate(verts):
        if j >= k:
            break
    else:
        # every vertex lies above the diagonal: it leaves horizontally
        face = Face(FaceKind.HORIZONTAL_HALFLINE, (verts[-1],))
        return HullAnalysis(np_, Fraction(verts[-1][1]), face)
    if j == k:
        return HullAnalysis(np_, Fraction(j), Face(FaceKind.VERTEX, (verts[i],)))
    if i == 0:
        face = Face(FaceKind.VERTICAL_HALFLINE, (verts[0],))
        return HullAnalysis(np_, Fraction(j), face)
    j1, k1 = verts[i - 1]
    return HullAnalysis(
        np_,
        Fraction(j * k1 - j1 * k, (j - j1) + (k1 - k)),
        Face(FaceKind.COMPACT_EDGE, (verts[i - 1], verts[i])),
    )


def distance(np_: NewtonPolyhedron) -> Fraction:
    """Coordinate of the boundary crossing with the diagonal t1 = t2."""
    return hull_analysis(np_).distance


def principal_face(np_: NewtonPolyhedron) -> Face:
    """Smallest boundary face containing the diagonal crossing point."""
    return hull_analysis(np_).face


def principal_face_weight(face: Face) -> Weight:
    """Weight convention for each face kind, read off the face's points.

    Compact edges carry their supporting-line weight; a vertex (j, j) on
    the diagonal gets the symmetric weight (1/(2j), 1/(2j)); a half-line
    through (j, k) gets a zero component in its unbounded direction and
    puts its anchor at level one: (0, 1/k) horizontal, (1/j, 0) vertical.
    """
    if face.kind is FaceKind.COMPACT_EDGE:
        return edge_weight(*face.points)
    ((j, k),) = face.points
    if face.kind is FaceKind.VERTEX:
        return Weight(1, 1, 2 * j)
    if face.kind is FaceKind.HORIZONTAL_HALFLINE:
        return Weight(0, 1, k)
    return Weight(1, 0, j)


def principal_part(f: BiPoly) -> BiPoly:
    """Terms of f lying on the principal face of its polyhedron."""
    hull = hull_analysis(newton_polyhedron(f))
    face = hull.face
    if face.kind is FaceKind.COMPACT_EDGE:
        return weighted_part(f, hull.weight, 1)
    ((j0, k0),) = face.points
    if face.kind is FaceKind.VERTEX:
        return f.select(lambda t: t == (j0, k0))
    if face.kind is FaceKind.HORIZONTAL_HALFLINE:
        return f.select(lambda t: t[1] == k0)
    return f.select(lambda t: t[0] == j0)
