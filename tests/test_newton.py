"""Newton polyhedron geometry: staircase vertices, distance, principal
face classification, principal parts.

The randomized checks compare against two independent oracles:
 - vertex oracle: p is a vertex iff some strictly positive weight attains
   its minimum over the support uniquely at p (tested over a candidate
   weight set large enough to decide for supports in a bounded box);
 - distance oracle: d = max over supporting weights w of
   min_p <w, p> / (w1 + w2), the dual description of the diagonal crossing.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptcoord import (
    BiPoly,
    Face,
    FaceKind,
    build_polyhedron,
    distance,
    edge_weight,
    hull_analysis,
    newton_polyhedron,
    parse,
    principal_face,
    principal_face_weight,
    principal_part,
)
from adaptcoord.errors import EmptySupport, ZeroPolynomial
from q_reference import sorted_staircase

supports = st.sets(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=10,
)

# a wider box: the crossing of the diagonal with an edge multiplies
# coordinates, so exercise it well beyond one digit
wide_supports = st.sets(
    st.tuples(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=60),
    ),
    min_size=1,
    max_size=10,
)

# perturbation scale: larger than any slope difference between lattice
# normals with entries bounded by the support box, so tilting a boundary
# normal by 1/BIG stays inside the adjacent normal cone
BIG = 1000


def candidate_weights(support):
    cands = {(Fraction(1), Fraction(BIG)), (Fraction(BIG), Fraction(1))}
    for (j0, k0), (j1, k1) in combinations(support, 2):
        w1, w2 = k0 - k1, j1 - j0
        if w1 * w2 > 0:
            w1, w2 = abs(Fraction(w1)), abs(Fraction(w2))
            cands.add((w1, w2))
            cands.add((w1 + Fraction(1, BIG), w2))
            cands.add((w1, w2 + Fraction(1, BIG)))
    return cands


def vertex_oracle(support):
    verts = []
    for p in support:
        for w1, w2 in candidate_weights(support):
            level = w1 * p[0] + w2 * p[1]
            if all(
                w1 * q[0] + w2 * q[1] > level for q in support if q != p
            ):
                verts.append(p)
                break
    return sorted(verts)


def distance_oracle(support):
    best = Fraction(0)
    cands = {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))}
    cands |= candidate_weights(support)
    for w1, w2 in cands:
        level = min(w1 * j + w2 * k for j, k in support)
        best = max(best, level / (w1 + w2))
    return best


def test_vertices_of_parabola_square():
    hull = newton_polyhedron(parse("(x2 - x1^2)^2"))
    assert hull.vertices == ((0, 2), (4, 0))
    assert hull.edges == (((0, 2), (4, 0)),)
    assert hull.first == (0, 2)
    assert hull.last == (4, 0)


def test_collinear_support_point_is_not_a_vertex():
    hull = build_polyhedron({(0, 2), (2, 1), (4, 0)})
    assert hull.vertices == ((0, 2), (4, 0))


def test_dominated_points_are_dropped():
    hull = build_polyhedron({(0, 2), (4, 0), (5, 3), (6, 0)})
    assert hull.vertices == ((0, 2), (4, 0))


small = st.integers(min_value=0, max_value=12)
# few rows, many points in each
row_supports = st.sets(
    st.tuples(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=3)),
    min_size=1,
    max_size=20,
)
one_row = st.builds(lambda js, k: {(j, k) for j in js}, st.sets(small, min_size=1), small)
one_column = st.builds(lambda ks, j: {(j, k) for k in ks}, st.sets(small, min_size=1), small)


@st.composite
def collinear_supports(draw):
    """A run of points on one line of negative slope, with a few more
    points anywhere."""
    p = draw(st.integers(min_value=1, max_value=4))
    q = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=2, max_value=6))
    j0 = draw(small)
    pts = {(j0 + i * p, q * (n - 1 - i)) for i in range(n)}
    return pts | draw(st.sets(st.tuples(small, small), max_size=4))


# build_polyhedron reads any iterable of points: a set, a list with
# repeats, a dict's keys, or the dict itself (BiPoly.num)
containers = st.sampled_from([
    set,
    lambda s: sorted(s, reverse=True) + sorted(s),
    lambda s: dict.fromkeys(s, 1).keys(),
    lambda s: dict.fromkeys(s, 1),
])


@given(
    st.one_of(supports, wide_supports, row_supports, one_row, one_column, collinear_supports()),
    containers,
)
@settings(max_examples=300)
def test_row_minima_hull_matches_the_sorted_staircase(support, container):
    assert build_polyhedron(container(support)).vertices == sorted_staircase(support)


def test_row_minima_hull_on_a_column_and_a_collinear_run():
    assert build_polyhedron({(3, 5), (3, 2), (3, 7)}).vertices == ((3, 2),)
    assert build_polyhedron({(0, 3), (1, 2), (2, 1), (3, 0), (2, 2)}).vertices == ((0, 3), (3, 0))
    assert build_polyhedron(dict.fromkeys([(4, 0), (0, 4), (1, 4)], 1)).vertices == ((0, 4), (4, 0))


def test_empty_support_rejected():
    with pytest.raises(EmptySupport):
        build_polyhedron(set())
    with pytest.raises(ZeroPolynomial):
        newton_polyhedron(BiPoly.zero())


@given(supports)
@settings(max_examples=150)
def test_vertices_match_unique_minimizer_oracle(support):
    hull = build_polyhedron(support)
    assert list(hull.vertices) == vertex_oracle(support)


@given(supports)
@settings(max_examples=100)
def test_staircase_is_monotone_and_convex(support):
    hull = build_polyhedron(support)
    vs = hull.vertices
    assert all(a[0] < b[0] and a[1] > b[1] for a, b in zip(vs, vs[1:]))
    # slopes strictly increase toward zero
    slopes = [
        Fraction(b[1] - a[1], b[0] - a[0]) for a, b in zip(vs, vs[1:])
    ]
    assert all(s < 0 for s in slopes)
    assert all(s < t for s, t in zip(slopes, slopes[1:]))


@given(st.one_of(supports, wide_supports))
@settings(max_examples=150)
def test_distance_matches_dual_oracle(support):
    hull = build_polyhedron(support)
    assert distance(hull) == distance_oracle(support)


def test_distance_examples():
    assert distance(newton_polyhedron(parse("(x2 - x1^2)^2"))) == Fraction(4, 3)
    assert distance(newton_polyhedron(parse("x1^2*x2^2"))) == 2
    assert distance(newton_polyhedron(parse("x2^2"))) == 2
    assert distance(newton_polyhedron(parse("x1^3"))) == 3
    assert distance(newton_polyhedron(parse("x2^2 - x1^3"))) == Fraction(6, 5)


def test_principal_face_vertex_on_diagonal():
    face = principal_face(newton_polyhedron(parse("x1^2*x2^2 + x1^5 + x2^5")))
    assert face.kind is FaceKind.VERTEX
    assert face.points == ((2, 2),)


def test_principal_face_compact_edge():
    face = principal_face(newton_polyhedron(parse("(x2 - x1^2)^2")))
    assert face.kind is FaceKind.COMPACT_EDGE
    assert face.points == ((0, 2), (4, 0))
    assert face.is_compact_edge


def test_principal_face_horizontal_halfline():
    # boundary: vertical at 0 above (0,3), edge to (1,2), horizontal at
    # height 2; the diagonal leaves through the horizontal part at (2,2)
    face = principal_face(newton_polyhedron(parse("x2^3 + 3*x1*x2^2")))
    assert face.kind is FaceKind.HORIZONTAL_HALFLINE
    assert face.points == ((1, 2),)


def test_principal_face_vertical_halfline():
    # single vertex (3,1): the diagonal leaves through the vertical part
    face = principal_face(newton_polyhedron(parse("x1^3*x2")))
    assert face.kind is FaceKind.VERTICAL_HALFLINE
    assert face.points == ((3, 1),)


@given(st.one_of(supports, wide_supports))
@settings(max_examples=100)
def test_principal_face_contains_diagonal_point(support):
    hull = build_polyhedron(support)
    d = distance(hull)
    face = principal_face(hull)
    if face.kind is FaceKind.VERTEX:
        assert face.points[0] == (d, d)
    elif face.kind is FaceKind.COMPACT_EDGE:
        w = edge_weight(*face.points)
        assert (w.k1 + w.k2) * d == 1
        assert face.points[0][0] < d < face.points[1][0]
    elif face.kind is FaceKind.HORIZONTAL_HALFLINE:
        assert Fraction(face.points[0][1]) == d > face.points[0][0]
    else:
        assert Fraction(face.points[0][0]) == d > face.points[0][1]


def test_edge_weight_supports_endpoints_at_level_one():
    w = edge_weight((0, 2), (4, 0))
    assert (w.k1, w.k2) == (Fraction(1, 4), Fraction(1, 2))
    w2 = edge_weight((1, 2), (3, 1))
    assert Fraction(w2.q * 1 + w2.p * 2, w2.m) == 1
    assert Fraction(w2.q * 3 + w2.p * 1, w2.m) == 1


def test_principal_face_weight_conventions():
    vertex_w = principal_face_weight(Face(FaceKind.VERTEX, ((2, 2),)))
    assert (vertex_w.k1, vertex_w.k2) == (Fraction(1, 4), Fraction(1, 4))
    horiz_w = principal_face_weight(Face(FaceKind.HORIZONTAL_HALFLINE, ((1, 2),)))
    assert (horiz_w.k1, horiz_w.k2) == (0, Fraction(1, 2))
    vert_w = principal_face_weight(Face(FaceKind.VERTICAL_HALFLINE, ((2, 3),)))
    assert (vert_w.k1, vert_w.k2) == (Fraction(1, 2), 0)


@given(wide_supports)
@settings(max_examples=100)
def test_edge_weight_matches_the_determinant_formula(support):
    np_ = build_polyhedron(support)
    for a, b in np_.edges:
        # the reference: the line through a and b at level one, solved by
        # Cramer's rule
        (j1, k1), (j2, k2) = a, b
        det = j1 * k2 - j2 * k1
        w = edge_weight(a, b)
        assert (w.k1, w.k2) == (Fraction(k2 - k1, det), Fraction(j1 - j2, det))
    face = principal_face(np_)
    if distance(np_) > 0:
        w = principal_face_weight(face)
        assert all(w.q * j + w.p * k == w.m for j, k in face.points)
        # the symmetric weight of a vertex is a convention, not a supporting
        # weight: (0, 3) lies below level 4 at the vertex (2, 2) of
        # {(0, 3), (2, 2), (12, 0)}
        if face.kind is not FaceKind.VERTEX:
            assert all(w.q * j + w.p * k >= w.m for j, k in support)


def test_principal_part_examples():
    f = parse("(x2 - x1^2)^2 + x1^5")
    assert principal_part(f) == parse("(x2 - x1^2)^2")
    g = parse("x1^2*x2^2 + x1^5 + x2^5")
    assert principal_part(g) == parse("x1^2*x2^2")
    h = parse("x2^3 + 3*x1*x2^2 + x1^7*x2^2")
    assert principal_part(h) == parse("3*x1*x2^2 + x1^7*x2^2")


@given(supports)
@settings(max_examples=100)
def test_principal_part_support_lies_on_face(support):
    f = BiPoly({t: Fraction(1) for t in support})
    hull = newton_polyhedron(f)
    d = distance(hull)
    face = principal_face(hull)
    pp = principal_part(f)
    assert not pp.is_zero
    assert pp.support <= f.support
    if face.kind is FaceKind.COMPACT_EDGE:
        w = edge_weight(*face.points)
        assert all(Fraction(w.q * t[0] + w.p * t[1], w.m) == 1 for t in pp.support)
    elif face.kind is FaceKind.VERTEX:
        assert pp.support == {face.points[0]}
    elif face.kind is FaceKind.HORIZONTAL_HALFLINE:
        assert {k for _, k in pp.support} == {face.points[0][1]}
    else:
        assert {j for j, _ in pp.support} == {face.points[0][0]}


@given(supports)
@settings(max_examples=100)
def test_hull_analysis_weights_match_the_face_conventions(support):
    np_ = build_polyhedron(support)
    hull = hull_analysis(np_)
    assert hull.polyhedron == np_
    assert hull.edge_weights == tuple(edge_weight(a, b) for a, b in np_.edges)
    if hull.distance > 0:
        assert hull.weight == principal_face_weight(hull.face)
