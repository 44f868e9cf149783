"""Root clusters as an independent route to the Newton-diagram data:
leading exponents from hull edges, refinements by leading coefficient,
and reconstruction of vertices, distance, and edge principal parts."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptcoord import (
    BiPoly,
    Cluster,
    ClusterLevel,
    build_report,
    distance,
    edge_weight,
    newton_polyhedron,
    parse,
    polygon_from_clusters,
    top_clusters,
    weighted_part,
)
from adaptcoord import clusters
from adaptcoord.clusters import MAX_DEPTH
from adaptcoord.errors import (
    DegenerateInX2,
    NonIntegerVertex,
    ZeroPolynomial,
)
from adaptcoord.unipoly import rational_roots
from conftest import analyzable_bipolys
from q_reference import edge_principal_part_from_clusters


def exponents_and_counts(level: ClusterLevel):
    return [(c.exponent, c.count) for c in level.clusters]


def test_depth_one_examples():
    cl = top_clusters(parse("x1*x2^2 - x1^3*x2"))
    assert (cl.nu1, cl.nu2) == (1, 1)
    assert exponents_and_counts(cl) == [(Fraction(2), 1)]

    cl = top_clusters(parse("(x2 - x1^2)^2 + x1^5"))
    assert (cl.nu1, cl.nu2) == (0, 0)
    assert exponents_and_counts(cl) == [(Fraction(2), 2)]

    cl = top_clusters(parse("x2^2 - x1^3"))
    assert exponents_and_counts(cl) == [(Fraction(3, 2), 2)]

    cl = top_clusters(parse("x2^2 + x1*x2 + x1^3"))
    assert exponents_and_counts(cl) == [(Fraction(1), 1), (Fraction(2), 1)]


def test_total_roots_counts_x2_degree():
    cl = top_clusters(parse("x1*x2^2 - x1^3*x2"))
    assert cl.total_roots == 2
    cl = top_clusters(parse("x1^2*x2^2"))
    assert cl.clusters == ()
    assert cl.total_roots == 2


def test_vertices_from_clusters_examples():
    cl = top_clusters(parse("x1*x2^2 - x1^3*x2"))
    assert polygon_from_clusters(cl)[0] == [(1, 2), (3, 1)]
    cl = top_clusters(parse("x2^2 + x1*x2 + x1^3"))
    assert polygon_from_clusters(cl)[0] == [(0, 2), (1, 1), (3, 0)]


def test_distance_from_clusters_examples():
    assert polygon_from_clusters(
        top_clusters(parse("x1*x2^2 - x1^3*x2"))
    )[1] == Fraction(5, 3)
    assert polygon_from_clusters(
        top_clusters(parse("(x2 - x1^2)^2 + x1^5"))
    )[1] == Fraction(4, 3)
    assert polygon_from_clusters(
        top_clusters(parse("x2^2 - x1^3"))
    )[1] == Fraction(6, 5)


def test_edge_principal_part_examples():
    f = parse("x2^2 + x1*x2 + x1^3")
    assert edge_principal_part_from_clusters(f, 1) == parse("x2^2 + x1*x2")
    assert edge_principal_part_from_clusters(f, 2) == parse("x1*x2 + x1^3")
    with pytest.raises(IndexError):
        edge_principal_part_from_clusters(f, 0)
    with pytest.raises(IndexError):
        edge_principal_part_from_clusters(f, 3)


def test_depth_two_refinement_follows_rational_root():
    cl = top_clusters(parse("(x2 - x1^2)^2 + x1^5"), depth=2)
    (c,) = cl.clusters
    assert c.unresolved == 0
    (ref,) = c.refinements
    assert ref.coefficient == 1
    assert ref.count == 2
    assert exponents_and_counts(ref.sub) == [(Fraction(5, 2), 2)]


def test_depth_two_branch_that_terminates_exactly():
    # x2 = x1 and x2 = 2*x1 are exact roots: their branches stop, so the
    # continuation level carries them in nu2 with no further clusters
    cl = top_clusters(parse("(x2 - x1)*(x2 - 2*x1)"), depth=2)
    (c,) = cl.clusters
    assert (c.exponent, c.count) == (1, 2)
    assert {r.coefficient for r in c.refinements} == {1, 2}
    for ref in c.refinements:
        assert ref.count == 1
        assert ref.sub.nu2 == 1
        assert ref.sub.clusters == ()


def test_depth_three_refinement():
    f = parse("(x2 - x1 - x1^2)*(x2 - x1 + x1^2)")
    cl = top_clusters(f, depth=3)
    (c,) = cl.clusters
    (ref,) = c.refinements
    assert (ref.coefficient, ref.count) == (1, 2)
    (sub_c,) = ref.sub.clusters
    assert (sub_c.exponent, sub_c.count) == (2, 2)
    assert {r.coefficient for r in sub_c.refinements} == {1, -1}


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_each_branch_is_refined_once(monkeypatch, depth):
    # under the shear by one of the forty lines, the other 39 sit on the
    # edge being refined, and only edges above it are refined again: the
    # 40 simple branches stop there, so u's roots are taken once
    calls = []
    monkeypatch.setattr(
        clusters, "rational_roots", lambda u: calls.append(u) or rational_roots(u)
    )
    f = parse("*".join(f"({i}*x2 - {i + 1}*x1)" for i in range(1, 41)))
    (c,) = top_clusters(f, depth=depth).clusters
    assert len(c.refinements) == 40
    assert all(r.sub == ClusterLevel(0, 1) for r in c.refinements)
    assert len(calls) == 1


def test_fractional_exponent_is_left_unresolved():
    cl = top_clusters(parse("x2^2 - x1^3"), depth=2)
    (c,) = cl.clusters
    assert c.refinements == ()
    assert c.unresolved == 2


def test_irrational_coefficient_is_left_unresolved():
    f = parse("(x2^2 - 2*x1^2)*(x2 - x1)")
    cl = top_clusters(f, depth=2)
    (c,) = cl.clusters
    assert c.count == 3
    assert c.unresolved == 2  # the two square-root branches
    assert [(r.coefficient, r.count) for r in c.refinements] == [(1, 1)]


def test_input_validation():
    with pytest.raises(ValueError):
        top_clusters(parse("x2^2"), depth=0)
    with pytest.raises(ZeroPolynomial):
        top_clusters(BiPoly.zero())
    with pytest.raises(ValueError):
        top_clusters(parse("1 + x2^2"))
    with pytest.raises(DegenerateInX2):
        top_clusters(parse("x1^2 + x1^3"))
    # operator.index refuses a float depth rather than refining with it
    with pytest.raises(TypeError):
        top_clusters(parse("(x2 - x1^2)^2 + x1^5"), depth=2.0)


def test_depth_at_the_bound_and_past_it():
    # x2 = x1^2/(1 + x1) = x1^2 - x1^3 + ... refines one level per step,
    # so the deepest allowed call recurses the whole way
    f = parse("(x2*(1 + x1) - x1^2)^2")
    clusters = top_clusters(f, depth=MAX_DEPTH).clusters
    coefficients = []
    while clusters[0].refinements:
        [r] = clusters[0].refinements
        coefficients.append((r.coefficient, r.count))
        clusters = r.sub.clusters
    assert coefficients == [((-1) ** i, 2) for i in range(MAX_DEPTH - 1)]
    with pytest.raises(ValueError, match=str(MAX_DEPTH)):
        top_clusters(f, depth=MAX_DEPTH + 1)


def test_reconstruction_rejects_inconsistent_data():
    with pytest.raises(NonIntegerVertex):
        polygon_from_clusters(
            ClusterLevel(0, 0, (Cluster(Fraction(1, 2), 1),))
        )
    with pytest.raises(ValueError):
        polygon_from_clusters(
            ClusterLevel(0, 0, (Cluster(Fraction(2), 1), Cluster(Fraction(1), 1)))
        )
    with pytest.raises(ValueError):
        polygon_from_clusters(ClusterLevel(-1, 0, ()))


def _fraction_vertices(cl: ClusterLevel):
    """The vertices of polygon_from_clusters on Fractions; None for a
    non-integer A_l."""
    a = Fraction(cl.nu1)
    b = cl.total_roots
    out = [(cl.nu1, b)]
    for c in cl.clusters:
        a += c.exponent * c.count
        b -= c.count
        if a.denominator != 1:
            return None
        out.append((int(a), b))
    return out


def _fraction_distance(cl: ClusterLevel) -> Fraction:
    verts = _fraction_vertices(cl)
    best = max(Fraction(verts[0][0]), Fraction(verts[-1][1]))
    for c, (A, B) in zip(cl.clusters, verts[1:]):
        best = max(best, (A + c.exponent * B) / (1 + c.exponent))
    return best


@st.composite
def cluster_levels(draw) -> ClusterLevel:
    exponents = draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6),
            max_size=4,
            unique=True,
        )
    )
    clusters = []
    for e in sorted(exponents):
        # mostly a multiple of the denominator, so most vertices are integral
        count = e.denominator * draw(st.integers(1, 3)) + draw(
            st.sampled_from((0, 0, 0, 1))
        )
        clusters.append(Cluster(e, count))
    nu1, nu2 = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return ClusterLevel(nu1, nu2, tuple(clusters))


@given(cluster_levels())
@settings(max_examples=150, deadline=None)
def test_reconstruction_matches_a_fraction_reference(cl):
    expected = _fraction_vertices(cl)
    if expected is None:
        with pytest.raises(NonIntegerVertex):
            polygon_from_clusters(cl)
        return
    verts, got = polygon_from_clusters(cl)
    assert verts == expected
    assert type(got) is Fraction
    assert got == _fraction_distance(cl)


def test_non_integer_vertex_names_the_first_bad_abscissa():
    cl = ClusterLevel(
        2, 0, (Cluster(Fraction(1, 3), 3), Cluster(Fraction(1, 2), 1))
    )
    assert _fraction_vertices(cl) is None
    with pytest.raises(NonIntegerVertex, match="vertex abscissa 7/2 is not"):
        polygon_from_clusters(cl)


@given(analyzable_bipolys())
@settings(max_examples=120, deadline=None)
def test_cluster_data_reproduces_hull_geometry(f):
    hull = newton_polyhedron(f)
    cl = top_clusters(f)
    verts, d = polygon_from_clusters(cl)
    assert tuple(verts) == hull.vertices
    assert d == distance(hull)
    # the report's cross-check, read off the verdict's polygon, agrees with
    # the public path
    rep = build_report(f, run_adapt=False)
    assert rep.cluster_check == (
        tuple(verts) == hull.vertices,
        d == distance(hull),
    )
    for idx, ((a, b), c) in enumerate(zip(hull.edges, cl.clusters), start=1):
        w = edge_weight(a, b)
        assert c.exponent == w.k2 / w.k1  # inverse slope identity
        assert c.count == a[1] - b[1]
        assert edge_principal_part_from_clusters(f, idx) == weighted_part(
            f, w, 1
        )


@given(analyzable_bipolys())
@settings(max_examples=60, deadline=None)
def test_refined_branch_counts_are_conserved(f):
    cl = top_clusters(f, depth=2)
    for c in cl.clusters:
        resolved = sum(r.count for r in c.refinements)
        assert resolved + c.unresolved == c.count
        for r in c.refinements:
            assert r.sub.total_roots == r.count
            for sub_c in r.sub.clusters:
                assert sub_c.exponent > c.exponent
