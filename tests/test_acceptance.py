"""Acceptance gate: nine criteria, each printing one PASS/FAIL line.

Every criterion runs inside a stopwatch; the line reports the verdict and
the elapsed time, and the test fails if the work fails or the stated time
budget is exceeded.  The timed regression tests at the end pin inputs
whose root finding once took time exponential in the coefficient size,
sheared inputs whose squarefree decomposition over Q[x1] once
stalled on coefficient growth, and univariate inputs whose squarefree
decomposition and Sturm chains once ran Euclid on Fractions.
"""

from __future__ import annotations

import random
import signal
import time
from fractions import Fraction

import pytest

from adaptcoord import (
    AdaptStatus,
    BiPoly,
    ClusterLevel,
    FaceKind,
    ShearAxis,
    ShearChange,
    adapt,
    analyze,
    apply_shear,
    build_polyhedron,
    build_report,
    check_adapted,
    distance,
    edge_weight,
    fit_decay,
    height,
    newton_polyhedron,
    parse,
    polygon_from_clusters,
    predict_shear_vertices,
    principal_face,
    principal_part,
    squarefree_part_x2,
    swap_axes,
    top_clusters,
)
from adaptcoord.unipoly import (
    UniPoly,
    count_real_roots,
    exact_real_roots,
    squarefree_decompose,
)
from conftest import CORPUS_SEED, random_corpus, sheared_by, sheared_inputs
from q_reference import _z_mul, quasihomogeneous_height, scale_axes

# polynomials whose adapted systems are reachable by x2-shears (possibly
# after an axis swap) with coefficients in {-2..2} and exponents <= 4;
# also the non-adapted workload for criteria 6 and 8
CURATED = [
    "x1^2 + x2^2",
    "x1*x2",
    "x1^2*x2^2",
    "x2^2 - x1^2",
    "x2^2 - x1^3",
    "x2^3 - x1^4",
    "x1*x2^2 - x1^3*x2",
    "(x2 - x1^2)^2",
    "(x2 - x1^2)^2 + x1^5",
    "(x2 - x1^2)^2 + x1^6",
    "(x2 - x1^2)^2 + x1^7",
    "(x2 - x1^2)^2 - x1^4*x2",
    "(x2 - 2*x1^2)^2 + x1^5",
    "(x2 + 2*x1^2)^2 + x1^7",
    "(x2 - x1^2 - x1^3)^2",
    "(x2 - x1^2 - x1^3)^2 + x1^9",
    "(x2 - x1^2 + x1^4)^2 + x1^9",
    "(x2 - x1 - x1^2)^2 + x1^6",
    "x1*(x2 - x1)^2",
    "x1*(x2 - x1)^2 + x1^6",
    "x2^3 - 3*x1^2*x2 + 2*x1^3",
    "(x2 - x1)^2*(x2 + x1)",
    "(x2 - x1^2)^3 + x1^10",
    "(x2 - x1^2)^3 + x1^9*x2",
    "(x2 - x1^3)^2 + x1^8",
    "(x2 - x1^4)^2 + x1^9",
    "(x2 - 2*x1^2 + x1^3)^2 + x1^8",
    "(x2^2 - x1^3)^2",
    "x1^3*x2 + x1^2*x2^3",
    "x1^5 + x1^2*x2 + x2^4",
    "(x1 - x2^2)^2 + x2^5",
    "(x1 - x2^2)^2 + x1^5",
    "(x2 + x1)^2*(x2 - x1) + x1^5",
]

SHEAR_GRID = [Fraction(c) for c in (-2, -1, 0, 1, 2)]


@pytest.fixture(scope="module")
def corpus():
    return random_corpus(500)


def run_criterion(capsys, label: str, limit: float, body) -> None:
    start = time.perf_counter()
    failed = True
    try:
        body()
        failed = False
    finally:
        elapsed = time.perf_counter() - start
        verdict = "PASS" if not failed and elapsed <= limit else "FAIL"
        with capsys.disabled():
            print(f"acceptance {label}: {verdict} ({elapsed:.2f}s, limit {limit:g}s)")
    assert elapsed <= limit, f"{label} exceeded {limit}s: {elapsed:.2f}s"


def test_criterion_1_exact_heights(capsys):
    def body():
        expected = {
            "x1^2 + x2^2": Fraction(1),
            "x1*x2^2 - x1^3*x2": Fraction(5, 3),
            "(x2 - x1^2)^2": Fraction(2),
            "(x2 - x1^2)^2 + x1^5": Fraction(10, 7),
            "(x2^2 - x1^3)^2": Fraction(12, 5),
        }
        for src, want in expected.items():
            assert height(parse(src)) == want, src

    run_criterion(capsys, "1 exact height suite", 1.0, body)


def test_criterion_2_nontermination_certificate(capsys):
    def body():
        res = adapt(parse("(x2*(1 + x1) - x1^2)^2"), max_steps=8)
        assert res.status is AdaptStatus.NONTERMINATING_CERTIFIED
        assert res.height == 2
        assert res.jet.truncated
        assert res.jet.terms[:4] == (
            (Fraction(1), 2),
            (Fraction(-1), 3),
            (Fraction(1), 4),
            (Fraction(-1), 5),
        )
        # alternating-sign branch of x1^2/(1+x1), one term per exponent
        assert [m for _, m in res.jet.terms] == list(range(2, 10))
        assert all(b == (-1) ** m for (b, m) in res.jet.terms)
        for step in res.steps:
            assert step.multiplicity == 2
            assert step.distance == Fraction(2 * step.exponent, step.exponent + 1)

    run_criterion(capsys, "2 non-termination certificate", 1.0, body)


def test_criterion_3_cluster_hull_equivalence(capsys, corpus):
    def body():
        assert len(corpus) >= 500
        for f in corpus:
            hull = newton_polyhedron(f)
            verts, d = polygon_from_clusters(top_clusters(f))
            assert tuple(verts) == hull.vertices, f
            assert d == distance(hull), f

    run_criterion(capsys, "3 cluster/hull equivalence (500 random)", 10.0, body)


def test_criterion_4_shear_vertex_prediction(capsys):
    def body():
        rng = random.Random(CORPUS_SEED + 1)
        done = 0
        while done < 200:
            nu1 = rng.randint(0, 3)
            nu2 = rng.randint(0, 2)
            p = rng.randint(1, 4)
            roots: dict[Fraction, int] = {}
            for _ in range(rng.randint(1, 3)):
                r = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
                if r != 0:
                    roots[r] = rng.randint(1, 3)
            if not roots or nu1 + nu2 + sum(roots.values()) < 2:
                continue
            P = BiPoly.monomial(nu1, nu2)
            for r, m in roots.items():
                factor = BiPoly.monomial(0, 1) - BiPoly.monomial(p, 0, r)
                for _ in range(m):
                    P = P * factor
            pool = list(roots) + [Fraction(5), Fraction(-7, 2), Fraction(1, 6)]
            b = rng.choice(pool)
            first, last = predict_shear_vertices(P, b)
            g = apply_shear(P, ShearChange(ShearAxis.X2, b, p))
            hull = build_polyhedron(g.support)
            assert hull.first == first, (P, b)
            assert hull.last == last, (P, b)
            done += 1

    run_criterion(capsys, "4 shear vertex prediction (200 random)", 10.0, body)


def _sheared(f: BiPoly, c: Fraction, m: int) -> BiPoly:
    # coefficient 0 means no shear at this exponent
    return f if c == 0 else apply_shear(f, ShearChange(ShearAxis.X2, c, m))


def _brute_force_best(f: BiPoly) -> Fraction:
    best = distance(newton_polyhedron(f))
    for c1 in SHEAR_GRID:
        f1 = _sheared(f, c1, 1)
        for c2 in SHEAR_GRID:
            f2 = _sheared(f1, c2, 2)
            for c3 in SHEAR_GRID:
                f3 = _sheared(f2, c3, 3)
                for c4 in SHEAR_GRID:
                    d = distance(build_polyhedron(_sheared(f3, c4, 4).support))
                    if d > best:
                        best = d
    return best


def test_criterion_5_brute_force_height_oracle(capsys):
    def body():
        assert len(CURATED) >= 30
        for src in CURATED:
            f = parse(src)
            h = height(f)
            bf = max(_brute_force_best(f), _brute_force_best(swap_axes(f)))
            assert h == bf, (src, h, bf)

    run_criterion(capsys, "5 brute-force height oracle (33 curated)", 60.0, body)


def test_criterion_6_adaptedness_biconditional(capsys, corpus):
    def body():
        pool = corpus + [parse(src) for src in CURATED]
        nonadapted = 0
        for f in pool:
            rep = check_adapted(f)
            # independent recomputation of the three conditions
            hull = newton_polyhedron(f)
            d = distance(hull)
            face = principal_face(hull)
            cond_a = face.kind is FaceKind.COMPACT_EDGE
            g = f
            if face.kind is FaceKind.VERTICAL_HALFLINE:
                g = swap_axes(f)
            elif cond_a:
                w = edge_weight(*face.points)
                if w.k1 > w.k2:
                    g = swap_axes(f)
            face_g = principal_face(newton_polyhedron(g))
            if face_g.kind is FaceKind.COMPACT_EDGE:
                w = edge_weight(*face_g.points)
                cond_b = (w.k2 / w.k1).denominator == 1
                data = analyze(principal_part(g))
                cond_c = Fraction(data.max_real_multiplicity) > d
            else:
                cond_b = face_g.kind is FaceKind.VERTEX
                cond_c = False
            assert rep.condition_a == cond_a, f
            assert rep.condition_b == cond_b, f
            assert rep.condition_c == cond_c, f
            assert rep.adapted == (not (cond_a and cond_b and cond_c)), f
            res = adapt(f)
            if not rep.adapted:
                nonadapted += 1
                # one shear step strictly increases the distance
                g1 = apply_shear(
                    g,
                    ShearChange(
                        ShearAxis.X2,
                        rep.witness.coefficient,
                        rep.witness.exponent,
                    ),
                )
                assert distance(newton_polyhedron(g1)) > d, f
            else:
                assert res.height == d, f
            # height never exceeds the principal part's own height
            if face_g.kind is FaceKind.COMPACT_EDGE:
                assert res.height <= quasihomogeneous_height(principal_part(g)), f
        assert nonadapted >= 10  # the curated list must exercise the branch

    run_criterion(capsys, "6 adaptedness biconditional", 10.0, body)


def test_criterion_7_decay_cross_check(capsys):
    def body():
        cases = [
            ("x1^2 + x2^2", 1.0, None),
            ("(x2 - x1^2)^2", 0.5, None),
            ("x1^2*x2^2", 0.5, 1),
        ]
        for src, want, log_power in cases:
            est = fit_decay(parse(src), 10.0, 1.0e4, points=7)
            assert abs(est.fitted_exponent - want) <= 0.15, (
                src,
                est.fitted_exponent,
            )
            if log_power is not None:
                assert est.fitted_log_power == log_power, src

    run_criterion(capsys, "7 numeric decay cross-check", 120.0, body)


def test_criterion_8_invariance_suite(capsys, corpus):
    def body():
        pool = corpus + [parse(src) for src in CURATED]
        for i, f in enumerate(pool):
            rep = check_adapted(f)
            res = adapt(f)
            assert check_adapted(swap_axes(f)).adapted == rep.adapted, f
            assert adapt(swap_axes(f)).height == res.height, f
            if i % 2:
                c1, c2 = Fraction(-2), Fraction(3)
            else:
                c1, c2 = Fraction(1, 2), Fraction(-3, 4)
            scaled = scale_axes(f, c1, c2)
            assert check_adapted(scaled).adapted == rep.adapted, f
            assert adapt(scaled).height == res.height, f
            exps = [s.exponent for s in res.steps]
            assert exps == sorted(set(exps)), f  # strictly increasing
            mults = [s.multiplicity for s in res.steps]
            assert all(a >= b for a, b in zip(mults, mults[1:])), f

    run_criterion(capsys, "8 invariance suite", 10.0, body)


def test_criterion_9_height_invariance_under_shears(capsys):
    # the slice is fixed: the first 200 (base, sheared) pairs at cap 10
    pairs = sheared_inputs(200)

    def body():
        for base, g in pairs:
            want = adapt(base, max_steps=10).height
            assert adapt(g, max_steps=10).height == want, (base, g)

    run_criterion(capsys, "9 height invariance under shears (200 pairs)", 10.0, body)


# a Morse function (h = 1) with a 29-digit prime coefficient
MORSE_29 = "x2^2 + 100000000000000000000000000057*x1^2"


def run_timed(capsys, label: str, limit: float, body) -> None:
    """run_criterion, interrupted at ten times the limit so a hang fails."""

    def expire(signum, frame):
        raise TimeoutError(f"{label} still running after {10 * limit:g}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10 * limit)
    try:
        run_criterion(capsys, label, limit, body)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_timed_report_on_29_digit_morse_input(capsys):
    def body():
        rep = build_report(parse(MORSE_29))
        assert rep.height == 1
        assert rep.status == "terminated"

    run_timed(capsys, "report on 29-digit Morse input", 1.0, body)


def test_timed_report_on_jet_with_growing_denominators(capsys):
    # the jet's coefficients (2/3)(-1/3)^(m-2) grow by a factor 3 per step
    def body():
        rep = build_report(parse("(x2*(3 + x1) - 2*x1^2)^2"))
        assert rep.height == 2
        assert rep.status == "nonterminating-certified"

    run_timed(capsys, "report on a 3^m jet", 1.0, body)


def test_timed_depth_two_clusters_on_29_digit_input(capsys):
    def body():
        level = top_clusters(parse(MORSE_29.replace("+", "-")), depth=2)
        assert [(c.exponent, c.count, c.unresolved) for c in level.clusters] == [
            (1, 2, 2)
        ]

    run_timed(capsys, "depth-2 clusters on 29-digit input", 1.0, body)


def test_timed_squarefree_part_of_355_term_input(capsys):
    f = sheared_by(
        "(x2 - x1^2)^3*(3*x2^2 + x1^3)",
        (ShearAxis.X2, 1, 1), (ShearAxis.X1, 1, 2), (ShearAxis.X2, -1, 3),
    )
    assert len(f.terms()) == 355

    def body():
        factors = squarefree_part_x2(f)
        assert [(F.x2_degree, j) for F, j in factors] == [(6, 1), (4, 3)]

    run_timed(capsys, "squarefree part of a 355-term input", 1.0, body)


def test_timed_squarefree_part_of_274_term_input(capsys):
    f = sheared_by(
        "(x2 - x1^2)^2*(x2^3 + x1^5 + x1*x2)",
        (ShearAxis.X1, 1, 2), (ShearAxis.X2, 1, 3),
    )
    assert len(f.terms()) == 274

    def body():
        factors = squarefree_part_x2(f)
        assert [(F.x2_degree, j) for F, j in factors] == [(10, 1), (4, 2)]

    run_timed(capsys, "squarefree part of a 274-term input", 1.0, body)


def test_timed_certified_report_on_sheared_cube(capsys):
    f = sheared_by(
        "(x2*(1 + x1) - x1^2)^3*(x2 + x1)",
        (ShearAxis.X1, 1, 2), (ShearAxis.X2, 1, 3),
    )

    def body():
        rep = build_report(f)
        assert rep.height == 3
        assert rep.status == "nonterminating-certified"

    run_timed(capsys, "certified report on a sheared cube", 2.0, body)


def test_timed_certified_triple_at_default_cap(capsys):
    # the certificate holds at step 4; from there the product is not
    # sheared, and the last polynomial (8,449 terms) is composed once
    f = sheared_by(
        "5*x2^4 + 2*x1^2*x2^3",
        (ShearAxis.X2, -1, 2), (ShearAxis.X2, 1, 1), (ShearAxis.X1, 1, 2),
    )

    def body():
        res = adapt(f)
        assert res.height == 3
        assert res.status is AdaptStatus.NONTERMINATING_CERTIFIED
        assert len(res.jet.terms) == 64

    run_timed(capsys, "certified triple at the default cap", 0.75, body)


def test_timed_adapt_on_a_perturbed_power(capsys):
    # the input's image at x1 = 1 is squarefree, so the certificate's
    # pre-test rules out a factor of multiplicity 40 without decomposing
    f = parse("(x2 - x1 - x1^2 - x1^3)^40 + x1^200")

    def body():
        res = adapt(f)
        assert res.status is AdaptStatus.TERMINATED
        assert res.height == Fraction(100, 3)
        assert len(res.jet.terms) == 3

    run_timed(capsys, "adapt on a perturbed 40th power", 0.5, body)


def test_timed_adapt_on_a_perturbed_100th_power(capsys):
    # decomposing this 10,202-term start took seconds of multi-megabit
    # integer gcds; its squarefree image at x1 = 1 takes milliseconds
    f = parse("(x2 - x1 - x1^2 - x1^3)^100 + x1^500")

    def body():
        res = adapt(f)
        assert res.status is AdaptStatus.TERMINATED
        assert res.height == Fraction(250, 3)
        assert len(res.jet.terms) == 3

    run_timed(capsys, "adapt on a perturbed 100th power", 2.0, body)


def test_timed_adapt_on_a_squared_perturbed_power(capsys):
    # the steps have multiplicity 60 and the image's largest multiplicity
    # is 2, so no factor is lifted and none raised to its power; the
    # square is taken by one product, as parsing it takes seconds
    base = parse("(x2 - x1 - x1^2 - x1^3)^30 + x1^150")
    f = base * base

    def body():
        res = adapt(f)
        assert res.status is AdaptStatus.TERMINATED
        assert res.height == 50
        assert [s.multiplicity for s in res.steps] == [60, 60, 60]

    run_timed(capsys, "adapt on a squared perturbed power", 0.5, body)


@pytest.mark.parametrize(
    "src, witness, limit",
    [
        ("(x1 + x2)^300", (Fraction(-1), 1, 300), 0.2),
        ("(3*x2 - 2*x1)^200", (Fraction(2, 3), 1, 200), 0.2),
        ("(x1 + x2)^2000", (Fraction(-1), 1, 2000), 0.5),
        ("(3*x2 - 2*x1)^1000", (Fraction(2, 3), 1, 1000), 0.5),
    ],
)
def test_timed_verdict_on_a_power_of_a_line(capsys, src, witness, limit):
    # u = c*(A*y + B)^n: one deep linear factor of multiplicity n; the
    # heuristic gcd packs rows of n + 1 coefficients of up to n bits each
    f = parse(src)

    def body():
        rep = check_adapted(f)
        assert not rep.adapted
        assert rep.witness == witness

    run_timed(capsys, f"verdict on {src}", limit, body)


@pytest.mark.parametrize(
    "src, terms, limit",
    [
        ("(x1 + x2)^2000", 2001, 0.2),
        ("(x2 - x1 - x1^2)^100 + x1^400", 5152, 0.1),
    ],
)
def test_timed_parse_of_a_high_power(capsys, src, terms, limit):
    # Miller's recurrence costs about (terms of the base) x (terms of the
    # power) products; squaring through __mul__ would cost (terms of the
    # power)^2, seconds on either input
    def body():
        assert len(parse(src).num) == terms

    run_timed(capsys, f"parse of {src}", limit, body)


# (x2 - 2*x1)*(2*x2 - 3*x1)*...*(40*x2 - 41*x1): u has the 40 simple roots
# (i + 1)/i and leading coefficient 40!
P40 = "*".join(f"({i}*x2 - {i + 1}*x1)" for i in range(1, 41))


@pytest.mark.parametrize(
    "b, last", [(Fraction(7), (40, 0)), (Fraction(3, 2), (39, 1))]
)
def test_timed_shear_vertices_of_forty_lines(capsys, b, last):
    P = parse(P40)

    def body():
        assert predict_shear_vertices(P, b) == ((0, 40), last)

    run_timed(capsys, f"shear vertices of forty lines at b = {b}", 0.5, body)


def test_timed_depth_two_clusters_on_forty_lines(capsys):
    # _root_bound is a power of two, so every bisection point of u's
    # isolation and narrowing is dyadic and scales by a power of two, not
    # by a power of u's leading coefficient 40!
    P = parse(P40)
    lines = {Fraction(i + 1, i) for i in range(1, 41)}

    def body():
        (cluster,) = top_clusters(P, depth=2).clusters
        assert (cluster.exponent, cluster.count) == (1, 40)
        assert {r.coefficient for r in cluster.refinements} == lines
        assert all(r.count == 1 for r in cluster.refinements)

    run_timed(capsys, "depth-2 clusters on forty lines", 1.0, body)


def test_timed_depth_four_clusters_on_forty_lines(capsys):
    # limit fixed before the first run; each refinement refines only the
    # edges above the exponent it shears by, so the 40 simple branches
    # are not refined again under each other's shears
    P = parse(P40)
    lines = {Fraction(i + 1, i) for i in range(1, 41)}

    def body():
        (cluster,) = top_clusters(P, depth=4).clusters
        assert {r.coefficient for r in cluster.refinements} == lines
        assert all(r.sub == ClusterLevel(0, 1) for r in cluster.refinements)

    run_timed(capsys, "depth-4 clusters on forty lines", 2.0, body)


def test_timed_depth_two_clusters_and_roots_of_thirty_lines(capsys):
    # u has leading coefficient 30!, so each isolating interval is narrowed
    # below 1/30! by the sign of u, not by its 31-row Sturm chain
    P = parse("*".join(f"({i}*x2 - {i + 1}*x1)" for i in range(1, 31)))
    lines = {Fraction(i + 1, i) for i in range(1, 31)}

    def body():
        (cluster,) = top_clusters(P, depth=2).clusters
        assert (cluster.exponent, cluster.count) == (1, 30)
        assert sorted(r.coefficient for r in cluster.refinements) == sorted(lines)
        assert all(r.count == 1 for r in cluster.refinements)
        roots = analyze(P).real_roots
        assert len(roots) == 30 and {root.value for root in roots} == lines

    run_timed(capsys, "depth-2 clusters and real roots of thirty lines", 2.0, body)


def test_timed_report_on_degree_32_form_with_64_bit_coefficients(capsys):
    rng = random.Random(7)
    f = BiPoly({(32 - i, i): rng.randint(-2**64, 2**64) for i in range(33)})

    def body():
        assert build_report(f).height == 16

    run_timed(capsys, "report on a degree-32 form with 64-bit coefficients", 1.0, body)


def test_timed_roots_of_degree_33_input_with_32_bit_coefficients(capsys):
    rng = random.Random(31)
    row = [rng.randint(-2**32, 2**32) for _ in range(32)]
    p = UniPoly.from_coeffs(_z_mul(_z_mul(row, [-5, 3]), [-5, 3]))

    def body():
        factors = squarefree_decompose(p)
        assert [(f.degree, j) for f, j in factors] == [(31, 1), (1, 2)]
        assert [count_real_roots(f) for f, _ in factors] == [5, 1]
        assert [[r for _, _, r in exact_real_roots(f)] for f, _ in factors] == [
            [None] * 5, [Fraction(5, 3)]
        ]

    run_timed(capsys, "roots of a degree-33 input with 32-bit coefficients", 1.0, body)
