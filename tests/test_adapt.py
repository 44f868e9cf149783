"""Adaptedness decision and the shear iteration: exact heights, jets,
step traces, and the exact non-termination certificate."""

from __future__ import annotations

import importlib
from fractions import Fraction

import pytest

from adaptcoord import (
    AdaptResult,
    AdaptStatus,
    BiPoly,
    FaceKind,
    ShearAxis,
    ShearChange,
    adapt,
    apply_shear,
    check_adapted,
    distance,
    height,
    newton_polyhedron,
    parse,
    shear_step,
    swap_axes,
)
from adaptcoord.errors import (
    AlreadyAdapted,
    InternalInvariantViolation,
    IterationCapExceeded,
    NonvanishingGradient,
    ZeroPolynomial,
)
from conftest import random_corpus, sheared_by, sheared_inputs
from q_reference import sequential_jet, verdict_loop_adapt

adapt_module = importlib.import_module("adaptcoord.adapt")
newton_module = importlib.import_module("adaptcoord.newton")

# (input, exact height) pairs worked out by hand
HEIGHT_CASES = [
    ("x1^2 + x2^2", Fraction(1)),
    ("x1*x2^2 - x1^3*x2", Fraction(5, 3)),
    ("(x2 - x1^2)^2", Fraction(2)),
    ("(x2 - x1^2)^2 + x1^5", Fraction(10, 7)),
    ("(x2^2 - x1^3)^2", Fraction(12, 5)),
    ("(x2 - x1^2)^2 + x1^6", Fraction(3, 2)),
    ("(x2 - x1^2)^2 + x1^7", Fraction(14, 9)),
    ("x1*(x2 - x1)^2", Fraction(2)),
    ("(x2 - x1^2 - x1^3)^2", Fraction(2)),
    ("(x2 - x1^2 - x1^3)^2 + x1^9", Fraction(18, 11)),
    ("(x2 + 2*x1^2)^2 + x1^7", Fraction(14, 9)),
    ("x2^3 - 3*x1^2*x2 + 2*x1^3", Fraction(2)),
    ("(x2 - x1^2)^3 + x1^10", Fraction(30, 13)),
    ("(x1 - x2^2)^2 + x2^5", Fraction(10, 7)),
]


@pytest.mark.parametrize("src,expected", HEIGHT_CASES)
def test_exact_heights(src, expected):
    assert height(parse(src)) == expected


def test_check_adapted_vertex_face():
    rep = check_adapted(parse("x1^2*x2^2 + x1^5 + x2^5"))
    assert rep.adapted
    assert not rep.condition_a
    assert rep.condition_b  # vertex faces satisfy the ratio condition
    assert not rep.condition_c
    assert rep.witness is None
    assert rep.distance == 2
    assert rep.hull.face.kind is FaceKind.VERTEX
    assert (rep.weight.k1, rep.weight.k2) == (Fraction(1, 4), Fraction(1, 4))


def test_check_adapted_halfline_face():
    rep = check_adapted(parse("x2^2"))
    assert rep.adapted
    assert not rep.condition_a
    assert not rep.condition_b
    assert rep.hull.face.kind is FaceKind.HORIZONTAL_HALFLINE


def test_check_adapted_edge_fractional_ratio():
    rep = check_adapted(parse("x2^2 - x1^3"))
    assert rep.adapted
    assert rep.condition_a
    assert not rep.condition_b  # ratio 3/2 not an integer
    assert rep.distance == Fraction(6, 5)


def test_check_adapted_edge_low_multiplicity():
    # ratio 1, but no root multiplicity exceeds d = 1
    rep = check_adapted(parse("x2^2 - x1^2"))
    assert rep.adapted
    assert rep.condition_a and rep.condition_b and not rep.condition_c


def test_check_adapted_non_adapted_witness():
    rep = check_adapted(parse("(x2 - x1^2)^2 + x1^5"))
    assert not rep.adapted
    assert rep.condition_a and rep.condition_b and rep.condition_c
    assert rep.witness is not None
    assert rep.witness.coefficient == 1
    assert rep.witness.exponent == 2
    assert rep.witness.multiplicity == 2
    assert rep.distance == Fraction(4, 3)


def test_check_adapted_swaps_axes_when_needed():
    rep = check_adapted(parse("(x1 - x2^2)^2 + x2^5"))
    assert rep.axis_swapped
    assert not rep.adapted
    assert rep.witness.exponent == 2  # witness is for the swapped input


def test_boundary_multiplicity_equal_to_distance_is_adapted():
    # principal part x2*(x2 - x1^2)^2 at d = 2: multiplicity 2 = d, not >
    f = parse("(x2 - x1^2)^2 * (x2 - x1^3) + x1^12")
    rep = check_adapted(f)
    assert rep.distance == 2
    assert rep.condition_a and rep.condition_b and not rep.condition_c
    assert rep.adapted


def test_shear_step_increases_distance():
    f = parse("(x2 - x1^2)^2 + x1^5")
    change, g = shear_step(f)
    assert change.coefficient == 1
    assert change.exponent == 2
    assert g == parse("x2^2 + x1^5")
    assert distance(newton_polyhedron(g)) > distance(newton_polyhedron(f))


def test_shear_step_rejects_adapted_input():
    with pytest.raises(AlreadyAdapted):
        shear_step(parse("x2^2 - x1^3"))


def test_shear_step_agrees_with_adapts_first_step():
    inputs = random_corpus(500) + [g for _, g in sheared_inputs(200)]
    sheared = 0
    for f in inputs:
        if check_adapted(f).adapted:
            with pytest.raises(AlreadyAdapted):
                shear_step(f)
            continue
        res = adapt(f, max_steps=10)
        b, m = res.jet.terms[0]
        change, g = shear_step(f)
        assert change == ShearChange(ShearAxis.X2, b, m), f
        assert g == apply_shear(swap_axes(f) if res.axis_swapped else f, change), f
        sheared += 1
    assert sheared == 70


def test_adapt_terminating_trace():
    res = adapt(parse("(x2 - x1^2 - x1^3)^2 + x1^9"))
    assert res.status is AdaptStatus.TERMINATED
    assert res.height == Fraction(18, 11)
    assert res.jet.terms == ((Fraction(1), 2), (Fraction(1), 3))
    assert not res.jet.truncated
    assert not res.axis_swapped
    assert res.final_poly == parse("x2^2 + x1^9")
    assert [s.exponent for s in res.steps] == [2, 3]
    assert [s.multiplicity for s in res.steps] == [2, 2]
    # each step records the distance before its shear
    assert [s.distance for s in res.steps] == [Fraction(4, 3), Fraction(3, 2)]


def test_adapt_applies_jet_consistently():
    f = parse("(x2 - x1^2 + x1^4)^2 + x1^9")
    res = adapt(f)
    assert res.status is AdaptStatus.TERMINATED
    assert sequential_jet(f, res.jet.terms) == res.final_poly
    assert distance(newton_polyhedron(res.final_poly)) == res.height


def test_verdict_does_not_depend_on_orientation():
    # the verdict mirrors f's hull data when it swaps the axes; reading the
    # swapped polynomial itself must give the same normalized verdict
    corpus = random_corpus(200)
    sheared = [
        swap_axes(apply_shear(f, ShearChange(ShearAxis.X2, (-1) ** i * (1 + i % 3), 2)))
        for i, f in enumerate(corpus)
    ]
    swapped_not_adapted = 0
    for f in corpus + sheared:
        rep = check_adapted(f)
        if not rep.axis_swapped:
            continue
        mirror = check_adapted(swap_axes(f))
        assert not mirror.axis_swapped, f
        fields = ("adapted", "condition_a", "condition_b", "condition_c")
        fields += ("distance", "weight", "witness")
        for name in fields:
            assert getattr(rep, name) == getattr(mirror, name), (f, name)
        swapped_not_adapted += not rep.adapted
    assert swapped_not_adapted >= 20


def test_adapt_swapped_input_reports_frame():
    f = parse("(x1 - x2^2)^2 + x2^5")
    res = adapt(f)
    assert res.axis_swapped
    assert res.height == Fraction(10, 7)
    assert sequential_jet(swap_axes(f), res.jet.terms) == res.final_poly


def test_adapt_zero_and_low_order_inputs():
    with pytest.raises(ZeroPolynomial):
        adapt(parse("0"))
    with pytest.raises(NonvanishingGradient):
        adapt(parse("x2 + x1^2"))


def test_adapt_already_adapted_is_a_fixed_point():
    res = adapt(parse("x2^2 - x1^3"))
    assert res.status is AdaptStatus.TERMINATED
    assert res.jet.terms == ()
    assert res.steps == ()
    assert res.height == Fraction(6, 5)
    assert res.final_poly == parse("x2^2 - x1^3")


def test_adapt_exact_cap_boundary_still_terminates():
    # two shears needed; cap exactly two must succeed
    res = adapt(parse("(x2 - x1^2 - x1^3)^2 + x1^9"), max_steps=2)
    assert res.status is AdaptStatus.TERMINATED
    assert res.height == Fraction(18, 11)


def test_nontermination_certificate():
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
    # geometric trace d_k = 2k/(k+1) for the exponent-k step
    for step in res.steps:
        k = step.exponent
        assert step.distance == Fraction(2 * k, k + 1)
        assert step.multiplicity == 2


def test_certificate_is_cap_insensitive():
    small = adapt(parse("(x2*(1 + x1) - x1^2)^2"), max_steps=5)
    assert small.status is AdaptStatus.NONTERMINATING_CERTIFIED
    assert small.height == 2
    assert len(small.jet.terms) == 5


def test_terminating_decoy_is_not_certified():
    # finite jet of length 4; at cap 3 the multiplicities have stabilized
    # but the certificate must refuse (the root is still polynomial)
    with pytest.raises(IterationCapExceeded):
        adapt(parse("(x2 - x1^2 - x1^3 - x1^4 - x1^5)^2"), max_steps=3)
    res = adapt(parse("(x2 - x1^2 - x1^3 - x1^4 - x1^5)^2"), max_steps=8)
    assert res.status is AdaptStatus.TERMINATED
    assert res.height == 2


def test_max_steps_is_read_as_an_index():
    # operator.index refuses a float cap rather than running a step past it;
    # a bool is an int, so True is a cap of 1
    f = parse("(x2*(1 + x1) - x1^2)^2")
    with pytest.raises(TypeError):
        adapt(f, max_steps=2.5)
    with pytest.raises(IterationCapExceeded, match="within 1 shears"):
        adapt(f, max_steps=True)


def test_height_matches_adapt():
    f = parse("(x2 - x1^2)^2 + x1^5")
    assert height(f) == adapt(f).height


def test_adapt_is_deterministic():
    f = parse("(x2*(1 + x1) - x1^2)^2")
    assert adapt(f, max_steps=8) == adapt(f, max_steps=8)


SHEARED_CUBE = sheared_by(
    "(x2*(1 + x1) - x1^2)^3*(x2 + x1)", (ShearAxis.X1, 1, 2), (ShearAxis.X2, 1, 3)
)
SHEARED_TRIPLE = sheared_by(
    "5*x2^4 + 2*x1^2*x2^3",
    (ShearAxis.X2, -1, 2), (ShearAxis.X2, 1, 1), (ShearAxis.X1, 1, 2),
)

# the deep runs of the benchmark at their caps, the sheared cube, a
# certified run with an x1 factor and another factor whose root shares
# the jet's first term, runs whose certificate first holds at the cap
# (the triple at 4, the first input at 3) and runs that reach their cap
# with no certificate
EQUIVALENCE_RUNS = [
    (parse("(x2*(1 + x1) - x1^2)^2"), 64),
    (parse("(x2*(3 + x1) - 2*x1^2)^2"), 24),
    (parse("x2^2 + 10000000000037*x1^2"), 64),
    (SHEARED_TRIPLE, 8),
    (SHEARED_TRIPLE, 4),
    (SHEARED_CUBE, 16),
    (parse("x1*(x2*(1 + x1) - x1^2)^5*(x2 - x1^2 + x1^4)"), 16),
    *((parse("(x2*(1 + x1) - x1^2)^2"), cap) for cap in (1, 2, 3, 4)),
    *((parse("(x2 - x1^2 - x1^3 - x1^4 - x1^5)^2"), cap) for cap in (3, 4, 8)),
]


def _outcome(run, f: BiPoly, max_steps: int) -> AdaptResult | type:
    try:
        return run(f, max_steps)
    except IterationCapExceeded:
        return IterationCapExceeded


def test_adapt_matches_the_verdict_loop():
    # adapt reads the steps of a certified run off the certificate; the
    # reference runs a full verdict at every step and certifies at the cap
    pool = random_corpus(500) + [g for _, g in sheared_inputs(400)]
    runs = EQUIVALENCE_RUNS + [(f, cap) for cap in (3, 4, 10, 64) for f in pool]
    outcomes = {status: 0 for status in AdaptStatus}
    capped = 0
    for f, cap in runs:
        want = _outcome(verdict_loop_adapt, f, cap)
        got = _outcome(adapt, f, cap)
        if want is IterationCapExceeded:
            assert got is IterationCapExceeded, (f, cap)
            capped += 1
            continue
        assert isinstance(got, AdaptResult), (f, cap)
        for name in AdaptResult._fields:
            assert getattr(got, name) == getattr(want, name), (f, cap, name)
        outcomes[want.status] += 1
    assert outcomes[AdaptStatus.NONTERMINATING_CERTIFIED] == 12
    assert capped == 3


def test_certified_run_reads_its_steps_off_the_certificate(monkeypatch):
    calls = {"_verdict": 0, "squarefree_part_x2": 0, "apply_shear": 0, "build_polyhedron": 0}
    for name in calls:
        module = newton_module if name == "build_polyhedron" else adapt_module
        original = getattr(module, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    res = adapt(parse("(x2*(1 + x1) - x1^2)^2"))
    assert res.status is AdaptStatus.NONTERMINATING_CERTIFIED
    assert len(res.steps) == adapt_module.DEFAULT_MAX_STEPS
    # the input, the shears until the multiplicities are stable, the last
    assert calls["_verdict"] <= adapt_module.STABILIZATION_WINDOW + 2
    assert calls["squarefree_part_x2"] == 1
    # one hull per verdict: the read steps build none
    assert calls["build_polyhedron"] == 4
    # the benchmark's sheared triple at cap 8: its certificate holds at
    # step 4, so 3 shears of the product and one of F per jet term, and
    # one hull for each of its 5 verdicts
    for name in calls:
        calls[name] = 0
    res = adapt(SHEARED_TRIPLE, 8)
    assert res.status is AdaptStatus.NONTERMINATING_CERTIFIED
    assert (calls["apply_shear"], calls["build_polyhedron"]) == (11, 5)


def test_the_image_pre_test_decomposes_only_when_a_factor_can_have_the_multiplicity(monkeypatch):
    # no squarefree factor of the start has a multiplicity above the
    # largest of its image at x1 = 2**i; the perturbed powers' images
    # reach 1, 1 and 2 against steps of multiplicity 40, 100 and 60, so
    # they are not decomposed, and the certified start (N = 2, image [2])
    # is, once
    calls = []
    original = adapt_module.squarefree_part_x2

    def counted(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(adapt_module, "squarefree_part_x2", counted)
    base = parse("(x2 - x1 - x1^2 - x1^3)^30 + x1^150")
    for f in (
        parse("(x2 - x1 - x1^2 - x1^3)^40 + x1^200"),
        parse("(x2 - x1 - x1^2 - x1^3)^100 + x1^500"),
        base * base,
    ):
        res = adapt(f)
        assert res.status is AdaptStatus.TERMINATED
        assert res.steps[-1].multiplicity >= 40
        assert calls == []
    res = adapt(parse("(x2*(1 + x1) - x1^2)^2"))
    assert res.status is AdaptStatus.NONTERMINATING_CERTIFIED
    assert len(calls) == 1


def test_certificate_failing_after_it_held_is_an_invariant_violation(monkeypatch):
    # once the certificate holds it holds at every later step; a reading
    # that fails after it held is a broken invariant, not a reason to go
    # back to verdicts
    original = adapt_module._series_term
    state = {"held": False, "failed": False}

    def fails_once_after_holding(G, m_last, bound):
        if state["held"] and not state["failed"]:
            state["failed"] = True
            return None
        term = original(G, m_last, bound)
        state["held"] |= term is not None
        return term

    monkeypatch.setattr(adapt_module, "_series_term", fails_once_after_holding)
    with pytest.raises(InternalInvariantViolation, match="after it held"):
        adapt(parse("(x2*(1 + x1) - x1^2)^2"))
    assert state["failed"]


def _witness(rep, **changes):
    return rep._replace(witness=rep.witness._replace(**changes))


def _verdicts_from_the_second(change):
    """Patch adapt's _verdict so that its n-th report, n >= 2, passes
    through change(report, n)."""

    def patch(monkeypatch):
        original, calls = adapt_module._verdict, []

        def changed(g):
            calls.append(g)
            rep = original(g)
            return rep if len(calls) < 2 else change(rep, len(calls))

        monkeypatch.setattr(adapt_module, "_verdict", changed)

    return patch


def _jet_without_its_last_term(monkeypatch):
    original = adapt_module.apply_jet
    monkeypatch.setattr(adapt_module, "apply_jet", lambda f, jet: original(f, jet[:-1]))


@pytest.mark.parametrize(
    "patch,message",
    [
        (_verdicts_from_the_second(lambda rep, n: rep._replace(axis_swapped=True)), "axis orientation flipped"),
        (_verdicts_from_the_second(lambda rep, n: _witness(rep, exponent=1)), "jet exponents failed to increase"),
        (
            _verdicts_from_the_second(lambda rep, n: _witness(rep, multiplicity=rep.witness.multiplicity + n)),
            "root multiplicity increased",
        ),
        (
            _verdicts_from_the_second(lambda rep, n: rep._replace(distance=rep.distance - 10)),
            "shear failed to increase the distance",
        ),
        (_jet_without_its_last_term, "the last verdict disagrees with the certificate"),
    ],
    ids=["axis-flip", "exponent", "multiplicity", "distance", "last-verdict"],
)
def test_each_loop_invariant_is_checked(monkeypatch, patch, message):
    # a broken step of the shear loop is an InternalInvariantViolation,
    # never a wrong result
    patch(monkeypatch)
    with pytest.raises(InternalInvariantViolation, match=message):
        adapt(parse("(x2*(1 + x1) - x1^2)^2"))


def test_tail_distances_read_off_the_factors(monkeypatch):
    # while the certificate holds, each step's distance is read off the
    # fixed vertex (j_V, N) and the exponent of F's next term; it must be
    # that of the product sheared by the jet so far, one apply_shear per
    # term, and so must the reading checked against the last verdict
    readings: list[tuple[int, Fraction]] = []
    original = adapt_module._Certificate.read

    def recorded(self, jet, steps):
        step = original(self, jet, steps)
        if step is not None:
            readings.append((self.applied, step[1]))
        return step

    monkeypatch.setattr(adapt_module._Certificate, "read", recorded)
    pool = random_corpus(500) + [g for _, g in sheared_inputs(400)]
    runs = EQUIVALENCE_RUNS + [(f, cap) for cap in (10, 64) for f in pool]
    certified = read = 0
    for f, cap in runs:
        readings.clear()
        res = _outcome(adapt, f, cap)
        if res is IterationCapExceeded or res.status is not AdaptStatus.NONTERMINATING_CERTIFIED:
            assert not readings, (f, cap)
            continue
        certified += 1
        read += len(readings)
        g = swap_axes(f) if res.axis_swapped else f
        want = {}
        for t, (b, m) in enumerate(res.jet.terms, 1):
            g = sequential_jet(g, [(b, m)])
            want[t] = distance(newton_polyhedron(g))
            if t < cap:
                assert res.steps[t].distance == want[t], (f, cap, t)
        for t, d in readings:
            assert d == want[t], (f, cap, t)
    assert certified == 10
    assert read >= 100
