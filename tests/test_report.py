"""Assembled analysis reports and their JSON serialization."""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaptcoord import (
    DEFAULT_MAX_STEPS,
    FaceKind,
    build_report,
    parse,
    report_from_dict,
)
from adaptcoord.adapt import STABILIZATION_WINDOW
from adaptcoord.cli import main
from adaptcoord.errors import IterationCapExceeded
from conftest import analyzable_bipolys, random_corpus, sheared_inputs


def test_report_fields_on_nonadapted_input():
    rep = build_report(parse("(x2 - x1^2)^2 + x1^5"))
    # without an explicit source string the canonical expansion is echoed
    assert rep.input == "x2^2 - 2*x1^2*x2 + x1^4 + x1^5"
    assert (
        build_report(parse("x2^2"), source="raw text", run_adapt=False).input
        == "raw text"
    )
    assert rep.support == ((0, 2), (2, 1), (4, 0), (5, 0))
    assert rep.vertices == ((0, 2), (4, 0))
    assert rep.distance == Fraction(4, 3)
    assert rep.principal_face == (FaceKind.COMPACT_EDGE, ((0, 2), (4, 0)))
    assert rep.principal_weight == (Fraction(1, 4), Fraction(1, 2))
    assert rep.edge_weights == ((Fraction(1, 4), Fraction(1, 2)),)
    assert not rep.adapted_input
    assert rep.adaptedness.witness == (Fraction(1), 2, 2)
    assert rep.status == "terminated"
    assert rep.height == Fraction(10, 7)
    assert rep.jet == ((Fraction(1), 2),)
    assert not rep.jet_truncated
    assert rep.steps == ((2, 2, Fraction(4, 3)),)
    assert rep.adapted_poly == "x2^2 + x1^5"
    assert rep.cluster_check == (True, True)


def test_report_adapted_input_has_empty_jet():
    rep = build_report(parse("x2^2 - x1^3"))
    assert rep.adapted_input
    assert rep.jet == ()
    assert rep.height == rep.distance == Fraction(6, 5)
    assert rep.adapted_poly == "x2^2 - x1^3"


def test_report_skips_adaptation_on_request():
    rep = build_report(parse("(x2 - x1^2)^2 + x1^5"), run_adapt=False)
    assert rep.status == "skipped"
    assert rep.height is None
    assert rep.jet == ()
    assert rep.adapted_poly is None


def test_report_propagates_iteration_cap():
    with pytest.raises(IterationCapExceeded):
        build_report(
            parse("(x2 - x1^2 - x1^3 - x1^4 - x1^5)^2"), max_steps=3
        )


def test_report_cluster_check_none_when_degenerate():
    rep = build_report(parse("x1^2 + x1^5"), run_adapt=False)
    assert rep.cluster_check is None
    assert rep.to_dict()["cluster_check"] is None


def test_json_shape_and_exact_rationals():
    rep = build_report(parse("(x2 - x1^2)^2 + x1^5"))
    data = json.loads(rep.to_json())
    assert data["height"] == "10/7"
    assert data["distance"] == "4/3"
    assert data["jet"] == [["1", 2]]
    assert data["adapted_input"] is False
    assert data["principal_face"]["kind"] == "compact-edge"
    assert data["principal_weight"] == ["1/4", "1/2"]
    assert data["adaptedness"]["witness"]["coefficient"] == "1"
    assert data["steps"][0] == {
        "multiplicity": 2,
        "exponent": 2,
        "distance": "4/3",
    }
    assert data["cluster_check"] == {
        "vertices_match": True,
        "distance_match": True,
    }


def test_json_is_deterministic():
    rep = build_report(parse("(x2 - x1^2)^2 + x1^5"))
    assert rep.to_json() == rep.to_json()
    # keys sorted, so a re-parse and re-dump is stable too
    data = json.loads(rep.to_json())
    assert rep.to_json() == json.dumps(data, indent=2, sort_keys=True)


def _stdlib_json(rep) -> str:
    """The reference bytes for AnalysisReport.to_json."""
    return json.dumps(rep.to_dict(), indent=2, sort_keys=True)


def test_to_json_matches_the_stdlib_encoder_on_the_corpus():
    certified = parse("(x2*(1 + x1) - x1^2)^2")
    reports = [build_report(f) for f in random_corpus(500)]
    reports += [build_report(certified, max_steps=cap) for cap in (8, DEFAULT_MAX_STEPS)]
    skipped = build_report(parse("(x2 - x1^2)^2 + x1^5"), run_adapt=False)
    no_clusters = build_report(parse("x1^3"))
    assert (skipped.status, skipped.height) == ("skipped", None)
    assert no_clusters.cluster_check is None
    reports += [skipped, no_clusters]
    for rep in reports:
        assert rep.to_json() == _stdlib_json(rep), rep.input
        assert report_from_dict(json.loads(rep.to_json())) == rep, rep.input


def test_to_json_matches_the_stdlib_encoder_on_sheared_inputs():
    shapes = set()
    for _, f in sheared_inputs(400):
        rep = build_report(f, max_steps=10)
        assert rep.to_json() == _stdlib_json(rep), rep.input
        assert report_from_dict(json.loads(rep.to_json())) == rep, rep.input
        shapes.add((rep.adapted_input, rep.status, len(rep.steps) > 1))
    # adapted and not, terminated after one and after several shears
    assert {(True, "terminated", False), (False, "terminated", False)} <= shapes
    assert (False, "terminated", True) in shapes


@given(st.text(max_size=40))
@example('say "x" \\ \t\n\x00\x1f\x7f \u00e9 \u2603 \U0001d11e')
@settings(max_examples=100, deadline=None)
def test_to_json_quotes_source_text_like_the_stdlib_encoder(source):
    rep = build_report(parse("(x2 - x1^2)^2 + x1^5"))
    rep = rep._replace(input=source)
    assert rep.to_json() == _stdlib_json(rep)


def test_round_trip_examples():
    for src in [
        "(x2 - x1^2)^2 + x1^5",
        "x2^2 - x1^3",
        "x1^2*x2^2 + x1^5 + x2^5",
        "(x1 - x2^2)^2 + x2^5",
    ]:
        rep = build_report(parse(src))
        assert report_from_dict(json.loads(rep.to_json())) == rep


def test_nonterminating_report_truncates_jet():
    rep = build_report(parse("(x2*(1 + x1) - x1^2)^2"), max_steps=8)
    assert rep.status == "nonterminating-certified"
    assert rep.jet_truncated
    assert rep.height == 2
    assert len(rep.jet) == 8
    data = rep.to_dict()
    assert data["jet_truncated"] is True
    assert data["jet"][0] == ["1", 2]
    assert data["jet"][1] == ["-1", 3]


@given(analyzable_bipolys())
@settings(max_examples=40, deadline=None)
def test_round_trip_randomized(f):
    try:
        rep = build_report(f)
    except IterationCapExceeded:
        rep = build_report(f, run_adapt=False)
    assert report_from_dict(rep.to_dict()) == rep
    assert report_from_dict(json.loads(rep.to_json())) == rep


def _count_calls(monkeypatch, module: str, name: str) -> list:
    """Count calls of adaptcoord.<module>.<name> through every module-level
    binding of it in the package, the way the benchmark's tracer does."""
    original = getattr(sys.modules[f"adaptcoord.{module}"], name)
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key == "adaptcoord" or key.startswith("adaptcoord."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize(
    "expr, max_steps",
    [("(x2 - x1^2)^2 + x1^5", DEFAULT_MAX_STEPS), ("(x2*(1 + x1) - x1^2)^2", 8)],
)
def test_report_analyses_each_polynomial_once(monkeypatch, expr, max_steps):
    verdicts = _count_calls(monkeypatch, "adapt", "_verdict")
    order_checks = _count_calls(monkeypatch, "quasihomog", "_require_order_two")
    hulls = _count_calls(monkeypatch, "newton", "build_polyhedron")
    cluster_calls = _count_calls(monkeypatch, "clusters", "top_clusters")
    rep = build_report(parse(expr), max_steps=max_steps)
    # one verdict on the input, one on each polynomial a shear produced;
    # a shear keeps the order at the origin, so it is checked on the input.
    # A certified run reads its steps off the certificate from the shear
    # where it first holds, STABILIZATION_WINDOW here, and its last
    # polynomial alone gets a verdict from there on
    if rep.status == "terminated":
        assert len(verdicts) == 1 + len(rep.steps)
    else:
        assert len(verdicts) == STABILIZATION_WINDOW + 1
    assert len(order_checks) == 1
    # each verdict builds its polygon once, and the cluster cross-check
    # reads the input verdict's polygon
    assert len(hulls) == len(verdicts)
    assert rep.cluster_check == (True, True)
    assert cluster_calls == []


@pytest.mark.parametrize(
    "expr, hull_builds, order_checks",
    [("(x2 - x1^2)^2 + x1^5", 2, 1), ("(x2*(1 + x1) - x1^2)^2", 4, 1)],
)
def test_analyze_svg_draws_the_run_it_reports(
    monkeypatch, capsys, tmp_path, expr, hull_builds, order_checks
):
    hulls = _count_calls(monkeypatch, "newton", "build_polyhedron")
    parses = _count_calls(monkeypatch, "parsing", "parse")
    checks = _count_calls(monkeypatch, "quasihomog", "_require_order_two")
    verdicts = _count_calls(monkeypatch, "adapt", "_verdict")
    cluster_calls = _count_calls(monkeypatch, "clusters", "top_clusters")
    target = tmp_path / "diagram.svg"
    assert main(["analyze", expr, "--svg", str(target)]) == 0
    capsys.readouterr()
    # one verdict, with one hull, per polynomial of the run that gets one,
    # none for the steps read off a certificate; the cluster oracle and
    # the diagram read the run's hulls, the diagram its adapted polynomial
    assert len(hulls) == len(verdicts) == hull_builds
    assert cluster_calls == []
    assert len(parses) == 1
    assert len(checks) == order_checks
    assert "adapted: d = " in target.read_text()
