"""Deterministic SVG rendering of the polyhedron diagram."""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from adaptcoord import adapt, distance, newton_polyhedron, parse, render_svg
from adaptcoord import svgdiagram
from adaptcoord.svgdiagram import MAX_EXTENT, PAD, UNIT


def test_svg_is_well_formed_xml():
    svg = render_svg(parse("(x2 - x1^2)^2 + x1^5"))
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


def test_svg_is_byte_deterministic():
    f = parse("(x2 - x1^2)^2 + x1^5")
    assert render_svg(f) == render_svg(f)


def test_svg_marks_geometry():
    svg = render_svg(parse("(x2 - x1^2)^2 + x1^5"))
    assert "d = 4/3" in svg
    assert "stroke-dasharray" in svg  # bisectrix
    assert svg.count("<circle") >= len({(0, 2), (2, 1), (4, 0), (5, 0)})


def test_svg_second_panel_shows_adapted_form():
    f = parse("(x2 - x1^2)^2 + x1^5")
    res = adapt(f)
    single = render_svg(f)
    double = render_svg(f, adapted=res.final_poly)
    assert "d = 10/7" in double
    assert "d = 10/7" not in single
    root = ET.fromstring(double)
    assert float(root.get("width")) > float(ET.fromstring(single).get("width"))


def test_svg_vertex_face_ring():
    svg = render_svg(parse("x1^2*x2^2 + x1^5 + x2^5"))
    assert "d = 2" in svg
    root = ET.fromstring(svg)
    assert root is not None


def test_svg_wide_two_panel_diagram_sits_on_its_lattice():
    # extent above 20 and a fractional d in both panels: beyond the
    # golden corpora, whose extents stop at 11
    f = parse("(x2 - x1^10)^2 + x1^21")
    g = adapt(f).final_poly
    root = ET.fromstring(render_svg(f, adapted=g))
    circles = [c for c in root.iter() if c.tag.endswith("circle")]
    lattice = [c for c in circles if c.get("r") == "1.5"]
    support = [c for c in circles if c.get("r") == "3.5"]
    offset = 0
    for poly, d in ((f, Fraction(20, 11)), (g, Fraction(42, 23))):
        assert distance(newton_polyhedron(poly)) == d
        extent = max(max(max(t) for t in poly.support), math.ceil(d)) + 1
        assert extent > 20
        xs = [f"{offset + PAD + i * UNIT:.2f}" for i in range(extent + 1)]
        ys = [f"{PAD + (extent - i) * UNIT:.2f}" for i in range(extent + 1)]
        n = (extent + 1) ** 2
        panel, lattice = lattice[:n], lattice[n:]
        assert [(c.get("cx"), c.get("cy")) for c in panel] == [
            (x, y) for x in xs for y in ys
        ]
        n = len(poly.support)
        marks, support = support[:n], support[n:]
        assert [(c.get("cx"), c.get("cy")) for c in marks] == [
            (xs[j], ys[k]) for j, k in sorted(poly.support)
        ]
        offset += 2 * PAD + extent * UNIT
    assert lattice == [] and support == []
    assert float(root.get("width")) == offset


def test_svg_refuses_an_extent_past_the_bound():
    # x1^1024 puts the panel's extent at MAX_EXTENT + 1
    f = parse(f"x2^2 + x1^{MAX_EXTENT}")
    with pytest.raises(ValueError, match=f"MAX_EXTENT = {MAX_EXTENT}"):
        render_svg(f)
    with pytest.raises(ValueError, match="adapted diagram extent"):
        render_svg(parse("x2^2 + x1^3"), adapted=f)


def test_svg_extent_bound_is_inclusive(monkeypatch):
    monkeypatch.setattr(svgdiagram, "MAX_EXTENT", 5)
    root = ET.fromstring(render_svg(parse("x2^2 + x1^4")))
    assert float(root.get("width")) == 2 * PAD + 5 * UNIT
    with pytest.raises(ValueError, match="extent 6 exceeds"):
        render_svg(parse("x2^2 + x1^5"))
