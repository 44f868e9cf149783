"""Deterministic SVG rendering of Newton polyhedra.

One panel per polynomial: lattice dots, the shaded polyhedron with its
staircase boundary, the dashed bisectrix t1 = t2, support and vertex
markers, the principal face stroked bold, and the distance point.  Output
is a pure function of the input, byte for byte, so diagrams can be kept
as golden files.  A panel draws (extent + 1)^2 lattice dots, so an extent
above MAX_EXTENT is refused before anything is drawn.
"""

from __future__ import annotations

import math

from .bipoly import BiPoly
from .newton import FaceKind, HullAnalysis, hull_analysis, newton_polyhedron

UNIT = 40
PAD = 46
MAX_EXTENT = 1024
_DOT_END = '" r="1.5" fill="#c9c9c9"/>'


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Panel:
    def __init__(self, f: BiPoly, hull: HullAnalysis, offset_x: int, label: str):
        self.f = f
        self.hull = hull
        self.d = hull.distance
        self.face = hull.face
        support_max = max(map(max, f.num))
        self.extent = m = max(support_max, math.ceil(self.d)) + 1
        if m > MAX_EXTENT:
            raise ValueError(
                f"{label} diagram extent {m} exceeds svgdiagram.MAX_EXTENT = "
                f"{MAX_EXTENT}"
            )
        self.offset_x = offset_x
        self.label = label
        self.side = 2 * PAD + m * UNIT
        # every lattice coordinate drawn lies in 0..extent: format each
        # once; they are integers, so ".00" is their ".2f" form
        self.xs = [f"{offset_x + PAD + i * UNIT}.00" for i in range(m + 1)]
        self.ys = [f"{PAD + (m - i) * UNIT}.00" for i in range(m + 1)]

    def render(self) -> list[str]:
        out: list[str] = []
        xs, ys, m = self.xs, self.ys, self.extent
        # shaded region: staircase closed off at the panel's far corner
        verts = self.hull.polyhedron.vertices
        stairs = [(verts[0][0], m), *verts, (m, verts[-1][1])]
        path = " ".join(f"{xs[a]},{ys[b]}" for a, b in stairs)
        out.append(
            f'<polygon points="{path} {xs[m]},{ys[m]}" fill="#dce8f5" stroke="none"/>'
        )
        # lattice and axes: one string per column, its dots joined by a
        # separator that carries the column's cx
        for x in xs:
            dot = f'<circle cx="{x}" cy="'
            out.append(dot + f"{_DOT_END}\n{dot}".join(ys) + _DOT_END)
        out.append(
            f'<line x1="{xs[0]}" y1="{ys[0]}" x2="{xs[m]}" '
            f'y2="{ys[0]}" stroke="#444444" stroke-width="1"/>'
        )
        out.append(
            f'<line x1="{xs[0]}" y1="{ys[0]}" x2="{xs[0]}" '
            f'y2="{ys[m]}" stroke="#444444" stroke-width="1"/>'
        )
        # bisectrix
        out.append(
            f'<line x1="{xs[0]}" y1="{ys[0]}" x2="{xs[m]}" '
            f'y2="{ys[m]}" stroke="#888888" stroke-width="1" '
            'stroke-dasharray="5 4"/>'
        )
        # boundary staircase
        out.append(
            f'<polyline points="{path}" fill="none" stroke="#333333" '
            'stroke-width="2"/>'
        )
        # principal face, bold
        kind = self.face.kind
        if kind is FaceKind.VERTEX:
            (j, k) = self.face.points[0]
            out.append(
                f'<circle cx="{xs[j]}" cy="{ys[k]}" r="7" fill="none" '
                'stroke="#c0392b" stroke-width="3.5"/>'
            )
        else:
            if kind is FaceKind.COMPACT_EDGE:
                (j1, k1), (j2, k2) = self.face.points
            elif kind is FaceKind.HORIZONTAL_HALFLINE:
                (j1, k1) = self.face.points[0]
                (j2, k2) = (m, k1)
            else:
                (j1, k1) = self.face.points[0]
                (j2, k2) = (j1, m)
            out.append(
                f'<line x1="{xs[j1]}" y1="{ys[k1]}" x2="{xs[j2]}" '
                f'y2="{ys[k2]}" stroke="#c0392b" stroke-width="4" '
                'stroke-linecap="round"/>'
            )
        # support and vertices
        for j, k in sorted(self.f.num):
            out.append(f'<circle cx="{xs[j]}" cy="{ys[k]}" r="3.5" fill="#20639b"/>')
        for j, k in verts:
            out.append(
                f'<circle cx="{xs[j]}" cy="{ys[k]}" r="4.5" fill="#ffffff" '
                'stroke="#20639b" stroke-width="2"/>'
            )
        # distance point and caption
        d = float(self.d)
        out.append(
            f'<circle cx="{_fmt(self.offset_x + PAD + d * UNIT)}" '
            f'cy="{_fmt(PAD + (m - d) * UNIT)}" r="4" fill="#c0392b"/>'
        )
        caption = f"{self.label}: d = {self.d}"
        out.append(
            f'<text x="{xs[0]}" y="{_fmt(self.side - 12)}" '
            f'font-family="monospace" font-size="14" fill="#222222">{caption}</text>'
        )
        return out


def _render(panels: list[tuple[BiPoly, HullAnalysis, str]]) -> str:
    """SVG of one panel per (polynomial, its hull, label), left to right.
    Raises ValueError, before drawing, when a panel's extent exceeds
    MAX_EXTENT."""
    laid_out: list[_Panel] = []
    width = 0
    for f, hull, label in panels:
        laid_out.append(_Panel(f, hull, width, label))
        width += laid_out[-1].side
    height = max(p.side for p in laid_out)
    body: list[str] = []
    for p in laid_out:
        body.extend(p.render())
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    background = f'<rect width="{width}" height="{height}" fill="#ffffff"/>'
    return "\n".join([head, background, *body, "</svg>"]) + "\n"


def render_svg(f: BiPoly, adapted: BiPoly | None = None) -> str:
    """SVG for f's Newton polyhedron, plus a second panel when a
    post-adaptation polynomial is supplied."""
    panels = [(f, hull_analysis(newton_polyhedron(f)), "input")]
    if adapted is not None:
        panels.append((adapted, hull_analysis(newton_polyhedron(adapted)), "adapted"))
    return _render(panels)
