"""Checks computed apart from the program.

Nothing here calls into adaptcoord: polynomials are plain dicts
(j, k) -> Fraction, and every expected value is either recomputed from
first principles or known in closed form.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from fractions import Fraction
from typing import Iterable

Terms = dict[tuple[int, int], Fraction]


class CheckFailed(AssertionError):
    """An output of the program disagrees with an oracle."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def brute_distance(support: Iterable[tuple[int, int]]) -> Fraction:
    """Newton distance as min over conv(support) of max(t1, t2).

    The objective is convex and piecewise linear, so its minimum over the
    polygon lies on a segment between two support points: at an endpoint
    or where the segment crosses the diagonal.
    """
    pts = sorted(set(support))
    # a point dominated componentwise by another never attains the minimum
    pts = [
        p for p in pts
        if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pts)
    ]
    best = min(Fraction(max(p)) for p in pts)
    for a, p in enumerate(pts):
        for q in pts[a + 1 :]:
            # point q + lam*(p - q), lam in [0, 1]; coordinates meet where
            # q1 - q2 = lam*((p2 - q2) - (p1 - q1))
            den = (p[1] - q[1]) - (p[0] - q[0])
            if den == 0:
                continue
            lam = Fraction(q[0] - q[1], den)
            if 0 < lam < 1:
                best = min(best, q[0] + lam * (p[0] - q[0]))
    return best


def poly_mul(a: Terms, b: Terms) -> Terms:
    out: Terms = {}
    for (j1, k1), c1 in a.items():
        for (j2, k2), c2 in b.items():
            key = (j1 + j2, k1 + k2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {t: c for t, c in out.items() if c}


def poly_add(a: Terms, b: Terms) -> Terms:
    out = dict(a)
    for t, c in b.items():
        out[t] = out.get(t, Fraction(0)) + c
    return {t: c for t, c in out.items() if c}


def reference_shear(f: Terms, along_x2: bool, b: Fraction, m: int) -> Terms:
    """x2 -> x2 + b*x1^m (or x1 -> x1 + b*x2^m) by repeated multiplication
    of the substituted linear form, without binomial coefficients."""
    if along_x2:
        lin: Terms = {(0, 1): Fraction(1), (m, 0): Fraction(b)}
    else:
        lin = {(1, 0): Fraction(1), (0, m): Fraction(b)}
    powers: list[Terms] = [{(0, 0): Fraction(1)}]
    top = max(k if along_x2 else j for j, k in f)
    for _ in range(top):
        powers.append(poly_mul(powers[-1], lin))
    out: Terms = {}
    for (j, k), c in f.items():
        if along_x2:
            mono: Terms = {(j, 0): c}
            out = poly_add(out, poly_mul(mono, powers[k]))
        else:
            mono = {(0, k): c}
            out = poly_add(out, poly_mul(mono, powers[j]))
    return out


def check_report_geometry(rep, brute_d: Fraction, where: str) -> None:
    """Distance against the brute force; h >= d; adapted implies h = d."""
    require(rep.distance == brute_d, f"{where}: distance {rep.distance} != {brute_d}")
    if rep.height is not None:
        require(rep.height >= rep.distance, f"{where}: height below distance")
        if rep.adapted_input:
            require(
                rep.height == rep.distance,
                f"{where}: adapted as given but height != distance",
            )


def check_round_trip(rep, text: str, report_from_dict, where: str) -> None:
    require(
        report_from_dict(json.loads(text)) == rep,
        f"{where}: report_from_dict does not invert to_json",
    )


def check_svg(svg: str, where: str) -> None:
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as e:
        raise CheckFailed(f"{where}: SVG does not parse: {e}") from None
    require(root.tag.endswith("svg"), f"{where}: root element is {root.tag}")


def jet_closed_form(name: str, m: int) -> Fraction:
    """Coefficient of x1^m in the branch x2 = x1^2/(1 + x1) or
    2*x1^2/(3 + x1)."""
    if name == "jet-1+x1":
        return Fraction((-1) ** m)
    if name == "jet-3+x1":
        return Fraction(2, 3) * Fraction(-1, 3) ** (m - 2)
    raise KeyError(name)


def check_deep_jet(name: str, res, max_steps: int) -> None:
    terms = res.jet.terms
    require(res.jet.truncated, f"{name}: jet not truncated")
    require(
        [m for _, m in terms] == list(range(2, max_steps + 2)),
        f"{name}: jet exponents {[m for _, m in terms]}",
    )
    for b, m in terms:
        want = jet_closed_form(name, m)
        require(b == want, f"{name}: b_{m} = {b}, closed form {want}")


def text_field(out: str, label: str) -> str:
    for line in out.splitlines():
        if line.startswith(label + ":"):
            return line.split(":", 1)[1].strip()
    raise CheckFailed(f"no '{label}:' line in output")


def check_decay(out: str, height: Fraction) -> float:
    fitted = float(text_field(out, "fitted exponent"))
    exact = text_field(out, "exact 1/h").split("=")[0].strip()
    require(Fraction(exact) == 1 / height, f"decay: exact 1/h {exact}")
    require(
        abs(fitted - float(1 / height)) <= 0.15,
        f"decay: fitted {fitted} not within 0.15 of {float(1 / height)}",
    )
    return fitted
