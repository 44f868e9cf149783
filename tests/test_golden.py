"""Golden digest of everything `analyze` prints, serializes and draws.

One sha256 over the text report, the JSON and the SVG of every curated
acceptance input, the 500-polynomial corpus and the two certified
(non-terminating) runs, each part followed by a NUL byte.  Any change to
a single output byte changes the digest.  A second digest does the same
for 200 seeded inputs with rational coefficients, most of them sheared
by a rational b, together with their terms.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from fractions import Fraction
from random import Random

from adaptcoord import (
    DEFAULT_MAX_STEPS,
    BiPoly,
    ShearAxis,
    ShearChange,
    apply_shear,
    build_report,
    parse,
    render_svg,
)
from adaptcoord.cli import _print_analysis
from adaptcoord.report import _assemble, _diagram, _run
from conftest import random_corpus, sheared_inputs
from test_acceptance import CURATED

CERTIFIED = "(x2*(1 + x1) - x1^2)^2"

GOLDEN_SHA256 = "8761ae174936b15bcbdb85d80189469641f8218fc2674cb8864d2fbfb95639bf"


def _parts(f, source=None, max_steps=DEFAULT_MAX_STEPS):
    # one run, reported and drawn exactly as `adaptcoord analyze --svg` does
    check, result = _run(f, max_steps, True)
    rep = _assemble(f, source, check, result)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        _print_analysis(rep)
    return text.getvalue(), rep.to_json(), _diagram(f, check, result)


def _cases():
    for expr in CURATED:
        yield parse(expr), expr, DEFAULT_MAX_STEPS
    for f in random_corpus(500):
        yield f, None, DEFAULT_MAX_STEPS
    for cap in (8, DEFAULT_MAX_STEPS):
        yield parse(CERTIFIED), None, cap


def _public_svg(f, max_steps):
    """The diagram through the public names only: build_report, then
    render_svg of the parsed adapted form when the run sheared."""
    rep = build_report(f, max_steps=max_steps)
    if rep.adapted_poly is not None and (rep.jet or rep.adapt_axis_swapped):
        return render_svg(f, parse(rep.adapted_poly))
    return render_svg(f)


def _equality_cases():
    for expr in CURATED:
        yield parse(expr), DEFAULT_MAX_STEPS
    for f in random_corpus(500):
        yield f, DEFAULT_MAX_STEPS
    for _, f in sheared_inputs(200):
        yield f, 10
    for cap in (8, DEFAULT_MAX_STEPS):
        yield parse(CERTIFIED), cap


def test_run_diagram_matches_the_public_path():
    for f, max_steps in _equality_cases():
        check, result = _run(f, max_steps, True)
        assert _diagram(f, check, result) == _public_svg(f, max_steps), str(f)


def test_outputs_match_the_golden_digest():
    digest = hashlib.sha256()
    for f, source, max_steps in _cases():
        for part in _parts(f, source, max_steps):
            digest.update(part.encode("utf-8") + b"\0")
    assert digest.hexdigest() == GOLDEN_SHA256


# A second digest over rational coefficients and rational shears, so the
# denominators in the text, JSON, SVG and terms are pinned byte for byte.
RATIONAL_SHA256 = "5eb7396a6da43ffdac37bc0faa5616e8c17f93138ade74cf8982dec9432a541b"


def _rational(rng, top):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, top), rng.randint(1, 4))


def _rational_corpus(n: int = 200, seed: int = 20071004):
    rng = Random(seed)
    out = []
    while len(out) < n:
        terms = {}
        for _ in range(rng.randint(2, 6)):
            total = rng.randint(2, 8)
            j = rng.randint(0, total)
            terms[(j, total - j)] = _rational(rng, 6)
        f = BiPoly(terms)
        if f.is_zero or f.x2_degree < 1 or f.origin_order < 2:
            continue
        if rng.random() < 0.7:
            axis = rng.choice([ShearAxis.X2, ShearAxis.X1])
            m = rng.randint(1, 3)
            f = apply_shear(f, ShearChange(axis, _rational(rng, 3), m))
            if axis is ShearAxis.X2 and rng.random() < 0.4:
                f = apply_shear(f, ShearChange(axis, _rational(rng, 3), m + 1))
        out.append(f)
    return out


def test_rational_outputs_match_their_digest():
    digest = hashlib.sha256()
    for f in _rational_corpus():
        for part in (*_parts(f, None, 12), repr(sorted(f.terms().items()))):
            digest.update(part.encode("utf-8") + b"\0")
    assert digest.hexdigest() == RATIONAL_SHA256
