"""Golden digest of everything `analyze` prints, serializes and draws.

One sha256 over the text report, the JSON and the SVG of every curated
acceptance input, the 500-polynomial corpus and the two certified
(non-terminating) runs, each part followed by a NUL byte.  Any change to
a single output byte changes the digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

from adaptcoord import DEFAULT_MAX_STEPS, build_report, parse, render_svg
from adaptcoord.cli import _print_analysis
from conftest import random_corpus
from test_acceptance import CURATED

CERTIFIED = "(x2*(1 + x1) - x1^2)^2"

GOLDEN_SHA256 = "8761ae174936b15bcbdb85d80189469641f8218fc2674cb8864d2fbfb95639bf"


def _parts(f, source=None, max_steps=None):
    rep = build_report(f, source=source, max_steps=max_steps)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        _print_analysis(rep)
    # the adapted panel is drawn exactly as `adaptcoord analyze --svg` draws it
    second = None
    if rep.adapted_poly is not None and (rep.jet or rep.adapt_axis_swapped):
        second = parse(rep.adapted_poly)
    return text.getvalue(), rep.to_json(), render_svg(f, second)


def _cases():
    for expr in CURATED:
        yield parse(expr), expr, None
    for f in random_corpus(500):
        yield f, None, None
    for cap in (8, DEFAULT_MAX_STEPS):
        yield parse(CERTIFIED), None, cap


def test_outputs_match_the_golden_digest():
    digest = hashlib.sha256()
    for f, source, max_steps in _cases():
        for part in _parts(f, source, max_steps):
            digest.update(part.encode("utf-8") + b"\0")
    assert digest.hexdigest() == GOLDEN_SHA256
