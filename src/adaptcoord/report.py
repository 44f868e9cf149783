"""Aggregate analysis results and their JSON form.

An AnalysisReport captures one full pipeline run: hull geometry, the
adaptedness verdict on the input coordinates, the shear iteration's
outcome, and a cross-check of the hull data against the cluster
reconstruction.  All rational values serialize as exact "p/q" strings so
reports round-trip losslessly; the schema is documented in
docs/report_schema.md.  The CLI draws its SVG from the same run the report
is assembled from, so nothing the run produced is computed or parsed again.
"""

from __future__ import annotations

from enum import Enum, EnumMeta
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from types import UnionType
from typing import NamedTuple, get_args, get_origin, get_type_hints

from .adapt import (
    DEFAULT_MAX_STEPS,
    AdaptednessReport,
    AdaptResult,
    AdaptStep,
    PrincipalRootWitness,
    adapt,
    check_adapted,
)
from .bipoly import BiPoly
from .clusters import _clusters, polygon_from_clusters
from .newton import Face, HullAnalysis
from .svgdiagram import _render

IntPair = tuple[int, int]
FracPair = tuple[Fraction, Fraction]


class Adaptedness(NamedTuple):
    """The verdict's three conditions on the principal face, whether it
    was read with the axes swapped, and the root witnessing (c)."""

    condition_a: bool
    condition_b: bool
    condition_c: bool
    axis_swapped: bool
    witness: PrincipalRootWitness | None


class ClusterCheck(NamedTuple):
    """Whether the depth-1 clusters give the verdict's vertices and
    distance."""

    vertices_match: bool
    distance_match: bool


class AnalysisReport(NamedTuple):
    """One run, shaped as its JSON: each key is a field name."""

    input: str
    support: tuple[IntPair, ...]
    vertices: tuple[IntPair, ...]
    distance: Fraction
    principal_face: Face
    principal_weight: FracPair
    edge_weights: tuple[FracPair, ...]
    adapted_input: bool
    adaptedness: Adaptedness
    status: str
    height: Fraction | None
    jet: tuple[tuple[Fraction, int], ...]
    jet_truncated: bool
    adapt_axis_swapped: bool
    steps: tuple[AdaptStep, ...]
    adapted_poly: str | None
    cluster_check: ClusterCheck | None

    def to_dict(self) -> dict:
        return _plain(self)

    def to_json(self) -> str:
        """The bytes of json.dumps(self.to_dict(), indent=2,
        sort_keys=True), written straight from the fixed schema: keys in
        sorted order, each array item from one template at its indent."""
        ad, check, face = self.adaptedness, self.cluster_check, self.principal_face
        witness = "null" if ad.witness is None else _WITNESS % ad.witness
        cluster_check = "null"
        if check is not None:
            cluster_check = _CLUSTER_CHECK % (
                _LITERAL[check.distance_match],
                _LITERAL[check.vertices_match],
            )
        return _REPORT % (
            _LITERAL[self.adapt_axis_swapped],
            _LITERAL[self.adapted_input],
            _string_or_null(self.adapted_poly),
            _LITERAL[ad.axis_swapped],
            _LITERAL[ad.condition_a],
            _LITERAL[ad.condition_b],
            _LITERAL[ad.condition_c],
            witness,
            cluster_check,
            self.distance,
            _array([_WEIGHT % w for w in self.edge_weights], "  "),
            _string_or_null(self.height),
            _quote(self.input),
            _array([_JET_TERM % t for t in self.jet], "  "),
            _LITERAL[self.jet_truncated],
            _quote(face.kind.value),
            _array([_FACE_POINT % p for p in face.points], "    "),
            *self.principal_weight,
            _quote(self.status),
            _array([_STEP % (d, m, n) for n, m, d in self.steps], "  "),
            _array([_POINT % p for p in self.support], "  "),
            _array([_POINT % p for p in self.vertices], "  "),
        )


# json.dumps spells these three apart from int, of which bool is a subclass
_LITERAL = {True: "true", False: "false", None: "null"}

# the item templates of AnalysisReport.to_json, each at its fixed indent;
# a Fraction's str is digits, "-" and "/", so it is quoted as it stands
_POINT = "    [\n      %d,\n      %d\n    ]"
_FACE_POINT = "      [\n        %d,\n        %d\n      ]"
_WEIGHT = '    [\n      "%s",\n      "%s"\n    ]'
_JET_TERM = '    [\n      "%s",\n      %d\n    ]'
_STEP = (
    '    {\n      "distance": "%s",\n      "exponent": %d,\n'
    '      "multiplicity": %d\n    }'
)
_WITNESS = (
    '{\n      "coefficient": "%s",\n      "exponent": %d,\n'
    '      "multiplicity": %d\n    }'
)
_CLUSTER_CHECK = '{\n    "distance_match": %s,\n    "vertices_match": %s\n  }'
_REPORT = """{
  "adapt_axis_swapped": %s,
  "adapted_input": %s,
  "adapted_poly": %s,
  "adaptedness": {
    "axis_swapped": %s,
    "condition_a": %s,
    "condition_b": %s,
    "condition_c": %s,
    "witness": %s
  },
  "cluster_check": %s,
  "distance": "%s",
  "edge_weights": %s,
  "height": %s,
  "input": %s,
  "jet": %s,
  "jet_truncated": %s,
  "principal_face": {
    "kind": %s,
    "points": %s
  },
  "principal_weight": [
    "%s",
    "%s"
  ],
  "status": %s,
  "steps": %s,
  "support": %s,
  "vertices": %s
}"""


def _plain(value: object) -> object:
    """value as JSON data: a record as a dict of its fields, any other
    tuple as a list, a Fraction as its exact string, an Enum as its
    value, anything else as it is."""
    if isinstance(value, tuple):
        if hasattr(value, "_fields"):
            return {k: _plain(v) for k, v in zip(value._fields, value)}
        return [_plain(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Enum):
        return value.value
    return value


_hints = cache(get_type_hints)


def _typed(kind: object, value: object) -> object:
    """The inverse of _plain: value read back as the annotation `kind`.
    A record is built from its fields, a tuple item by item, X | None as
    X; a Fraction and an Enum by their constructors."""
    if value is None:
        return None
    if hasattr(kind, "_fields"):
        hints = _hints(kind)
        return kind(*(_typed(hints[k], value[k]) for k in kind._fields))
    origin, args = get_origin(kind), get_args(kind)
    if origin is tuple:
        kinds = (args[0],) * len(value) if args[-1] is Ellipsis else args
        return tuple(map(_typed, kinds, value))
    if origin is UnionType:
        return _typed(args[0], value)
    if kind is Fraction or isinstance(kind, EnumMeta):
        return kind(value)
    return value


def _array(items: list[str], indent: str) -> str:
    """A JSON array whose items are written, closed at `indent`."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def _string_or_null(value: object) -> str:
    return "null" if value is None else _quote(str(value))


def report_from_dict(data: dict) -> AnalysisReport:
    """Inverse of AnalysisReport.to_dict, exact on all rational fields."""
    return _typed(AnalysisReport, data)


def _cluster_check(f: BiPoly, hull: HullAnalysis) -> ClusterCheck | None:
    """The depth-1 clusters read off the verdict's polygon, checked
    against its vertices and distance; None when f does not involve x2."""
    if f.x2_degree < 1:
        return None
    polygon = hull.polyhedron
    verts, d = polygon_from_clusters(_clusters(f, polygon, 1, Fraction(0)))
    return ClusterCheck(tuple(verts) == polygon.vertices, d == hull.distance)


def _run(
    f: BiPoly, max_steps: int, run_adapt: bool
) -> tuple[AdaptednessReport, AdaptResult | None]:
    """The verdict on f and the shear iteration's result (None with
    run_adapt=False); the verdict is the result's input_check."""
    if not run_adapt:
        return check_adapted(f), None
    result = adapt(f, max_steps)
    return result.input_check, result


def _assemble(
    f: BiPoly,
    source: str | None,
    rep: AdaptednessReport,
    result: AdaptResult | None,
) -> AnalysisReport:
    """The report of one run of _run on f."""
    hull = rep.hull
    text = str(f) if source is None else source
    adapted_poly = None
    if result is not None:
        # an input adapted as given comes back as f itself: format it once
        reuse = source is None and result.final_poly is f
        adapted_poly = text if reuse else str(result.final_poly)
    return AnalysisReport(
        input=text,
        support=tuple(sorted(f.num)),
        vertices=hull.polyhedron.vertices,
        distance=hull.distance,
        principal_face=hull.face,
        principal_weight=(rep.weight.k1, rep.weight.k2),
        edge_weights=tuple((w.k1, w.k2) for w in hull.edge_weights),
        adapted_input=rep.adapted,
        adaptedness=Adaptedness(
            rep.condition_a, rep.condition_b, rep.condition_c, rep.axis_swapped, rep.witness
        ),
        status="skipped" if result is None else result.status.value,
        height=None if result is None else result.height,
        jet=() if result is None else result.jet.terms,
        jet_truncated=False if result is None else result.jet.truncated,
        adapt_axis_swapped=False if result is None else result.axis_swapped,
        steps=() if result is None else result.steps,
        adapted_poly=adapted_poly,
        cluster_check=_cluster_check(f, hull),
    )


def build_report(
    f: BiPoly,
    source: str | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    run_adapt: bool = True,
) -> AnalysisReport:
    """Run the full pipeline on f and assemble the report.

    With run_adapt=False the shear iteration is skipped and the report
    carries status "skipped" with no height; `max_steps` is the cap of
    the shear iteration.  IterationCapExceeded from the iteration
    propagates to the caller.
    """
    return _assemble(f, source, *_run(f, max_steps, run_adapt))


def _diagram(f: BiPoly, rep: AdaptednessReport, result: AdaptResult | None) -> str:
    """The SVG of one run of _run on f, drawn from the run's own hulls: the
    input panel, and the adapted panel when the iteration sheared (an
    axis swap always comes with a shear)."""
    panels = [(f, rep.hull, "input")]
    if result is not None and result.jet.terms:
        panels.append((result.final_poly, result.final_check.hull, "adapted"))
    return _render(panels)
