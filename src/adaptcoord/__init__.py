"""Exact Newton-polyhedron geometry and adapted coordinates for bivariate
rational polynomials.

The central objects: the Newton polyhedron of f with its distance and
principal face; the adaptedness verdict for the given coordinates; the
shear iteration that raises the distance to the height, with exact
certification when it provably never terminates; root-cluster data as an
independent oracle for the hull; and a numeric decay-rate check for the
oscillatory integral with phase f.
"""

from .adapt import (
    DEFAULT_MAX_STEPS,
    AdaptednessReport,
    AdaptResult,
    AdaptStatus,
    AdaptStep,
    PrincipalRootWitness,
    RootJet,
    adapt,
    check_adapted,
    height,
    shear_step,
)
from .bipoly import (
    BiPoly,
    ShearAxis,
    ShearChange,
    Weight,
    apply_jet,
    apply_shear,
    squarefree_part_x2,
    swap_axes,
    weighted_part,
)
from .clusters import (
    Cluster,
    ClusterLevel,
    Refinement,
    polygon_from_clusters,
    top_clusters,
)
from .errors import (
    AdaptcoordError,
    AlreadyAdapted,
    AxesNotNormalized,
    DegenerateInX2,
    EmptySupport,
    GridTooCoarse,
    InternalInvariantViolation,
    IterationCapExceeded,
    MonomialInput,
    NonIntegerExponent,
    NonIntegerVertex,
    NonvanishingGradient,
    NotQuasiHomogeneous,
    NotSquarefree,
    PolySyntaxError,
    UnknownVariable,
    WrongHomogeneity,
    ZeroPolynomial,
)
from .newton import (
    Face,
    FaceKind,
    HullAnalysis,
    NewtonPolyhedron,
    build_polyhedron,
    distance,
    edge_weight,
    hull_analysis,
    newton_polyhedron,
    principal_face,
    principal_face_weight,
    principal_part,
)
from .oscillatory import (
    DecayEstimate,
    estimate_integral,
    fit_decay,
)
from .parsing import parse
from .quasihomog import (
    QuasiHomogData,
    RealRootDescriptor,
    analyze,
    detect_weight,
    edge_root_polynomial,
    predict_shear_vertices,
    root_structure,
)
from .report import AnalysisReport, build_report, report_from_dict
from .svgdiagram import render_svg
from .unipoly import UniPoly

__version__ = "0.1.0"

__all__ = [
    "AdaptcoordError",
    "AdaptednessReport",
    "AdaptResult",
    "AdaptStatus",
    "AdaptStep",
    "AlreadyAdapted",
    "AnalysisReport",
    "AxesNotNormalized",
    "BiPoly",
    "Cluster",
    "ClusterLevel",
    "DecayEstimate",
    "DEFAULT_MAX_STEPS",
    "DegenerateInX2",
    "EmptySupport",
    "Face",
    "FaceKind",
    "GridTooCoarse",
    "HullAnalysis",
    "InternalInvariantViolation",
    "IterationCapExceeded",
    "MonomialInput",
    "NewtonPolyhedron",
    "NonIntegerExponent",
    "NonIntegerVertex",
    "NonvanishingGradient",
    "NotQuasiHomogeneous",
    "NotSquarefree",
    "PolySyntaxError",
    "PrincipalRootWitness",
    "QuasiHomogData",
    "RealRootDescriptor",
    "Refinement",
    "RootJet",
    "ShearAxis",
    "ShearChange",
    "UniPoly",
    "UnknownVariable",
    "Weight",
    "WrongHomogeneity",
    "ZeroPolynomial",
    "adapt",
    "analyze",
    "apply_jet",
    "apply_shear",
    "build_polyhedron",
    "build_report",
    "check_adapted",
    "detect_weight",
    "distance",
    "edge_root_polynomial",
    "edge_weight",
    "estimate_integral",
    "fit_decay",
    "height",
    "hull_analysis",
    "newton_polyhedron",
    "parse",
    "polygon_from_clusters",
    "predict_shear_vertices",
    "principal_face",
    "principal_face_weight",
    "principal_part",
    "render_svg",
    "report_from_dict",
    "root_structure",
    "shear_step",
    "squarefree_part_x2",
    "swap_axes",
    "top_clusters",
    "weighted_part",
]
