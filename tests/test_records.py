"""The result types are immutable NamedTuples: the record contract."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import types
from fractions import Fraction

import pytest

import adaptcoord
from adaptcoord import (
    ShearAxis,
    ShearChange,
    UniPoly,
    Weight,
    adapt,
    build_report,
    check_adapted,
    fit_decay,
    hull_analysis,
    newton_polyhedron,
    parse,
    principal_part,
    top_clusters,
)
from adaptcoord.parsing import _tokenize
from adaptcoord.quasihomog import analyze


def _records() -> dict[str, tuple]:
    """One instance of every record type, most from a pipeline run."""
    f = parse("(x2 - x1^2)^2 + x1^5")
    hull = hull_analysis(newton_polyhedron(f))
    verdict = check_adapted(f)
    result = adapt(f)
    quasi = analyze(principal_part(parse("(x2 - x1^2)^2*(x2^2 - 2*x1^4)")))
    cluster = top_clusters(f, depth=2).clusters[0]
    report = build_report(f)
    records = [
        Weight(1, 2, 3),
        ShearChange(ShearAxis.X2, 1, 2),
        UniPoly.from_coeffs([-2, 0, 1]),
        hull.polyhedron,
        hull.face,
        hull,
        quasi.real_roots[0],
        quasi,
        verdict.witness,
        verdict,
        result.jet,
        result.steps[0],
        result,
        cluster.refinements[0],
        cluster,
        cluster.refinements[0].sub,
        report.adaptedness,
        report.cluster_check,
        report,
        fit_decay(parse("x1^2 + x2^2"), 10.0, 100.0, points=5, grid_n=64),
        _tokenize("x1")[0],
    ]
    return {type(r).__name__: r for r in records}


RECORDS = _records()


def test_every_record_type_has_an_instance():
    assert sorted(RECORDS) == sorted(
        "Weight ShearChange UniPoly NewtonPolyhedron Face HullAnalysis "
        "RealRootDescriptor QuasiHomogData PrincipalRootWitness "
        "AdaptednessReport RootJet AdaptStep AdaptResult Refinement Cluster "
        "ClusterLevel Adaptedness ClusterCheck AnalysisReport DecayEstimate "
        "_Token".split()
    )


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_immutable_without_a_dict(name):
    record = RECORDS[name]
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_replace_gives_a_new_record(name):
    record = RECORDS[name]
    field = record._fields[-1]
    same = record._replace(**{field: getattr(record, field)})
    assert type(same) is type(record)
    assert same == record
    assert same is not record


def test_records_are_tuples():
    w = Weight(q=1, p=2, m=3)
    q, p, m = w
    assert (q, p, m, w[2]) == (1, 2, 3, 3)
    assert w == (1, 2, 3) and hash(w) == hash((1, 2, 3))
    assert repr(w) == "Weight(q=1, p=2, m=3)"
    assert w._replace(m=5) == Weight(1, 2, 5)
    report = RECORDS["AnalysisReport"]
    assert report._replace(input="x").input == "x"


@pytest.mark.parametrize(
    "args, message",
    [
        ((-1, 1, 1), "weights must be non-negative"),
        ((1, -1, 1), "weights must be non-negative"),
        ((0, 0, 1), r"weight \(0, 0\) is not allowed"),
        ((1, 1, 0), "weight denominator must be positive"),
        ((2, 2, 2), r"weight triple \(q, p, m\) must be coprime"),
    ],
)
def test_weight_messages(args, message):
    with pytest.raises(ValueError, match=message):
        Weight(*args)
    # _replace checks the new fields as construction does
    with pytest.raises(ValueError, match=message):
        Weight(1, 1, 1)._replace(q=args[0], p=args[1], m=args[2])


@pytest.mark.parametrize(
    "args, message",
    [
        ((ShearAxis.X2, 0, 1), "shear coefficient must be nonzero"),
        ((ShearAxis.X1, Fraction(0), 2), "shear coefficient must be nonzero"),
        ((ShearAxis.X2, 1, 0), r"shear exponent must be >= 1"),
    ],
)
def test_shear_change_messages(args, message):
    with pytest.raises(ValueError, match=message):
        ShearChange(*args)
    with pytest.raises(ValueError, match=message):
        ShearChange(ShearAxis.X2, 1, 1)._replace(coefficient=args[1], exponent=args[2])


def test_shear_change_coefficient_is_a_fraction():
    shear = ShearChange(ShearAxis.X2, 1, 2)
    assert type(shear.coefficient) is Fraction
    assert shear == ShearChange(axis=ShearAxis.X2, coefficient=Fraction(1), exponent=2)
    assert type(shear._replace(coefficient=3).coefficient) is Fraction
    with pytest.raises(TypeError, match="expected int or Fraction"):
        ShearChange(ShearAxis.X2, 0.5, 2)


def _package_classes() -> list[type]:
    classes = []
    for info in pkgutil.iter_modules(adaptcoord.__path__):
        if info.name == "__main__":
            continue  # importing it runs the command line
        module = importlib.import_module(f"adaptcoord.{info.name}")
        classes += [
            cls
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__
        ]
    return classes


def test_no_package_class_is_a_dataclass():
    classes = _package_classes()
    assert {type(r) for r in RECORDS.values()} <= set(classes)
    assert [c for c in classes if dataclasses.is_dataclass(c)] == []


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_a_slotless_tuple(name):
    cls = type(RECORDS[name])
    assert issubclass(cls, tuple)
    assert cls.__slots__ == ()
    # every class between the record and tuple adds no slots either
    for base in cls.__mro__[: cls.__mro__.index(tuple)]:
        assert vars(base).get("__slots__") == (), base


def test_all_is_the_public_surface_once():
    # __init__.py names each export twice, once imported and once in
    # __all__: the two lists agree, and no name is listed twice
    names = adaptcoord.__all__
    assert len(names) == len(set(names))
    public = {
        n
        for n, v in vars(adaptcoord).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert set(names) == public
