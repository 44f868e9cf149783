"""Command-line interface: output formats, exit codes and SVG file
emission."""

from __future__ import annotations

import hashlib
import importlib
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from adaptcoord import DecayEstimate, cli, fit_decay, parse, report_from_dict
from adaptcoord.cli import main


ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text_output(capsys):
    code, out, err = run(capsys, "analyze", "(x2 - x1^2)^2 + x1^5")
    assert code == 0
    assert err == ""
    assert "input:           (x2 - x1^2)^2 + x1^5" in out
    assert "vertices:        (0,2) (4,0)" in out
    assert "distance:        4/3" in out
    assert "principal face:  compact-edge" in out
    assert "adapted:         no [edge=yes integer-ratio=yes deep-root=yes]" in out
    assert "witness root:    x2 = 1*x1^2 (multiplicity 2)" in out
    assert "height:          10/7" in out
    assert "jet:             x2 -> x2 + x1^2" in out
    assert "adapted form:    x2^2 + x1^5" in out
    assert "cluster check:   vertices ok, distance ok" in out


def test_analyze_json_round_trips(capsys):
    code, out, _ = run(capsys, "analyze", "(x2 - x1^2)^2 + x1^5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["input"] == "(x2 - x1^2)^2 + x1^5"
    assert data["height"] == "10/7"
    assert data["jet"] == [["1", 2]]
    assert data["adapted_input"] is False
    rep = report_from_dict(data)
    assert rep.input == "(x2 - x1^2)^2 + x1^5"


def test_analyze_no_adapt(capsys):
    code, out, _ = run(capsys, "analyze", "(x2 - x1^2)^2", "--no-adapt")
    assert code == 0
    assert "adaptation:      skipped" in out
    assert "height" not in out


def test_analyze_writes_svg(capsys, tmp_path):
    target = tmp_path / "diagram.svg"
    code, _, _ = run(
        capsys, "analyze", "(x2 - x1^2)^2 + x1^5", "--svg", str(target)
    )
    assert code == 0
    svg = target.read_text(encoding="utf-8")
    assert svg.startswith("<svg")
    assert "d = 4/3" in svg
    assert "d = 10/7" in svg  # second panel with the adapted form


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "x1 + ^2")
    assert code == 2
    assert "error:" in err
    assert "column" in err
    code, _, err = run(capsys, "analyze", "(" * 250 + "x1^2" + ")" * 250)
    assert code == 2
    assert "nested deeper" in err
    for src in ("x1^2 + 2²*x2^2", "x1^2 + x2^²", "x1^2 + ٣*x2^2"):
        code, out, err = run(capsys, "analyze", src)
        assert (code, out) == (2, ""), src
        assert "unexpected character" in err and "column" in err, err


def test_precondition_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "x1 + x2^2")  # order 1 at origin
    assert code == 3
    assert "error:" in err
    code, _, err = run(capsys, "clusters", "(x2*(1 + x1) - x1^2)^2", "--depth", "500")
    assert code == 3
    assert "depth must be between" in err


def test_zero_input_has_one_message(capsys):
    runs = [
        ("analyze", "0"),
        ("analyze", "0", "--no-adapt"),
        ("decay", "0", "--lambda-min", "10", "--lambda-max", "100", "--points", "3"),
    ]
    for argv in runs:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", "error: zero polynomial\n"), argv


def test_iteration_cap_exit_code(capsys):
    code, _, err = run(
        capsys,
        "analyze",
        "(x2 - x1^2 - x1^3 - x1^4 - x1^5)^2",
        "--max-steps",
        "3",
    )
    assert code == 4
    assert "max_steps" in err


def test_clusters_text_and_json(capsys):
    code, out, _ = run(capsys, "clusters", "(x2 - x1^2)^2 + x1^5", "--depth", "2")
    assert code == 0
    assert "exponent 2: 2 root(s)" in out
    assert "coefficient 1: 2 root(s)" in out
    assert "exponent 5/2: 2 root(s)" in out

    code, out, _ = run(
        capsys, "clusters", "(x2 - x1^2)^2 + x1^5", "--depth", "2", "--json"
    )
    data = json.loads(out)
    assert data["clusters"][0]["exponent"] == "2"
    assert data["clusters"][0]["refinements"][0]["coefficient"] == "1"
    sub = data["clusters"][0]["refinements"][0]["sub"]
    assert sub["clusters"][0]["exponent"] == "5/2"


def test_clusters_degenerate_input_exit_code(capsys):
    code, _, err = run(capsys, "clusters", "x1^2 + x1^5")
    assert code == 3
    assert "error:" in err


def test_predict_shear_output(capsys):
    code, out, _ = run(capsys, "predict-shear", "(x2 - x1^2)^2", "1")
    assert code == 0
    assert "first vertex:    (0, 2)" in out
    assert "last vertex:     (0, 2)" in out

    code, out, _ = run(capsys, "predict-shear", "(x2 - x1^2)^2", "1/2", "--json")
    assert code == 0
    assert json.loads(out) == {"first": [0, 2], "last": [4, 0]}


def test_predict_shear_bad_coefficient(capsys):
    code, _, err = run(capsys, "predict-shear", "(x2 - x1^2)^2", "pi")
    assert code == 2
    assert "rational" in err


def test_a_literal_past_the_digit_limit_is_a_usage_error(capsys):
    digits = "1" * 5000
    code, out, err = run(capsys, "analyze", f"x2^2 + {digits}*x1^2")
    assert (code, out) == (2, "")
    assert "5000 digits" in err and "set_int_max_str_digits" not in err
    code, out, err = run(capsys, "predict-shear", "(x2 - x1^2)^2", digits)
    assert (code, out) == (2, "")
    assert f"at most {sys.get_int_max_str_digits()} digits" in err
    assert digits not in err


def test_predict_shear_refuses_inputs_without_an_integer_weight(capsys):
    code, out, err = run(capsys, "predict-shear", "x1*x2", "1")
    assert (code, out) == (3, "")
    assert err == "error: a single monomial does not determine the weight\n"
    code, out, err = run(capsys, "predict-shear", "x2^2 + x1^3 + x1*x2^2", "1")
    assert (code, out) == (3, "")
    assert err == "error: support is not on one positively-weighted line\n"


def test_decay_text_output(capsys):
    code, out, _ = run(
        capsys,
        "decay",
        "x1^2 + x2^2",
        "--lambda-min",
        "10",
        "--lambda-max",
        "300",
        "--points",
        "5",
    )
    assert code == 0
    assert "fitted exponent:" in out
    assert "exact 1/h:       1 = 1.0000" in out


def test_decay_json_output(capsys):
    code, out, _ = run(
        capsys,
        "decay",
        "x1^2 + x2^2",
        "--lambda-min",
        "10",
        "--lambda-max",
        "300",
        "--points",
        "5",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["reference_exponent"] == "1"
    assert len(data["lambdas"]) == 5
    assert data["fitted_log_power"] in (0, 1)
    assert data["fitted_exponent"] == pytest.approx(1.0, abs=0.3)


CLUSTERS_DEPTH_3_JSON = """{
  "clusters": [
    {
      "count": 2,
      "exponent": "2",
      "refinements": [
        {
          "coefficient": "1",
          "count": 2,
          "sub": {
            "clusters": [
              {
                "count": 2,
                "exponent": "5/2",
                "refinements": [],
                "unresolved": 2
              }
            ],
            "nu1": 0,
            "nu2": 0
          }
        }
      ],
      "unresolved": 0
    }
  ],
  "nu1": 0,
  "nu2": 0
}
"""
PREDICT_SHEAR_JSON = """{
  "first": [
    0,
    2
  ],
  "last": [
    4,
    0
  ]
}
"""


def test_clusters_and_predict_shear_json_are_pinned(capsys):
    runs = [
        (["clusters", "(x2 - x1^2)^2 + x1^5", "--depth", "3"], CLUSTERS_DEPTH_3_JSON),
        (["predict-shear", "(x2 - x1^2)^2", "1/2"], PREDICT_SHEAR_JSON),
    ]
    for argv, text in runs:
        assert run(capsys, *argv, "--json") == (0, text, ""), argv
    # 80 lines: the chain of exponents 2, 3, 4, 5, 6 under coefficients
    # 1, -1, 1, -1, two roots deep, ending in no refinement
    argv = ["clusters", "(x2*(1 + x1) - x1^2)^2", "--depth", "5", "--json"]
    code, out, err = run(capsys, *argv)
    assert (code, err, out.count("\n")) == (0, "", 80)
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "a0b3d5e342c1251e68c00e8d49da4274104bdb441c7951175a00e9edfb341d40"


def test_decay_json_keys_are_the_fit_fields(capsys):
    argv = ["decay", "x2^2 - x1^3", "--lambda-min", "10", "--lambda-max", "1e3"]
    code, out, err = run(capsys, *argv, "--points", "5", "--json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    reference = {"reference_exponent", "reference_exponent_float"}
    assert set(data) == {*DecayEstimate._fields, *reference}
    est = fit_decay(parse("x2^2 - x1^3"), 10.0, 1e3, points=5)
    # floats are written by repr, so they read back exactly
    assert {k: data[k] for k in DecayEstimate._fields} == {
        "lambdas": list(est.lambdas),
        "magnitudes": list(est.magnitudes),
        "fitted_exponent": est.fitted_exponent,
        "fitted_log_power": est.fitted_log_power,
        "residual": est.residual,
    }
    assert (data["reference_exponent"], data["reference_exponent_float"]) == ("5/6", 5 / 6)


@pytest.mark.parametrize(
    "lambda_max, points, text",
    [
        (
            "1e4",
            "7",
            "lambda range:    10 .. 10000 (7 points)\n"
            "fitted exponent: 0.4987\n"
            "log power:       0\n"
            "residual (rms):  0.0085\n"
            "exact 1/h:       1/2 = 0.5000\n",
        ),
        (
            "1e3",
            "5",
            "lambda range:    10 .. 1000 (5 points)\n"
            "fitted exponent: 0.4972\n"
            "log power:       0\n"
            "residual (rms):  0.0096\n"
            "exact 1/h:       1/2 = 0.5000\n",
        ),
    ],
)
def test_decay_text_is_pinned(capsys, lambda_max, points, text):
    # the order of summation in the quadrature moves the fit by about
    # 1e-15; every printed figure is at least 2.6e-5 from a rounding
    # boundary, so the text does not move with it
    argv = ["decay", "(x2 - x1^2)^2", "--lambda-min", "10", "--lambda-max", lambda_max]
    code, out, err = run(capsys, *argv, "--points", points)
    assert (code, out, err) == (0, text, "")


def test_decay_radius_defaults_to_the_module_constant(monkeypatch):
    from adaptcoord.oscillatory import DEFAULT_RADIUS

    argv = ["decay", "x2^2 - x1^3", "--lambda-min", "10", "--lambda-max", "1e3", "--points", "5"]
    assert cli._build_parser().parse_args(argv).radius == DEFAULT_RADIUS
    # the parser reads the constant when it is built, not a copy of its value
    monkeypatch.setattr(cli, "DEFAULT_RADIUS", DEFAULT_RADIUS / 2)
    assert cli._build_parser().parse_args(argv).radius == DEFAULT_RADIUS / 2


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "adaptcoord", "analyze", "x2^2 - x1^3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "height:          6/5" in proc.stdout


def test_unwritable_svg_path_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "out.svg"
    code, out, err = run(
        capsys, "analyze", "(x2 - x1^2)^2 + x1^5", "--svg", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert str(target) in err
    assert not target.exists()


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_max_steps_below_one_is_a_precondition_error(capsys, steps):
    decay = ["decay", "x2^2 - x1^3", "--lambda-min", "10", "--lambda-max", "1e3"]
    for argv in ([*decay, "--points", "5"], ["analyze", "x2^2 - x1^3"]):
        code, out, err = run(capsys, *argv, "--max-steps", steps)
        assert code == 3, argv
        assert out == ""
        assert "max_steps must be at least 1" in err


NON_FINITE_DECAY_BOUNDS = [
    ["--lambda-max", "inf"],
    ["--lambda-max", "1e400"],
    ["--lambda-max", "1e3", "--radius", "1e300"],
    ["--lambda-max", "1e3", "--radius", "nan"],
    ["--lambda-max", "1e3", "--radius", "inf"],
]
# the later --points overrides the tests' --points 5
DECAY_BOUNDS = [
    (["--grid", "100000"], "grid_n"),
    (["--radius", "1e-300"], "radius"),
    (["--grid", "32"], "grid_n"),
    (["--points", "4"], "points"),
]


@pytest.mark.parametrize("bounds", NON_FINITE_DECAY_BOUNDS)
def test_decay_non_finite_arguments_are_precondition_errors(capsys, bounds):
    argv = ["decay", "x2^2 - x1^3", "--lambda-min", "10", "--points", "5"]
    code, out, err = run(capsys, *argv, *bounds)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_oversized_diagram_is_refused_without_a_file(capsys, tmp_path):
    target = tmp_path / "wide.svg"
    code, out, err = run(capsys, "analyze", "x2^2 + x1^3000", "--svg", str(target))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "MAX_EXTENT" in err and "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("extra, named", DECAY_BOUNDS)
def test_decay_bounds_are_precondition_errors(capsys, extra, named):
    argv = ["decay", "x2^2 - x1^3", "--lambda-min", "10", "--lambda-max", "1e3"]
    code, out, err = run(capsys, *argv, "--points", "5", *extra)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err and "Traceback" not in err


def test_decay_points_above_the_bound_are_a_precondition_error(capsys):
    argv = ["decay", "x2^2 - x1^3", "--lambda-min", "10", "--lambda-max", "1e3"]
    code, out, err = run(capsys, *argv, "--points", "100000")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "points" in err and "Traceback" not in err


def test_refused_decay_arguments_never_reach_the_shear_iteration(capsys, monkeypatch):
    def no_adapt(*args, **kwargs):
        raise AssertionError("adapt ran before the decay arguments were checked")

    monkeypatch.setattr(cli, "adapt", no_adapt)
    base = ["decay", "x2^2 - x1^3", "--lambda-min", "10"]
    bounded = [*base, "--lambda-max", "1e3"]
    refused = [
        *([*base, "--points", "5", *bounds] for bounds in NON_FINITE_DECAY_BOUNDS),
        *([*bounded, "--points", "5", *extra] for extra, _ in DECAY_BOUNDS),
        [*bounded, "--points", "100000"],
    ]
    for argv in refused:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


@pytest.mark.parametrize(
    "script, argv, named",
    [
        ("height_survey", ["--count", "5", "--max-steps", "0"], "max_steps"),
        ("decay_experiment", ["x2^2 - x1^3", "--points", "3"], "points"),
        ("decay_experiment", ["x2^^2"], "expected"),
    ],
)
def test_scripts_report_errors_without_a_traceback(capsys, script, argv, named):
    # scripts/ is on the path: conftest imports the survey's corpus
    assert importlib.import_module(script).main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err


def test_documented_outputs_are_what_the_cli_prints(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sessions = re.findall(r"```text\n\$ adaptcoord ([^\n]*)\n(.*?)```", readme, re.S)
    assert len(sessions) == 2
    for command, text in sessions:
        assert run(capsys, *shlex.split(command)) == (0, text, ""), command
    schema = (ROOT / "docs" / "report_schema.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```json\n(.*?)```", schema, re.S)
    argv = ["analyze", "(x2 - x1^2)^2 + x1^5", "--json"]
    assert run(capsys, *argv) == (0, example, "")
