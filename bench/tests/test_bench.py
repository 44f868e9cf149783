"""Tests of the benchmark itself: its input generator, its oracles on
hand-worked examples, and every workload at a small size.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import adaptcoord as ac  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from oracles import CheckFailed  # noqa: E402


def _suite_conftest():
    spec = importlib.util.spec_from_file_location(
        "suite_conftest", ROOT / "tests" / "conftest.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("offset", [0, 1, 7])
def test_generator_matches_the_suite_corpus(offset):
    suite = _suite_conftest()
    seed = suite.CORPUS_SEED + offset
    assert inputs.CORPUS_SEED == suite.CORPUS_SEED
    assert inputs.corpus_random(offset) == suite.random_corpus(inputs.CORPUS_SIZE, seed)


def test_sheared_corpus_is_a_function_of_the_seed():
    a, left_a = inputs.corpus_sheared(3, n=30)
    b, left_b = inputs.corpus_sheared(3, n=30)
    assert [g for _, _, g in a] == [g for _, _, g in b] and left_a == left_b
    c, _ = inputs.corpus_sheared(4, n=30)
    assert [g for _, _, g in a] != [g for _, _, g in c]
    for f, shears, g in a:
        assert 1 <= len(shears) <= 3
        assert max(j + k for j, k in g.support) <= inputs.SHEARED_MAX_DEGREE
        assert inputs.coeff_bits(g) <= inputs.SHEARED_MAX_COEFF_BITS


def test_sheared_workload_rotates_one_corpus(monkeypatch):
    monkeypatch.setattr(inputs, "SHEARED_SIZE", 12)
    a, left_a = inputs.sheared_workload(0)
    b, left_b = inputs.sheared_workload(5)
    assert left_a == left_b
    assert [g for _, _, g in b] == [g for _, _, g in a[5:] + a[:5]]


@pytest.mark.parametrize(
    "support, want",
    [
        ({(1, 1)}, Fraction(1)),
        ({(0, 2), (2, 0)}, Fraction(1)),
        ({(0, 2), (4, 0)}, Fraction(4, 3)),
        ({(0, 2), (2, 1), (4, 0), (5, 0)}, Fraction(4, 3)),
        ({(1, 2), (3, 1)}, Fraction(5, 3)),
        ({(0, 3), (3, 3), (6, 0)}, Fraction(2)),
        ({(2, 2), (3, 0)}, Fraction(2)),
        ({(0, 5), (1, 5)}, Fraction(5)),
    ],
)
def test_brute_distance_hand_worked(support, want):
    assert oracles.brute_distance(support) == want


def test_brute_distance_agrees_with_the_program():
    for f in inputs.random_corpus(100, 5):
        assert oracles.brute_distance(f.support) == ac.distance(ac.newton_polyhedron(f))


def test_reference_shear_hand_worked():
    one = Fraction(1)
    # x2^2 under x2 -> x2 + x1: x2^2 + 2*x1*x2 + x1^2
    assert oracles.reference_shear({(0, 2): one}, True, one, 1) == {
        (0, 2): one, (1, 1): Fraction(2), (2, 0): one,
    }
    # x1^2 under x1 -> x1 - x2^2: x1^2 - 2*x1*x2^2 + x2^4
    assert oracles.reference_shear({(2, 0): one}, False, -one, 2) == {
        (2, 0): one, (1, 2): Fraction(-2), (0, 4): one,
    }
    # a cancellation: (x2 - x1)*x2 under x2 -> x2 + x1 is x2^2 + x1*x2
    f = {(0, 2): one, (1, 1): -one}
    assert oracles.reference_shear(f, True, one, 1) == {(0, 2): one, (1, 1): one}


def test_jet_closed_forms():
    assert [oracles.jet_closed_form("jet-1+x1", m) for m in (2, 3, 4)] == [1, -1, 1]
    assert [oracles.jet_closed_form("jet-3+x1", m) for m in (2, 3, 4)] == [
        Fraction(2, 3), Fraction(-2, 9), Fraction(2, 27),
    ]


def test_deep_jet_check_rejects_a_wrong_coefficient():
    res = ac.adapt(ac.parse("(x2*(1 + x1) - x1^2)^2"), max_steps=6)
    oracles.check_deep_jet("jet-1+x1", res, 6)
    with pytest.raises(CheckFailed):
        oracles.check_deep_jet("jet-3+x1", res, 6)


def test_decay_and_svg_checks():
    good = "fitted exponent: 0.5400\nexact 1/h:       1/2 = 0.5000\n"
    assert oracles.check_decay(good, Fraction(2)) == pytest.approx(0.54)
    with pytest.raises(CheckFailed):
        oracles.check_decay(good.replace("0.5400", "0.7000"), Fraction(2))
    oracles.check_svg('<svg xmlns="http://www.w3.org/2000/svg"></svg>', "ok")
    with pytest.raises(CheckFailed):
        oracles.check_svg("<svg><rect></svg>", "bad")


def test_scaler_divides_by_the_references_around_an_operation():
    refs = iter([2.0, 4.0, 1.0])
    scaler = reference.Scaler(lambda: next(refs), nominal=3.0)
    scaler.prime()
    # references 2 before and 4 after: mean 3, the nominal, so no change
    assert scaler.scale([1.5, 6.0]) == [1.5, 6.0]
    # references 4 before and 1 after: a slow phase ended, mean 2.5
    assert scaler.scale_one(5.0) == pytest.approx(6.0)
    assert scaler.samples == [2.0, 4.0, 1.0]


def test_references_run():
    assert 0 < reference.warm_sample() < 1.0
    assert 0 < reference.cold_sample({**os.environ}, ROOT) < 30.0


def test_cli_round_spreads_its_decay_runs(tmp_path):
    run = workloads.Run("cli-cold", 0, 1.0, tmp_path)
    forms = [form for form, _, _ in workloads.cli_argvs(run, tmp_path)]
    n = len(inputs.CLI_CASES) * len(inputs.CLI_FORMS)
    assert len(forms) == n + inputs.DECAY_PER_ROUND
    assert forms.count("decay") == inputs.DECAY_PER_ROUND
    assert forms[-1] == "decay" and forms[n // inputs.DECAY_PER_ROUND] == "decay"


def test_trimmed_mean_drops_the_outer_quarters():
    assert workloads.trimmed_mean([1.0, 2.0, 3.0, 10.0]) == 2.5
    assert workloads.trimmed_mean([5.0, 1.0, 2.0, 3.0, 4.0, 100.0]) == 3.5
    assert workloads.trimmed_mean([2.0, 4.0]) == 3.0


def test_percentile_is_nearest_rank():
    xs = [float(v) for v in range(1, 101)]
    assert workloads.percentile(xs, 50.0) == 50.0
    assert workloads.percentile(xs, 99.0) == 99.0


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Workloads at a small size, in a temporary root that links to src."""
    monkeypatch.setattr(inputs, "CORPUS_SIZE", 20)
    monkeypatch.setattr(inputs, "SHEARED_SIZE", 20)
    monkeypatch.setattr(inputs, "DEEP_CASES", inputs.DEEP_CASES[:1])
    monkeypatch.setattr(inputs, "CLI_CASES", inputs.CLI_CASES[:1])
    monkeypatch.setattr(workloads, "MIN_ROUNDS", 2)
    monkeypatch.setattr(workloads, "CLI_MIN_ROUNDS", 1)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(
        workloads, "PROBE_REPEATS", dict.fromkeys(workloads.PROBE_REPEATS, 1)
    )
    monkeypatch.setattr(workloads, "PROBE_SAMPLES", dict.fromkeys(workloads.PROBE_SAMPLES, 1))
    (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_end_to_end_small(small, name):
    out = workloads.run_workload(name, 1, 0.01, False, small)
    assert out["correct"]
    names = {k for k, _ in workloads.PER_LAYER}
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(out["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert not names & set(out["metrics"])
    assert all(v["value"] > 0 for v in out["metrics"].values())
    if name == "deep-jet":
        # one failing operation per round of len(DEEP_CASES) + 1
        assert out["failed"] * (len(inputs.DEEP_CASES) + 1) == out["attempted"]
    else:
        assert out["failed"] == 0


@pytest.mark.parametrize("name", ["corpus-sheared", "cli-cold"])
def test_workload_traced_small(small, name):
    out = workloads.run_workload(name, 2, 0.01, True, small)
    assert out["correct"]
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(out["metrics"]) == {m["name"] for m in bench["per_layer"]}
    m = {k: v["value"] for k, v in out["metrics"].items()}
    if name == "corpus-sheared":
        assert m["bipoly.apply_shear.calls"] > 0
        assert m["report.hull_builds_per_report"] > 0
    else:
        assert m["cli.import_ms"] > 0 and m["oscillatory.estimate_integral.cells"] > 0
    assert (small / ".bench_build" / "traces" / f"{name}-seed2.tsv").is_file()


def test_run_offers_every_workload():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS) == names


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "deep-jet", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
