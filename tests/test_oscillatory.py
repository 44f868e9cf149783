"""Oscillatory-integral quadrature: bump window, phase-resolution grid
sizing, one-point estimates against a direct meshgrid oracle, and the
decay-exponent fit."""

from __future__ import annotations

import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from adaptcoord import estimate_integral, fit_decay, parse
from adaptcoord.errors import GridTooCoarse
from adaptcoord import oscillatory
from adaptcoord.oscillatory import (
    DEFAULT_RADIUS,
    MAX_GRID,
    MAX_POINTS,
    MIN_GRID,
    bump_profile,
    default_grid_size,
    gradient_bound,
)


def direct_estimate(f, lam, radius, n):
    """Reference quadrature: same midpoint nodes, but the integrand is
    evaluated term by term on a full meshgrid instead of by Horner rows."""
    cell = 2.0 * radius / n
    xs = -radius + cell * (np.arange(n) + 0.5)
    w = bump_profile(xs / radius)
    x1, x2 = np.meshgrid(xs, xs, indexing="ij")
    phase = np.zeros_like(x1)
    for (j, k), c in f.terms().items():
        phase += float(c) * x1**j * x2**k
    vals = np.exp(1j * lam * phase) * np.outer(w, w)
    return complex(vals.sum() * cell * cell)


def test_bump_profile_window():
    ts = np.array([-1.5, -1.0, 0.0, 0.5, 1.0, 2.0])
    vals = bump_profile(ts)
    assert vals[0] == 0.0
    assert vals[1] == 0.0
    assert vals[2] == pytest.approx(1.0)
    assert vals[5] == 0.0
    assert np.all(vals >= 0.0)
    assert np.all(vals <= 1.0)
    sym = bump_profile(np.array([0.3])) - bump_profile(np.array([-0.3]))
    assert abs(sym[0]) < 1e-15


def test_gradient_bound_examples():
    assert gradient_bound(parse("x1^2 + x2^2"), 0.5) == pytest.approx(1.0)
    # d/dx1 of x1^2*x2^2: 2*r^3 = 0.25; symmetric in the axes
    assert gradient_bound(parse("x1^2*x2^2"), 0.5) == pytest.approx(0.25)
    assert gradient_bound(parse("x2^3"), 1.0) == pytest.approx(3.0)


def test_default_grid_size_clamps():
    f = parse("x1^2 + x2^2")
    assert default_grid_size(f, 1.0) == MIN_GRID
    assert default_grid_size(f, 1e9) == MAX_GRID
    mid = default_grid_size(f, 4000.0)
    assert mid == math.ceil(4000.0 * 1.0 * 1.0 / 2.0)
    assert MIN_GRID < mid < MAX_GRID


def test_estimate_matches_direct_meshgrid():
    for src, lam in [("x1^2 + x2^2", 40.0), ("x1^2*x2^2", 25.0),
                     ("x2^2 - x1^3", 15.0)]:
        f = parse(src)
        mine = estimate_integral(f, lam, grid_n=300)
        ref = direct_estimate(f, lam, DEFAULT_RADIUS, 300)
        assert mine == pytest.approx(ref, rel=1e-10, abs=1e-13)


def test_estimate_handles_rational_coefficients():
    f = parse("1/2*x1^2 + 1/3*x2^2")
    mine = estimate_integral(f, 30.0, grid_n=256)
    ref = direct_estimate(f, 30.0, DEFAULT_RADIUS, 256)
    assert mine == pytest.approx(ref, rel=1e-10)


def test_estimate_is_deterministic_and_converged():
    f = parse("x1^2 + x2^2")
    a = estimate_integral(f, 100.0, grid_n=1024)
    b = estimate_integral(f, 100.0, grid_n=1024)
    assert a == b
    c = estimate_integral(f, 100.0, grid_n=2048)
    assert abs(a - c) < 1e-6 * max(1.0, abs(a))


def test_estimate_validation():
    f = parse("x1^2 + x2^2")
    with pytest.raises(ValueError):
        estimate_integral(parse("0"), 10.0)
    with pytest.raises(ValueError):
        estimate_integral(f, 0.0)
    with pytest.raises(ValueError):
        estimate_integral(f, 10.0, radius=-1.0)
    with pytest.raises(ValueError):
        estimate_integral(f, 10.0, grid_n=32)


def test_grid_is_bounded_above():
    # refused before the grid_n x 32 blocks are allocated
    f = parse("x1^2 + x2^2")
    with pytest.raises(ValueError, match=f"64..{MAX_GRID}"):
        estimate_integral(f, 10.0, grid_n=MAX_GRID + 1)


def test_grid_n_is_read_as_an_index():
    # a float grid_n of 100.5 would lay out 101 nodes that are not
    # symmetric about 0, which the fold of the mirrored half assumes
    f = parse("(x2 - x1^2)^2")
    with pytest.raises(TypeError):
        estimate_integral(f, 50.0, grid_n=100.5)
    with pytest.raises(TypeError):
        fit_decay(f, 10.0, 1e3, points=5, grid_n=300.7)


def test_underflowing_cell_area_names_the_radius():
    f = parse("x2^2 - x1^3")
    with pytest.raises(ValueError, match="radius 1e-300"):
        estimate_integral(f, 10.0, radius=1e-300)
    with pytest.raises(ValueError, match="radius"):
        fit_decay(f, 10.0, 1e3, points=5, radius=1e-300)


def test_overflowing_cell_area_names_the_radius():
    # the phase is resolved on 256 cells of width 7.8e297, whose area is inf
    with pytest.raises(ValueError, match="radius 1e\\+300 is too large"):
        estimate_integral(parse("1/10^300*x2"), 10.0, radius=1e300)
    # an unresolved phase is refused first, as too coarse a grid
    with pytest.raises(GridTooCoarse):
        estimate_integral(parse("x2^2 - x1^3"), 10.0, 1e300)


def test_grid_too_coarse_raises():
    with pytest.raises(GridTooCoarse):
        estimate_integral(parse("x1^2 + x2^2"), 1e6, grid_n=64)


def test_non_finite_arguments_are_named():
    f = parse("x2^2 - x1^3")
    for lam, radius, name in [(math.inf, 0.5, "lambda"), (10.0, math.nan, "radius")]:
        with pytest.raises(ValueError, match=name):
            estimate_integral(f, lam, radius)
    with pytest.raises(ValueError, match="lambda_max"):
        fit_decay(f, 10.0, math.inf, points=5)
    # radius**2 overflows a float, and so does 1e200 * radius, which would
    # leave 0 * inf = nan in the x1 sum: either way the bound is infinite
    assert gradient_bound(f, 1e300) == math.inf
    assert gradient_bound(parse("10^200*x2^2 + x1^2"), 1e200) == math.inf
    with pytest.raises(GridTooCoarse):
        estimate_integral(f, 10.0, 1e300)


def test_fit_decay_quadratic_phase():
    est = fit_decay(parse("x1^2 + x2^2"), 10.0, 1000.0, points=5)
    assert est.fitted_log_power == 0
    assert est.fitted_exponent == pytest.approx(1.0, abs=0.2)
    assert len(est.lambdas) == 5
    assert len(est.magnitudes) == 5
    assert all(m > 0 for m in est.magnitudes)
    assert est.residual >= 0.0
    # magnitudes decay along the geometric grid
    assert est.magnitudes[0] > est.magnitudes[-1]


def test_fit_decay_validation():
    f = parse("x1^2 + x2^2")
    with pytest.raises(ValueError):
        fit_decay(f, 10.0, 5.0)
    with pytest.raises(ValueError):
        fit_decay(f, 10.0, 100.0, points=3)
    with pytest.raises(ValueError):
        fit_decay(f, 0.5, 100.0)


@pytest.mark.parametrize("n", [300, 333])
@pytest.mark.parametrize(
    "src, lam",
    [
        ("x1^2 + x2^2", 40.0),
        ("(x2 - x1^2)^2", 60.0),
        ("x2^2 - x1^3", 15.0),
        # sparse, x2-degree 3: one Horner step goes from x2^3 to x2^1
        ("x2^3 + x1^40*x2 + 1/3*x1^200", 30.0),
        # even under (x1, x2) -> (-x1, -x2) only: the x1 rows fold, the
        # x2 columns do not
        ("x1*x2 + x1^3*x2^3", 40.0),
        # no parity: no fold
        ("(x2 - x1^2)^2 + x1^5", 60.0),
    ],
)
def test_partial_last_block_matches_direct_meshgrid(src, lam, n):
    # neither grid is a multiple of the block width, so a narrower last
    # block of x2 columns runs; on the odd grid a folded axis keeps its
    # middle node once
    f = parse(src)
    mine = estimate_integral(f, lam, grid_n=n)
    ref = direct_estimate(f, lam, DEFAULT_RADIUS, n)
    assert mine == pytest.approx(ref, rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("n", [64, 65, 96, 97])
@pytest.mark.parametrize(
    "src",
    [
        # the x1 rows fold, the x2 columns do not
        "(x2 - x1^2)^2",
        # no parity: no fold
        "(x2 - x1^2)^2 + x1^5",
    ],
)
def test_block_edges_match_direct_meshgrid(src, n):
    # neither phase folds its x2 columns, so 64 and 96 end on a full block
    # of 32, 65 and 97 on a block of one column, and on the odd grids the
    # folded x1 axis keeps its middle node once
    f = parse(src)
    mine = estimate_integral(f, 40.0, grid_n=n)
    ref = direct_estimate(f, 40.0, DEFAULT_RADIUS, n)
    assert mine == pytest.approx(ref, rel=1e-10, abs=1e-13)


def test_high_degrees_cost_one_power_per_term():
    # a millionth power underflows to 0 on every node; the x1 rows and
    # the Horner steps in x2 come from the two nonzero terms, not from a
    # million dense coefficients
    sparse = estimate_integral(parse("x2^2 + x1^1000000"), 10.0)
    assert sparse == estimate_integral(parse("x2^2"), 10.0)
    sparse = estimate_integral(parse("x1^2 + x2^1000000"), 10.0)
    assert sparse == estimate_integral(parse("x1^2"), 10.0)


def test_largest_grid_stays_within_its_memory_bound():
    # limit fixed before the first run, when a block held two grid_n x 128
    # float64 arrays (8 MiB at MAX_GRID) next to a few grid_n-long rows;
    # the blocks are now grid_n x 32 and this phase folds its x1 rows, so
    # the two arrays hold 1 MiB
    limit_mb = 24.0
    f = parse("(x2 - x1^2)^2")
    tracemalloc.start()
    try:
        estimate_integral(f, 1e4, grid_n=MAX_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 < limit_mb


def test_unfolded_largest_grid_stays_within_its_memory_bound():
    # limit fixed before the first run: with no parity every x1 row is
    # summed, and the two grid_n x 32 float64 block arrays hold 2 MiB at
    # MAX_GRID next to a few grid_n-long rows; blocks of 128 columns, at
    # 8 MiB, would not fit
    limit_mb = 4.0
    f = parse("(x2 - x1^2)^2 + x1^5")
    tracemalloc.start()
    try:
        estimate_integral(f, 1e4, grid_n=MAX_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 < limit_mb


def test_overflowing_phase_is_refused():
    # lambda / 2 * 10^305 is inf, so the tangent of the half phase, and
    # with it both sums, are nan
    with pytest.raises(GridTooCoarse, match="float range"):
        estimate_integral(parse("10^305 + x1^2 + x2^2"), 1e4)


def test_points_are_bounded_above(monkeypatch):
    f = parse("x1^2 + x2^2")
    est = fit_decay(f, 10.0, 100.0, points=MAX_POINTS, grid_n=64)
    assert len(est.magnitudes) == MAX_POINTS

    def no_quadrature(*args):
        raise AssertionError("quadrature ran before the bound was checked")

    monkeypatch.setattr(oscillatory, "estimate_integral", no_quadrature)
    with pytest.raises(ValueError, match=f"points must be at most {MAX_POINTS}"):
        fit_decay(f, 10.0, 100.0, points=MAX_POINTS + 1)


@pytest.mark.parametrize("turns", [1, 3, Fraction(1, 3)])
def test_constant_shifts_the_estimate_by_its_phase(turns):
    # lam * c = turns * pi as a float; at the origin node, which an odd
    # grid has, the half phase is the float nearest an odd multiple of
    # pi / 2, where tan has a pole, and from there the phase runs across
    # the next poles; both axes fold to 129 = 4 * 32 + 1 nodes, which
    # leaves a last block of one column.
    # A third of a turn rotates by a factor that is not real, which a sine
    # of the wrong sign would not match
    lam = 32.0
    c = turns * Fraction(math.pi) / 32
    g = parse("x1^2 + x2^2")
    shifted = estimate_integral(parse(f"{c} + x1^2 + x2^2"), lam, grid_n=257)
    rotated = cmath.exp(1j * lam * float(c)) * estimate_integral(g, lam, grid_n=257)
    assert shifted == pytest.approx(rotated, rel=1e-12)


def test_phase_of_a_thousand_radians_matches_direct_meshgrid():
    # a phase from 1050 to 1125 radians, so tan reduces arguments far from
    # 0; 333 is no multiple of the block width
    f = parse("7 + x1^2 + x2^2")
    mine = estimate_integral(f, 150.0, grid_n=333)
    ref = direct_estimate(f, 150.0, DEFAULT_RADIUS, 333)
    assert mine == pytest.approx(ref, rel=1e-10, abs=1e-13)
