"""Numeric estimation of oscillatory-integral decay rates.

I(lambda) = integral of exp(i*lambda*f(x)) * a(x) over the plane, with a
fixed smooth compactly supported amplitude a.  As lambda grows, |I| decays
like lambda^(-1/h) times a possible log factor, where h is the height of
f; this module estimates the decay exponent from a geometric lambda grid
so the exact engine can be sanity-checked against quadrature.

Everything here is floating point and deterministic for fixed parameters:
a uniform tensor-product midpoint rule over [-radius, radius]^2, with the
per-axis cell count chosen to keep the phase increment per cell small and
capped at 4096.  The amplitude vanishes to infinite order at the edge of
the square, so the integrand is globally smooth and the midpoint rule's
error is driven by phase resolution alone.

The amplitude is separable, a(x) = w(x1) * w(x2), so the sum runs in
real arithmetic.  The coefficient of each x2^k present in f, times
lambda / 2, is evaluated on the x1 nodes once, one power of x1 per
nonzero term.  Then each block of 32 x2 columns builds the half phase
theta / 2 by Horner over those powers of x2 and adds the contractions
w . cos(theta) . w_b and w . sin(theta) . w_b to the real and imaginary
parts, each as a BLAS gemv and a dot, (w @ block) @ w_b.  On a 2-core
x86 machine with numpy 2.4 and one OpenBLAS 0.3.31 thread, the pair
takes 0.18 ms on a 2048 x 128 block, where numpy's einsum("i,ij,j->")
took 0.81 ms, and 0.055 ms against 0.41 ms on a 4096 x 32 block.  The
einsum summed in another order: the magnitudes a fit reads moved by at
most 5e-15 relative.  The sums are the same bytes at 1, 2, 4 or 8
OpenBLAS threads.

cos and sin were nearly all of a block's time: on numpy 2.4 on a
2-core x86 machine with AVX-512, float64 cos and sin each take about
28 ns an element, 30 ms together on 4096 x 128 elements, where tan
takes 1 ms.  So one tan gives both: with t = tan(theta / 2) and
g = 2 / (1 + t^2), cos(theta) = g - 1 and sin(theta) = t * g, within
4e-16 of numpy's own, also where theta / 2 is nearest a pole of tan.
The pair costs about 3.5 ms on 4096 x 128 elements.  The tangent of a
finite float stays far below 1e154 in magnitude (about 2e18 at the
float nearest a pole), so t^2 cannot overflow; an infinite half phase
has a nan tangent, and the sum is refused as not finite.

Every block reuses the same two arrays, t and g, 2 * 4096 * 32 float64
values: 2 MiB at the largest grid, 1 MiB when the x1 rows fold.  On
that machine one core's L2 cache holds 2 MiB, so a folded block stays
in it and an unfolded one just fills it, which is what blocking is for
(Goto and van de Geijn 2008).  Blocks of 128 columns held 8 MiB: a fit
over lambda from 10 to 1e4 on (x2 - x1^2)^2 took 99 ms with them and
85 ms with blocks of 32, and 16 or 64 columns were no faster.

A parity of f's support folds the sum onto half of the grid.  When
every term x1^j x2^k has j even, or every one has j + k even, row i and
row n - 1 - i of the integrand sum to the same value: f(-x1, x2) =
f(x1, x2) in the first case, and f(-x1, x2) = f(x1, -x2) in the second,
which maps row n - 1 - i onto row i with its columns reversed.  When
every k is even, columns fold the same way.  The midpoint nodes are
symmetric about 0 (xs[n - 1 - i] == -xs[i], exactly when n is a power
of two and otherwise up to one rounding of the radius, 1.1e-16 at
n = 2372 and the default radius) and so is the bump, so the fold
changes the sum only by rounding: the loop runs over the first
ceil(n / 2) nodes of a folded axis with every weight doubled, but the
middle node's on an odd grid, which is its own mirror.  A phase with
none of these parities sums the whole grid.
"""

from __future__ import annotations

import math
from operator import index
from typing import NamedTuple

import numpy as np

from .bipoly import BiPoly
from .errors import GridTooCoarse

DEFAULT_RADIUS = 0.5
MIN_GRID = 256
MAX_GRID = 4096
TARGET_PHASE_PER_CELL = 2.0
# refuse to integrate once the midpoint rule is sampling under pi radians
# per cell per axis with no headroom left
PHASE_PER_CELL_LIMIT = 2.0 * math.pi
LOG_MARGIN = 0.7
# a fit of more lambda points than this is refused before any quadrature
MAX_POINTS = 64
_BLOCK = 32


class DecayEstimate(NamedTuple):
    """Fit of log|I| = intercept - fitted_exponent*log(lam) +
    fitted_log_power*log(log(lam)) over a geometric lambda grid."""

    lambdas: tuple[float, ...]
    magnitudes: tuple[float, ...]
    fitted_exponent: float
    fitted_log_power: int
    residual: float


def bump_profile(t: np.ndarray) -> np.ndarray:
    """C-infinity profile supported on [-1, 1], equal to 1 at 0."""
    out = np.zeros_like(t, dtype=float)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def gradient_bound(f: BiPoly, radius: float) -> float:
    """Upper bound for max(|df/dx1|, |df/dx2|) on the closed square; inf
    when the bound exceeds the float range."""
    b1 = 0.0
    b2 = 0.0
    try:
        for (j, k), n in f.num.items():
            # n / den is the correctly rounded float of the coefficient
            scale = abs(n / f.den) * radius ** (j + k - 1)
            b1 += j * scale
            b2 += k * scale
    except OverflowError:
        return math.inf
    # a term that overflowed to inf leaves 0 * inf = nan in the other sum
    return math.inf if math.isnan(b1 + b2) else max(b1, b2)


def _grid_size(rate: float, radius: float) -> int:
    """Per-axis cell count for a phase changing at most `rate` radians per
    unit length."""
    cells = rate * 2.0 * radius / TARGET_PHASE_PER_CELL
    # an infinite bound asks for the largest grid, which then refuses it
    return MAX_GRID if cells >= MAX_GRID else max(MIN_GRID, math.ceil(cells))


def default_grid_size(f: BiPoly, lam: float, radius: float = DEFAULT_RADIUS) -> int:
    """Per-axis cell count aiming at TARGET_PHASE_PER_CELL radians per
    cell, clamped to [MIN_GRID, MAX_GRID]."""
    return _grid_size(lam * gradient_bound(f, radius), radius)


def _fold(
    xs: np.ndarray, w: np.ndarray, even: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The nodes and weights an axis sums over: all of them, or, when the
    integrand is even along the axis, the first ceil(n/2) with every
    weight doubled but the middle node's on an odd grid."""
    if not even:
        return xs, w
    half = (len(xs) + 1) // 2
    doubled = 2.0 * w[:half]
    if len(xs) % 2:
        doubled[-1] = w[half - 1]
    return xs[:half], doubled


def estimate_integral(
    f: BiPoly,
    lam: float,
    radius: float = DEFAULT_RADIUS,
    grid_n: int | None = None,
) -> complex:
    """Midpoint-rule estimate of the oscillatory integral at one lambda.

    Raises ValueError for a grid_n outside 64..MAX_GRID, before any
    allocation, for a radius so small that the cell area underflows to 0,
    and, once the grid resolves the phase, for a radius so large that the
    cell area overflows.  Raises GridTooCoarse when the requested grid
    cannot resolve the phase (more than PHASE_PER_CELL_LIMIT radians per
    cell per axis, or a gradient bound beyond the float range), and when
    lambda times the phase leaves the float range, so that the sum is not
    finite.  `grid_n` is read through operator.index, so a float raises
    TypeError.
    """
    if f.is_zero:
        raise ValueError("integrand phase must be a nonzero polynomial")
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam!r}")
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    rate = lam * gradient_bound(f, radius)
    grid_n = _grid_size(rate, radius) if grid_n is None else index(grid_n)
    if not 64 <= grid_n <= MAX_GRID:
        raise ValueError(f"grid_n must be in 64..{MAX_GRID}, got {grid_n}")
    cell = 2.0 * radius / grid_n
    area = cell * cell
    if area == 0.0:
        raise ValueError(
            f"radius {radius!r} is too small: the cell area underflows to 0"
        )
    phase_per_cell = rate * cell
    if phase_per_cell > PHASE_PER_CELL_LIMIT:
        raise GridTooCoarse(
            f"{phase_per_cell:.2f} rad per cell at lambda={lam:g}; "
            f"needs more than {grid_n} cells per axis"
        )
    if area == math.inf:
        raise ValueError(
            f"radius {radius!r} is too large: the cell area overflows"
        )
    xs = (np.arange(grid_n) + 0.5) * cell - radius
    w = bump_profile(xs / radius)
    # the parities of f's support that fold an axis, as the module
    # docstring derives
    support = f.num.keys()
    x1, w1 = _fold(
        xs,
        w,
        all(j % 2 == 0 for j, _ in support)
        or all((j + k) % 2 == 0 for j, k in support),
    )
    x2s, w2s = _fold(xs, w, all(k % 2 == 0 for _, k in support))
    # rows[k] is the coefficient of x2^k, a polynomial in x1, evaluated on
    # the x1 nodes once from f's nonzero terms; then Horner runs blockwise
    # over the x2 powers present, highest first, down to x2^0.  A phase
    # past the float range leaves a nan in the sum, refused below.
    re = im = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        rows = {0: np.zeros(len(x1))}
        for (j, k), n in f.num.items():
            rows[k] = rows.get(k, 0.0) + (n / f.den) * x1**j
        ks = sorted(rows, reverse=True)
        # lam / 2 is exact, so Horner builds exactly theta / 2
        cols = [0.5 * lam * rows[k][:, None] for k in ks]
        gaps = [hi - lo for hi, lo in zip(ks, ks[1:])]
        # every block reuses the same two arrays: a fresh pair would be
        # paged in again on each block
        t_block = np.empty((len(x1), _BLOCK))
        g_block = np.empty((len(x1), _BLOCK))
        for start in range(0, len(x2s), _BLOCK):
            x2 = x2s[start : start + _BLOCK]
            w2 = w2s[start : start + _BLOCK]
            t = t_block[:, : len(x2)]
            g = g_block[:, : len(x2)]
            t[:] = cols[0]
            for gap, col in zip(gaps, cols[1:]):
                t *= x2**gap
                t += col
            # t = tan(theta / 2) and g = 2 / (1 + t^2) give cos(theta) =
            # g - 1 and sin(theta) = t * g; tan(inf) is nan
            np.tan(t, out=t)
            np.multiply(t, t, out=g)
            g += 1.0
            np.divide(2.0, g, out=g)
            t *= g
            g -= 1.0
            re += (w1 @ g) @ w2
            im += (w1 @ t) @ w2
    if not math.isfinite(re + im):
        raise GridTooCoarse(
            f"lambda={lam:g} times the phase leaves the float range"
        )
    return complex(re, im) * cell * cell


def _check_fit_arguments(
    lambda_min: float,
    lambda_max: float,
    points: int,
    radius: float,
    grid_n: int | None,
) -> None:
    """Raise ValueError for fit_decay arguments that no phase could make
    good, so a caller can refuse them before any exact work on f; a
    grid_n that is not an integer raises TypeError."""
    if not 0 < lambda_min < lambda_max:
        raise ValueError("need 0 < lambda_min < lambda_max")
    if lambda_max == math.inf:
        raise ValueError("lambda_max must be finite, got inf")
    if points < 5:
        raise ValueError("need at least 5 sample points")
    if points > MAX_POINTS:
        raise ValueError(f"points must be at most {MAX_POINTS}, got {points}")
    if lambda_min <= 1.0:
        raise ValueError("lambda_min must exceed 1 for the log-log model")
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    if grid_n is not None and not 64 <= index(grid_n) <= MAX_GRID:
        raise ValueError(f"grid_n must be in 64..{MAX_GRID}, got {grid_n}")
    # without a grid_n the phase picks the grid: refuse only a radius
    # whose cell area leaves the float range on every grid it could pick
    widest = 2.0 * radius / (grid_n or MIN_GRID)
    narrowest = 2.0 * radius / (grid_n or MAX_GRID)
    if widest * widest == 0.0:
        raise ValueError(
            f"radius {radius!r} is too small: the cell area underflows to 0"
        )
    if narrowest * narrowest == math.inf:
        raise ValueError(
            f"radius {radius!r} is too large: the cell area overflows"
        )


def fit_decay(
    f: BiPoly,
    lambda_min: float,
    lambda_max: float,
    points: int = 7,
    radius: float = DEFAULT_RADIUS,
    grid_n: int | None = None,
) -> DecayEstimate:
    """Fit the decay exponent over a geometric lambda grid.

    The model is log|I| = c - s*log(lam) + r*log(log(lam)) with the log
    power r restricted to {0, 1}; r = 1 is selected only when it shrinks
    the root-mean-square residual below LOG_MARGIN times the plain fit's.
    """
    _check_fit_arguments(lambda_min, lambda_max, points, radius, grid_n)
    ratio = lambda_max / lambda_min
    lambdas = [lambda_min * ratio ** (i / (points - 1)) for i in range(points)]
    mags = [abs(estimate_integral(f, lam, radius, grid_n)) for lam in lambdas]
    if min(mags) <= 0.0:
        raise ValueError("integral magnitude underflowed; shrink lambda_max")
    logl = np.log(np.array(lambdas))
    y = np.log(np.array(mags))
    design = np.column_stack([np.ones_like(logl), -logl])
    fits = {}
    for r in (0, 1):
        target = y - r * np.log(logl)
        sol, *_ = np.linalg.lstsq(design, target, rcond=None)
        rms = float(np.sqrt(np.mean((design @ sol - target) ** 2)))
        fits[r] = (float(sol[1]), rms)
    r = 1 if fits[1][1] < LOG_MARGIN * fits[0][1] else 0
    s, rms = fits[r]
    return DecayEstimate(
        lambdas=tuple(lambdas),
        magnitudes=tuple(mags),
        fitted_exponent=s,
        fitted_log_power=r,
        residual=rms,
    )
