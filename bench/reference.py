"""Reference computations, timed beside the program's operations.

The benchmark runs on shared hosts whose speed swings with their other
tenants: on the 2-core machine it was written on, one fixed computation
took anywhere from 1x to 2x its fastest time within a minute, and a set
of runs could read 25% faster than the set before it.  Both the program
and any fixed computation slow down together, so every timed operation
is scaled by a reference computation timed right next to it:

    scaled = raw * nominal / (mean of the reference before and after)

A scaled time reads as the operation's time on this machine at the
moment its reference took its nominal time.  The references belong to
the benchmark and never call the package, so a change to the program
moves the scaled times and a change of host speed cancels.

A swing does not slow every kind of work alike, so there are three
references, each matched to a kind of operation:
- `warm_sample`, for operations inside the benchmark's process: exact
  rational polynomial arithmetic in plain dicts (the oracle's reference
  shear), the same kind of work as most of the program's kernels;
- `loop_sample`, for the deep cases bound by the trial division in
  `unipoly._divisors`: a loop of small-integer remainders;
- `cold_sample`, for fresh processes: a cold `python -c "import numpy"`,
  the same interpreter start and import as the CLI's.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable

from oracles import reference_shear

# medians of the references on the machine the benchmark was written on
# (Python 3.11.7, numpy 2.4.6, 2 cores), in its faster phases
WARM_NOMINAL_S = 0.0006
LOOP_NOMINAL_S = 0.0015
COLD_NOMINAL_S = 0.14

# 5 x2^4 + 2 x1^2 x2^3 - 3 x1^5 x2 under x2 -> x2 + x1^2, three times
_WARM_BASE = {(0, 4): Fraction(5), (2, 3): Fraction(2), (5, 1): Fraction(-3)}
REPEATS = 3


def _warm_once() -> float:
    t = time.perf_counter()
    g = _WARM_BASE
    for _ in range(3):
        g = reference_shear(g, True, Fraction(1), 2)
    return time.perf_counter() - t


def warm_sample() -> float:
    """Seconds of one in-process reference (median of REPEATS)."""
    return statistics.median(_warm_once() for _ in range(REPEATS))


def _loop_once() -> float:
    t = time.perf_counter()
    s = 0
    for d in range(1, 20001):
        s += 1000003 % d
    return time.perf_counter() - t


def loop_sample() -> float:
    """Seconds of one trial-division reference (median of REPEATS)."""
    return statistics.median(_loop_once() for _ in range(REPEATS))


def cold_sample(env: dict[str, str], cwd: Path) -> float:
    """Seconds of one cold interpreter that imports numpy."""
    t = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import numpy"],
        env=env, cwd=cwd, check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t


class Scaler:
    """Scales raw operation times by a reference sampled after them; the
    reference before them is the previous sample."""

    def __init__(self, sample: Callable[[], float], nominal: float) -> None:
        self.sample = sample
        self.nominal = nominal
        self.prev: float | None = None
        self.samples: list[float] = []

    def prime(self) -> None:
        self.prev = self.sample()
        self.samples.append(self.prev)

    def scale(self, raw: list[float]) -> list[float]:
        r = self.sample()
        self.samples.append(r)
        before = r if self.prev is None else self.prev
        self.prev = r
        k = self.nominal / ((before + r) / 2.0)
        return [t * k for t in raw]

    def scale_one(self, raw: float) -> float:
        return self.scale([raw])[0]


def cold_scaler(env: dict[str, str], cwd: Path) -> Scaler:
    return Scaler(lambda: cold_sample(env, cwd), COLD_NOMINAL_S)


def warm_scaler() -> Scaler:
    return Scaler(warm_sample, WARM_NOMINAL_S)


def loop_scaler() -> Scaler:
    return Scaler(loop_sample, LOOP_NOMINAL_S)

