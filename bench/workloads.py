"""The benchmark's workloads: CLI arguments made from a seed, and the grid each must produce.

Each workload is one ``eulerprod`` command as a user types it.  The seed only
moves the grid: it shifts the scan origin by a fraction of one step (and, for
``decay-deep``, picks t in [4.5, 5.5)), so every seed does the same amount of
work on different points.  The reason each workload exists lives in the
``why`` entries of BENCHMARK.json.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: Seed used when none is given on the command line.
DEFAULT_SEED = 1

#: Real-axis scans skip points this close to s = 1 (README: |s - 1| < 0.05).
POLE_GUARD = 0.05


@dataclass(frozen=True)
class Workload:
    """One CLI invocation and what its CSV must contain.

    ``points`` lists the (sigma, t, x) of every CSV row in order.  ``compare``
    names the error the command itself reports: ``real`` (Re value against
    the real reference), ``modulus`` (|value| against |reference|) or
    ``complex`` (|value - reference|).
    """

    name: str
    argv: tuple[str, ...]
    points: tuple[tuple[float, float, int], ...]
    compare: str


def _fraction(name: str, seed: int) -> float:
    """A seeded fraction strictly inside (0, 1), the same for the same seed."""
    return random.Random(f"{name}:{seed}").randrange(1, 1000) / 1000.0


def _grid(lo: float, hi: float, step: float) -> list[float]:
    # The CLI builds grids index-first (lo + i * step), so this reproduces it
    # exactly for the values used here.
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + i * step for i in range(n)]


def real_axis(seed: int) -> Workload:
    x, step, hi = 10**6, 0.005, 2.0
    lo = 0.501 + step * _fraction("real-axis", seed)
    points = tuple(
        (v, 0.0, x) for v in _grid(lo, hi, step) if abs(v - 1.0) >= POLE_GUARD - 1e-12
    )
    argv = ("scan-real", "--x", str(x), "--s-min", repr(lo), "--s-max", repr(hi),
            "--step", repr(step))
    return Workload("real-axis", argv, points, "real")


def line_tall(seed: int) -> Workload:
    x, sigma, step, hi = 10**4, 0.55, 0.02, 100.0
    lo = step * _fraction("line-tall", seed)
    points = tuple((sigma, t, x) for t in _grid(lo, hi, step))
    argv = ("scan-line", "--sigma", repr(sigma), "--t", repr(lo), "--t-max", repr(hi),
            "--step", repr(step), "--x", str(x))
    return Workload("line-tall", argv, points, "modulus")


def decay_deep(seed: int) -> Workload:
    sigma = 0.75
    t = 4.5 + _fraction("decay-deep", seed)
    x_grid = (10**4, 10**5, 10**6, 10**7, 10**8)
    points = tuple((sigma, t, x) for x in x_grid)
    argv = ("decay", "--sigma", repr(sigma), "--t", repr(t),
            "--x-grid", ",".join(str(x) for x in x_grid))
    return Workload("decay-deep", argv, points, "complex")


BUILDERS = {"real-axis": real_axis, "line-tall": line_tall, "decay-deep": decay_deep}


def make(name: str, seed: int) -> Workload:
    """The workload called ``name`` with its inputs drawn from ``seed``."""
    return BUILDERS[name](seed)
