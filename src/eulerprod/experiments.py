"""Grid scans and error-decay measurements for corrected Euler products.

Scans sweep s along the real axis or up a vertical line, comparing the
corrected product against the independent zeta reference at every grid
point.  Decay experiments measure how the absolute error shrinks as the
truncation x grows and fit the exponent, which should land near 1/2 - sigma.
Both evaluate the corrected product at EXPERIMENT_ORDER.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, EulerProductError, InsufficientDataError
from .primes import PrimeTable, sieve
from .product import Evaluation, ProductVariant, corrected_product
from .specfun import BranchSide
from .zetaref import DEFAULT_CONFIG, ZetaRefConfig

#: Real-axis scans skip grid points closer than this to the pole at s = 1.
POLE_GUARD = 0.05

#: Correction order of every scan and decay fit: the paper's E1 factor plus
#: the prime-square term on 1/2 < Re(s) < 1 (see eulerprod.product).
EXPERIMENT_ORDER = 2

#: Errors below this are indistinguishable from double-precision noise and
#: are dropped from decay fits.
ERROR_NOISE_FLOOR = 1e-14


class ScanMode(Enum):
    REAL_AXIS = "real-axis"
    VERTICAL_LINE = "vertical-line"


@dataclass(frozen=True)
class ScanSpec:
    """Grid description for a scan.

    RealAxis mode sweeps real s from s_min to s_max; VerticalLine mode fixes
    sigma and sweeps t from t_min to t_max.  ``step`` must be positive and
    the range nonempty (equal endpoints give a single point).  Step, sigma
    and bounds must be finite.
    """

    mode: ScanMode
    x: int
    step: float
    variant: ProductVariant = ProductVariant.ZETA
    cut: BranchSide = BranchSide.FROM_ABOVE
    sigma: Optional[float] = None
    s_min: Optional[float] = None
    s_max: Optional[float] = None
    t_min: Optional[float] = None
    t_max: Optional[float] = None

    def __post_init__(self):
        for name in ("step", "sigma", "s_min", "s_max", "t_min", "t_max"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.x < 1:
            raise ValueError(f"truncation x must be at least 1, got {self.x}")
        if self.mode is ScanMode.REAL_AXIS:
            if self.s_min is None or self.s_max is None:
                raise ValueError("real-axis scans need s_min and s_max")
            if self.s_max < self.s_min:
                raise ValueError(f"empty range: s_max {self.s_max} < s_min {self.s_min}")
        else:
            if self.sigma is None or self.t_min is None or self.t_max is None:
                raise ValueError("vertical-line scans need sigma, t_min and t_max")
            if self.t_max < self.t_min:
                raise ValueError(f"empty range: t_max {self.t_max} < t_min {self.t_min}")

    def grid(self) -> list[complex]:
        """Grid points, built index-first so steps do not accumulate error.

        Real-axis grids drop points inside the pole guard |s - 1| < 0.05.
        """
        if self.mode is ScanMode.REAL_AXIS:
            lo, hi = self.s_min, self.s_max
        else:
            lo, hi = self.t_min, self.t_max
        n = int(math.floor((hi - lo) / self.step + 1e-9)) + 1
        values = [lo + i * self.step for i in range(n)]
        if self.mode is ScanMode.REAL_AXIS:
            points = [
                complex(v, 0.0) for v in values if abs(v - 1.0) >= POLE_GUARD - 1e-12
            ]
            if not points:
                raise ValueError("real-axis range lies entirely inside the pole guard")
            return points
        return [complex(self.sigma, v) for v in values]


@dataclass(frozen=True)
class ScanRow:
    """One grid point of a scan.

    In real-axis mode the recorded error compares Re(value) with the (real)
    reference; in vertical-line mode it compares the two moduli, matching
    what the corresponding plots show.  Rows for points where evaluation
    failed carry an ``error:<Type>`` flag and empty values.
    """

    sigma: float
    t: float
    x: int
    value: Optional[complex]
    reference: Optional[complex]
    abs_err: Optional[float]
    rel_err: Optional[float]
    flags: tuple[str, ...]


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log(error / log x) against log x.

    The slope estimates the decay exponent 1/2 - sigma.  ``x_grid`` and
    ``errors`` hold the points that survived the noise floor;
    ``evaluations`` holds one evaluation per x of the requested grid, in
    grid order, including the x's the noise floor dropped.
    """

    sigma: float
    x_grid: tuple[int, ...]
    errors: tuple[float, ...]
    slope: float
    intercept: float
    evaluations: tuple[Evaluation, ...]


def _row_for_point(
    s: complex, spec: ScanSpec, table: PrimeTable, ref_cfg: ZetaRefConfig
) -> ScanRow:
    try:
        ev = corrected_product(
            s, table, spec.variant, spec.cut, ref_cfg=ref_cfg, order=EXPERIMENT_ORDER
        )
    except EulerProductError as exc:
        return ScanRow(
            sigma=s.real,
            t=s.imag,
            x=spec.x,
            value=None,
            reference=None,
            abs_err=None,
            rel_err=None,
            flags=(f"error:{type(exc).__name__}",),
        )
    if spec.mode is ScanMode.REAL_AXIS:
        abs_err = abs(ev.value.real - ev.reference.real)
    else:
        abs_err = abs(abs(ev.value) - abs(ev.reference))
    rel_err = abs_err / abs(ev.reference)
    return ScanRow(
        sigma=s.real,
        t=s.imag,
        x=spec.x,
        value=ev.value,
        reference=ev.reference,
        abs_err=abs_err,
        rel_err=rel_err,
        flags=ev.flags,
    )


def scan(
    spec: ScanSpec, table: PrimeTable, ref_cfg: ZetaRefConfig = DEFAULT_CONFIG
) -> list[ScanRow]:
    """Evaluate the corrected product over the spec's grid, in grid order.

    ``table`` must have been sieved to exactly spec.x.  Per-point failures
    become error-flagged rows rather than aborting the scan.
    """
    if table.limit != spec.x:
        raise DomainError(
            f"table sieved to {table.limit} but the scan requests x = {spec.x}"
        )
    return [_row_for_point(s, spec, table, ref_cfg) for s in spec.grid()]


def fit_decay_slope(
    x_grid: Sequence[int], errors: Sequence[float]
) -> tuple[float, float]:
    """Slope and intercept of log(error / log x) against log x."""
    ys = [math.log(e / math.log(x)) for x, e in zip(x_grid, errors)]
    xs = [math.log(x) for x in x_grid]
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(intercept)


def error_decay(
    s: complex,
    x_grid: Sequence[int],
    variant: ProductVariant = ProductVariant.ZETA,
    table: Optional[PrimeTable] = None,
    cut: BranchSide = BranchSide.FROM_ABOVE,
    ref_cfg: ZetaRefConfig = DEFAULT_CONFIG,
) -> DecayFit:
    """Measure |value - reference| across truncations and fit the decay rate.

    The grid must be ascending with at least 4 points spanning at least two
    decades.  One table is sieved to max(x_grid) (or taken from ``table``)
    and masked downwards per point; each x is evaluated once.  Errors below
    the double-precision noise floor are dropped from the fit; fewer than 4
    survivors raise InsufficientDataError.
    """
    s = complex(s)
    if s.real <= 0.5:
        raise DomainError(f"decay fits need Re(s) > 1/2, got {s}")
    x_grid = [int(x) for x in x_grid]
    if len(x_grid) < 4:
        raise ValueError(f"x grid needs at least 4 points, got {len(x_grid)}")
    if any(b <= a for a, b in zip(x_grid, x_grid[1:])):
        raise ValueError("x grid must be strictly ascending")
    if x_grid[-1] < 100 * x_grid[0]:
        raise ValueError("x grid must span at least two decades")
    if table is None:
        table = sieve(x_grid[-1])
    evaluations = tuple(
        corrected_product(
            s, table.truncate(x), variant, cut, ref_cfg=ref_cfg, order=EXPERIMENT_ORDER
        )
        for x in x_grid
    )
    surviving = [ev for ev in evaluations if ev.abs_error >= ERROR_NOISE_FLOOR]
    if len(surviving) < 4:
        raise InsufficientDataError(
            f"only {len(surviving)} decay points above the noise floor "
            f"{ERROR_NOISE_FLOOR}; need at least 4"
        )
    surviving_x = tuple(ev.x for ev in surviving)
    surviving_err = tuple(ev.abs_error for ev in surviving)
    slope, intercept = fit_decay_slope(surviving_x, surviving_err)
    return DecayFit(
        sigma=s.real,
        x_grid=surviving_x,
        errors=surviving_err,
        slope=slope,
        intercept=intercept,
        evaluations=evaluations,
    )
