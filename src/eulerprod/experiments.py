"""Grid scans and error-decay measurements for corrected Euler products.

Every product here is evaluated at EXPERIMENT_ORDER and compared with the
variant's independent zeta reference in one place, ``_compare``, which
makes the ScanRow with both errors.  ``evaluate`` does both at one point
or a sequence of points.  Scans sweep s along the real axis or up a
vertical line and make one row per grid point with it, handing it their
whole grid, which one kernel call sums in units of (batch, block) (see
eulerprod.product); each row equals the point's own.  Decay experiments
make one row per truncation x, all from one corrected_product call and
one reference, each row ``evaluate``'s at that x; they measure how the
absolute error shrinks as x grows and fit the exponent, which should land
near 1/2 - sigma, to the explicit formula's model C x^(1/2 - sigma) / log x
(see DecayFit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, EulerProductError, InsufficientDataError
from .primes import PrimeTable, sieve
from .product import (
    Evaluation,
    ProductVariant,
    _batches,
    corrected_product,
    refuse_pole,
)

#: Real-axis scans skip grid points closer than this to the pole at s = 1.
POLE_GUARD = 0.05

#: Correction order of every scan and decay fit: the paper's E1 factor plus
#: the prime-square term on 1/2 < Re(s) < 1 (see eulerprod.product).
EXPERIMENT_ORDER = 2

#: Most points a scan grid may have; larger grids are refused before any
#: point is made.
MAX_GRID_POINTS = 10**6

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
    and bounds must be finite, and the grid at most MAX_GRID_POINTS long.
    A scan takes no side of E1's branch cut: no product depends on it (see
    eulerprod.product.corrected_product).
    """

    mode: ScanMode
    x: int
    step: float
    variant: ProductVariant = ProductVariant.ZETA
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
        # The grid has floor(steps) + 1 points.  Compared as a float, so a
        # step that makes it overflow int() is refused too.
        steps = self._steps()
        if steps >= MAX_GRID_POINTS:
            raise ValueError(
                f"grid of {steps + 1:.3g} points exceeds MAX_GRID_POINTS = "
                f"{MAX_GRID_POINTS}"
            )

    def _range(self) -> tuple[float, float]:
        if self.mode is ScanMode.REAL_AXIS:
            return self.s_min, self.s_max
        return self.t_min, self.t_max

    def _steps(self) -> float:
        lo, hi = self._range()
        return (hi - lo) / self.step + 1e-9

    def grid(self) -> list[complex]:
        """Grid points, built index-first so steps do not accumulate error.

        Real-axis grids drop points inside the pole guard |s - 1| < 0.05.
        """
        lo, _ = self._range()
        n = int(math.floor(self._steps())) + 1
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
    """One CSV row: a product value at s = sigma + i t and truncation x,
    compared with its reference.

    ``_compare`` makes every compared row.  Real-axis scans record the
    error between Re(value) and the (real) reference, vertical-line scans
    between the two moduli, matching what the corresponding plots show;
    single points and decay fits record |value - reference|.  ``rel_err``
    is ``abs_err`` / |reference|.  Rows for points where evaluation failed
    carry an ``error:<Type>`` flag and empty values.  The CLI also writes
    rows with no reference (E1 values, with no x) through this class.
    """

    sigma: float
    t: float
    x: Optional[int]
    value: Optional[complex]
    reference: Optional[complex]
    abs_err: Optional[float]
    rel_err: Optional[float]
    flags: tuple[str, ...]


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log(error * log x) against log x.

    The slope estimates the decay exponent 1/2 - sigma.  The model is the
    explicit formula's typical error, C x^(1/2 - sigma) / log x with an
    oscillating C; x^(1/2 - sigma) log x is only its upper bound under RH,
    and fitting that bound biases the slope by about -0.18 on decades
    10^3 to 10^7.  ``x_grid`` and
    ``errors`` hold the points that survived the noise floor; ``rows`` holds
    one ``evaluate`` row per x of the requested grid, in grid order,
    including the x's the noise floor dropped.
    """

    sigma: float
    x_grid: tuple[int, ...]
    errors: tuple[float, ...]
    slope: float
    intercept: float
    rows: tuple[ScanRow, ...]


def evaluate(
    s: complex | Sequence[complex],
    table: PrimeTable,
    variant: ProductVariant = ProductVariant.ZETA,
    mode: Optional[ScanMode] = None,
) -> ScanRow | list[ScanRow]:
    """The corrected product at s and truncation table.limit, compared with
    ``variant.reference(s)``.

    ``s`` is one point, which gives a ScanRow, or a sequence of points,
    which gives a list of them in order, each the one point's row.  The
    product is evaluated at EXPERIMENT_ORDER.  ``mode`` picks the error:
    REAL_AXIS compares real parts, VERTICAL_LINE moduli, and None the
    complex values.  Evaluation failures raise; a sequence raises the first
    one met.
    """
    evaluations = corrected_product(s, table, variant, order=EXPERIMENT_ORDER)
    if isinstance(evaluations, Evaluation):
        return _compare(evaluations, mode, variant.reference(evaluations.s))
    return [_compare(ev, mode, variant.reference(ev.s)) for ev in evaluations]


def _compare(ev: Evaluation, mode: Optional[ScanMode], reference: complex) -> ScanRow:
    """``ev`` as a ScanRow, compared with ``reference``, its variant's
    reference at ev.s, by the error ``mode`` picks."""
    if mode is ScanMode.REAL_AXIS:
        abs_err = abs(ev.value.real - reference.real)
    elif mode is ScanMode.VERTICAL_LINE:
        abs_err = abs(abs(ev.value) - abs(reference))
    else:
        abs_err = abs(ev.value - reference)
    return ScanRow(
        sigma=ev.s.real,
        t=ev.s.imag,
        x=ev.x,
        value=ev.value,
        reference=reference,
        abs_err=abs_err,
        rel_err=abs_err / abs(reference),
        flags=ev.flags,
    )


def scan(spec: ScanSpec, table: PrimeTable) -> list[ScanRow]:
    """Evaluate the corrected product over the spec's grid, in grid order.

    ``table`` must have been sieved to exactly spec.x.  The whole grid goes
    to ``evaluate``, whose one kernel call sums it in (batch, block) units
    (see eulerprod.product._prime_sums).  If that fails, the grid is
    evaluated again batch by batch, and a batch that fails point by point:
    each failing point becomes an error-flagged row rather than aborting
    the scan.
    """
    if table.limit != spec.x:
        raise DomainError(
            f"table sieved to {table.limit} but the scan requests x = {spec.x}"
        )

    def rows(points: list[complex]) -> list[ScanRow]:
        try:
            return evaluate(points, table, spec.variant, spec.mode)
        except EulerProductError as exc:
            if len(points) == 1:
                s, flag = points[0], f"error:{type(exc).__name__}"
                return [ScanRow(s.real, s.imag, spec.x, None, None, None, None, (flag,))]
        parts = _batches(points, table)
        if len(parts) == 1:  # one batch: its points
            parts = [[s] for s in points]
        return [row for part in parts for row in rows(part)]

    return rows(spec.grid())


def fit_decay_slope(
    x_grid: Sequence[int], errors: Sequence[float]
) -> tuple[float, float]:
    """Slope and intercept of log(error * log x) against log x."""
    ys = [math.log(e * math.log(x)) for x, e in zip(x_grid, errors)]
    xs = [math.log(x) for x in x_grid]
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(intercept)


def error_decay(
    s: complex,
    x_grid: Sequence[int],
    variant: ProductVariant = ProductVariant.ZETA,
    table: Optional[PrimeTable] = None,
) -> DecayFit:
    """Measure |value - reference| across truncations and fit the decay rate.

    The grid must be ascending with at least 4 points, start at 2 or more
    (so log x > 0) and span at least two decades.  One table is sieved to
    max(x_grid) (or taken from ``table``), and one corrected_product call
    evaluates s at every x of the grid: one kernel pass over that table
    sums each x's prefix of it (see eulerprod.product._prime_sums), so the
    grid costs one evaluation at its largest x and each smaller x's last,
    partial block of primes.  The reference is asked for once, and each
    row equals ``evaluate``'s at ``table.truncate(x)``.  Errors below the
    double-precision noise floor are dropped from the fit; fewer than 4
    survivors raise InsufficientDataError.  Re(s) <= 1/2 raises
    DomainError, a bad grid ValueError and s = 1 SingularityError, all
    before anything is sieved.
    """
    s = complex(s)
    if s.real <= 0.5:
        raise DomainError(f"decay fits need Re(s) > 1/2, got {s}")
    x_grid = [int(x) for x in x_grid]
    if len(x_grid) < 4:
        raise ValueError(f"x grid needs at least 4 points, got {len(x_grid)}")
    if any(b <= a for a, b in zip(x_grid, x_grid[1:])):
        raise ValueError("x grid must be strictly ascending")
    if x_grid[0] < 2:
        raise ValueError(f"x grid must start at 2 or more, got {x_grid[0]}")
    if x_grid[-1] < 100 * x_grid[0]:
        raise ValueError("x grid must span at least two decades")
    refuse_pole([s])
    if table is None:
        table = sieve(x_grid[-1])
    evaluations = corrected_product(
        s, table, variant, order=EXPERIMENT_ORDER, limits=x_grid
    )
    reference = variant.reference(s)
    rows = tuple(_compare(ev, None, reference) for ev in evaluations)
    surviving = [row for row in rows if row.abs_err >= ERROR_NOISE_FLOOR]
    if len(surviving) < 4:
        raise InsufficientDataError(
            f"only {len(surviving)} decay points above the noise floor "
            f"{ERROR_NOISE_FLOOR}; need at least 4"
        )
    surviving_x = tuple(row.x for row in surviving)
    surviving_err = tuple(row.abs_err for row in surviving)
    slope, intercept = fit_decay_slope(surviving_x, surviving_err)
    return DecayFit(
        sigma=s.real,
        x_grid=surviving_x,
        errors=surviving_err,
        slope=slope,
        intercept=intercept,
        rows=rows,
    )
