import math

import numpy as np
import pytest

from eulerprod import (
    DomainError,
    EulerProductError,
    InsufficientDataError,
    ProductVariant,
    ScanMode,
    ScanSpec,
    corrected_product,
    error_decay,
    evaluate,
    fit_decay_slope,
    scan,
    zeta_ref,
)
from eulerprod.experiments import MAX_GRID_POINTS
from test_product import fake_cores


def real_axis_spec(**kwargs):
    defaults = dict(mode=ScanMode.REAL_AXIS, x=100, step=0.1, s_min=1.2, s_max=2.0)
    defaults.update(kwargs)
    return ScanSpec(**defaults)


def line_spec(**kwargs):
    defaults = dict(
        mode=ScanMode.VERTICAL_LINE, x=100, step=0.5, sigma=0.8, t_min=0.0, t_max=5.0
    )
    defaults.update(kwargs)
    return ScanSpec(**defaults)


# ------------------------------------------------------------------ ScanSpec


def test_degenerate_range_gives_single_row(table_1e2):
    spec = real_axis_spec(s_min=1.5, s_max=1.5)
    rows = scan(spec, table_1e2)
    assert len(rows) == 1
    assert rows[0].sigma == 1.5


def test_grid_excludes_pole_guard():
    spec = real_axis_spec(s_min=0.9, s_max=1.1, step=0.01)
    sigmas = [p.real for p in spec.grid()]
    assert all(abs(s - 1.0) >= 0.05 - 1e-9 for s in sigmas)
    assert min(sigmas) == pytest.approx(0.9)
    assert max(sigmas) == pytest.approx(1.1)


def test_spec_validation():
    with pytest.raises(ValueError):
        real_axis_spec(step=0.0)
    with pytest.raises(ValueError):
        real_axis_spec(s_min=2.0, s_max=1.0)
    with pytest.raises(ValueError):
        ScanSpec(mode=ScanMode.REAL_AXIS, x=100, step=0.1)  # missing range
    with pytest.raises(ValueError):
        line_spec(t_min=3.0, t_max=1.0)
    with pytest.raises(ValueError):
        ScanSpec(mode=ScanMode.VERTICAL_LINE, x=100, step=0.1, t_min=0.0, t_max=1.0)
    with pytest.raises(ValueError):
        real_axis_spec(s_min=0.96, s_max=1.04).grid()  # nothing survives the guard


@pytest.mark.parametrize(
    "field", ["step", "sigma", "s_min", "s_max", "t_min", "t_max"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_numbers(field, value):
    make = real_axis_spec if field in ("s_min", "s_max") else line_spec
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make(**{field: value})


def test_spec_rejects_grids_over_the_limit():
    # Only specs are made here: no grid of this size is ever built.
    line_spec(t_min=0.0, t_max=MAX_GRID_POINTS - 1.0, step=1.0)  # at the limit
    for spec in (
        lambda: line_spec(t_min=0.0, t_max=float(MAX_GRID_POINTS), step=1.0),
        lambda: real_axis_spec(s_min=1.1, s_max=2.0, step=1e-12),
        lambda: real_axis_spec(s_min=1.1, s_max=2.0, step=1e-320),  # inf points
    ):
        with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
            spec()


def test_scan_rejects_mismatched_table(table_1e3):
    with pytest.raises(DomainError):
        scan(real_axis_spec(x=100), table_1e3)


# --------------------------------------------------------------------- scan


def test_scan_rows_are_deterministic(table_1e2):
    spec = line_spec()
    assert scan(spec, table_1e2) == scan(spec, table_1e2)


def test_scan_row_error_metrics(table_1e3):
    # Real-axis rows compare real parts; vertical rows compare moduli;
    # evaluate without a mode compares the complex values.
    row = scan(real_axis_spec(x=1000, s_min=2.0, s_max=2.0), table_1e3)[0]
    assert row.abs_err == abs(row.value.real - row.reference.real)
    row = scan(line_spec(x=1000, t_min=3.0, t_max=3.0), table_1e3)[0]
    assert row.abs_err == abs(abs(row.value) - abs(row.reference))
    assert row.rel_err == row.abs_err / abs(row.reference)
    row = evaluate(0.8 + 3.0j, table_1e3)
    assert row.reference == zeta_ref(0.8 + 3.0j)
    assert row.abs_err == abs(row.value - row.reference)
    assert row.rel_err == row.abs_err / abs(row.reference)


def test_scan_marks_on_cut_rows(table_1e3):
    rows = scan(line_spec(x=1000, sigma=0.7, t_min=0.0, t_max=1.0, step=0.5), table_1e3)
    assert rows[0].flags == ("on-cut",)
    assert rows[1].flags == ()


def test_scan_survives_per_row_errors(table_1e2):
    # The vertical line at sigma = 1 hits the pole at t = 0; the scan must
    # flag that row and keep going.
    rows = scan(line_spec(sigma=1.0, t_min=0.0, t_max=1.0, step=0.5), table_1e2)
    assert rows[0].value is None
    assert rows[0].flags == ("error:SingularityError",)
    assert rows[1].value is not None


@pytest.mark.parametrize("variant", list(ProductVariant))
@pytest.mark.parametrize(
    "spec",
    [
        dict(mode=ScanMode.REAL_AXIS, s_min=-0.4, s_max=0.8, step=0.02),
        dict(mode=ScanMode.VERTICAL_LINE, sigma=0.55, t_min=-0.6, t_max=0.6, step=0.02),
    ],
    ids=["real-axis", "vertical-line"],
)
def test_scan_rows_equal_single_point_rows(table_1e4, spec, variant):
    # A scan evaluates its grid in batches of 26 points at x = 10^4, and one
    # point must give the same row from a scan as from evaluate alone.  The
    # 61 points cross batch boundaries and the change between the real
    # formula (real s > 0) and the complex one.  Left of s = 0.04 on the
    # real axis every point fails (s = 0 by its dead factor, others by E1
    # or the reference), and so does the ratio at s = 1/2, the pole of
    # zeta(2s).  That sends those batches back point by point, and each
    # failing point gets the error its own evaluation raises.
    spec = ScanSpec(x=10**4, variant=variant, **spec)
    rows = scan(spec, table_1e4)
    assert len(rows) == 61
    for s, row in zip(spec.grid(), rows):
        if row.value is None:
            with pytest.raises(EulerProductError) as info:
                evaluate(s, table_1e4, variant)
            assert row.flags == (f"error:{type(info.value).__name__}",)
            continue
        alone = evaluate(s, table_1e4, variant)
        assert (row.value, row.reference) == (alone.value, alone.reference)
        assert row == evaluate(s, table_1e4, variant, spec.mode)
    failed = sum(row.value is None for row in rows)
    assert 20 <= failed <= 22 if spec.mode is ScanMode.REAL_AXIS else failed == 0


@pytest.mark.parametrize("variant", list(ProductVariant))
@pytest.mark.parametrize(
    "spec",
    [
        dict(mode=ScanMode.REAL_AXIS, x=10**4, s_min=-0.5, s_max=2.0, step=0.01),
        dict(mode=ScanMode.VERTICAL_LINE, x=10**4, sigma=0.55, t_min=-2.0, t_max=2.0,
             step=0.01),
        dict(mode=ScanMode.VERTICAL_LINE, x=10**5, sigma=0.75, t_min=-1.0, t_max=1.0,
             step=0.05),
    ],
    ids=["real-axis-1e4", "vertical-line-1e4", "vertical-line-1e5"],
)
def test_scan_gives_the_same_bits_on_one_core_and_two(table_1e4, table_1e5, spec,
                                                      variant, monkeypatch):
    # A scan hands its whole grid to one kernel call, in batches of up to 26
    # points at x = 10^4 and 3 at 10^5: at least 8 (batch, block) units,
    # which take a second worker on two cores.  Each grid mixes real
    # batches (real s > 0) with complex ones, and the real axis left of
    # s = 0.04 fails, which sends its grid back batch by batch.  The rows
    # are the same on one worker and two.
    spec = ScanSpec(variant=variant, **spec)
    table = table_1e4 if spec.x == 10**4 else table_1e5
    fake_cores(monkeypatch, 1)
    one = scan(spec, table)
    reads = fake_cores(monkeypatch, 2)
    two = scan(spec, table)
    assert reads
    assert repr(two) == repr(one)
    failed = sum(row.value is None for row in one)
    assert (failed > 0) is (spec.mode is ScanMode.REAL_AXIS)


def test_scan_next_to_the_cut_makes_no_error_rows(table_1e4):
    # At sigma = 0.55 and t <= 0.1, E1[(s-1) log x] lies just above its cut,
    # where the continued fraction fails; the series gives every row a value.
    spec = line_spec(x=10**4, sigma=0.55, t_min=0.0, t_max=0.1, step=0.001)
    rows = scan(spec, table_1e4)
    assert len(rows) == 101
    assert all(row.value is not None for row in rows)
    assert not [f for row in rows for f in row.flags if f.startswith("error:")]


def test_vertical_scan_tracks_reference(table_1e3):
    rows = scan(line_spec(x=1000, sigma=0.8, t_min=0.0, t_max=50.0, step=0.5), table_1e3)
    assert len(rows) == 101
    assert float(np.median([r.rel_err for r in rows])) < 0.05


def test_scan_rows_use_order_two(table_1e3):
    spec = line_spec(x=1000, sigma=0.7, t_min=0.0, t_max=2.0)
    for row in scan(spec, table_1e3):
        s = complex(row.sigma, row.t)
        ev = corrected_product(s, table_1e3, order=2)
        assert row.value == ev.value


def test_scan_prime_square_term_only_on_the_strip(table_1e3):
    # Against the paper's order, real-axis rows with 1/2 < sigma < 1 change
    # (and improve at every point of this grid); rows with sigma >= 1 are
    # identical.
    spec = real_axis_spec(x=1000, s_min=0.55, s_max=1.6, step=0.05)
    rows = scan(spec, table_1e3)
    assert len(rows) == len(spec.grid())
    for row in rows:
        paper = corrected_product(row.sigma, table_1e3)
        reference = ProductVariant.ZETA.reference(row.sigma)
        paper_rel = abs(paper.value.real - reference.real) / abs(reference)
        if row.sigma < 1.0:
            assert row.rel_err < paper_rel
        else:
            assert row.value == paper.value and row.rel_err == paper_rel


# ---------------------------------------------------------------- decay fit


def test_fit_slope_zero_for_normalized_flat_errors():
    # Errors proportional to 1/log x have constant error*log x, hence slope 0.
    xs = [10**3, 10**4, 10**5, 10**6]
    errors = [0.37 / math.log(x) for x in xs]
    slope, intercept = fit_decay_slope(xs, errors)
    assert abs(slope) < 1e-12
    assert intercept == pytest.approx(math.log(0.37))


def test_fit_recovers_synthetic_power_law():
    # The explicit formula's model, C x^(1/2 - sigma) / log x.
    xs = [10**3, 10**4, 10**5, 10**6]
    errors = [2.0 * x**-0.7 / math.log(x) for x in xs]
    slope, intercept = fit_decay_slope(xs, errors)
    assert slope == pytest.approx(-0.7, abs=1e-12)
    assert intercept == pytest.approx(math.log(2.0))


def test_error_decay_validation(table_1e3):
    with pytest.raises(DomainError):
        error_decay(0.4 + 5.0j, [10**2, 10**3, 10**4, 10**5])
    with pytest.raises(ValueError):
        error_decay(0.75 + 5.0j, [10**2, 10**3, 10**4])  # too few points
    with pytest.raises(ValueError):
        error_decay(0.75 + 5.0j, [10**4, 10**3, 10**5, 10**6])  # not ascending
    with pytest.raises(ValueError):
        error_decay(0.75 + 5.0j, [100, 200, 400, 800])  # under two decades


def test_error_decay_insufficient_survivors(table_1e5):
    # At sigma = 6 the error sits below the double-precision noise floor for
    # every x beyond 100, leaving too few points to fit.
    with pytest.raises(InsufficientDataError):
        error_decay(6.0 + 5.0j, [10**2, 10**3, 10**4, 10**5], table=table_1e5)


def test_error_decay_slope_estimates_exponent(table_1e5):
    fit = error_decay(0.75 + 5.0j, [10**2, 10**3, 10**4, 10**5], table=table_1e5)
    assert fit.sigma == 0.75
    assert len(fit.x_grid) == len(fit.errors) == 4
    assert -0.7 < fit.slope < 0.0


def test_error_decay_uses_order_two(table_1e5):
    grid = [10**2, 10**3, 10**4, 10**5]
    s = 0.75 + 5.0j
    fit = error_decay(s, grid, table=table_1e5)
    expected = [
        abs(corrected_product(s, table_1e5.truncate(x), order=2).value - zeta_ref(s))
        for x in grid
    ]
    assert list(fit.errors) == expected


def test_error_decay_carries_one_evaluation_per_x(table_1e5):
    # At s = 3 + 5i the error at x = 10^5 (6e-15) is below the noise floor:
    # the fit drops it, the rows keep it.
    grid = [10, 10**2, 10**3, 10**4, 10**5]
    s = 3.0 + 5.0j
    fit = error_decay(s, grid, table=table_1e5)
    assert list(fit.x_grid) == grid[:4]
    assert [row.x for row in fit.rows] == grid
    for x, row in zip(grid, fit.rows):
        ev = corrected_product(s, table_1e5.truncate(x), order=2)
        assert row == evaluate(s, table_1e5.truncate(x))
        assert (row.value, row.flags) == (ev.value, ev.flags)


def test_error_decay_real_axis_sigma_15(table_1e6):
    # On the real axis the oscillating constant makes the fitted slope
    # overshoot the 1/2 - sigma target (measured -1.18 against -1.0 on this
    # grid, -1.38 when the fit took the RH bound x^(1/2 - sigma) log x as
    # its model); the guarded failure mode is a slope too shallow to
    # certify decay, so the band is one-sided tight.
    fit = error_decay(1.5 + 0.0j, [10**3, 10**4, 10**5, 10**6], table=table_1e6)
    assert -1.6 < fit.slope < -0.85


def test_slopes_decrease_with_sigma(table_1e6):
    grid = [10**3, 10**4, 10**5, 10**6]
    slopes = [
        error_decay(complex(sigma, 5.0), grid, table=table_1e6).slope
        for sigma in (0.75, 1.5, 2.0)
    ]
    assert slopes[0] > slopes[1] > slopes[2]
