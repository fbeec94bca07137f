import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from eulerprod import (
    EULER_GAMMA,
    BranchSide,
    ConvergenceError,
    E1Method,
    EulerProductError,
    SingularityError,
    e1,
    e1_continued_fraction,
    e1_series,
)


def e1_quadrature(z: complex) -> complex:
    """Independent oracle: adaptive quadrature along the ray t = z + u.

    E1(z) = exp(-z) * int_0^inf exp(-u) / (z + u) du, valid off the cut.
    The u-dependent factor is real and monotone, so the integrand never
    oscillates and quad converges quickly.
    """
    z = complex(z)

    def integrand(u, part):
        w = math.exp(-u) / (z + u)
        return w.real if part == 0 else w.imag

    re, _ = quad(integrand, 0.0, np.inf, args=(0,), epsabs=1e-16, epsrel=1e-13, limit=400)
    im, _ = quad(integrand, 0.0, np.inf, args=(1,), epsabs=1e-16, epsrel=1e-13, limit=400)
    return cmath.exp(-z) * complex(re, im)


def e1_mpmath(z: complex) -> complex:
    """E1(z) to 30 digits, rounded to the nearest double."""
    with mpmath.workdps(30):
        return complex(mpmath.e1(mpmath.mpc(z.real, z.imag)))


def e1_oncut_real_oracle(x: float) -> float:
    """Principal-value oracle for Re E1(-x + i0), x > 0.

    Shifting the ray to start at the cut gives
    Re E1(-x + i0) = e^x * PV int_0^inf e^-u / (u - x) du; the Cauchy weight
    handles the pole at u = x exactly.
    """
    pv, _ = quad(lambda u: math.exp(-u), 0.0, 2.0 * x, weight="cauchy", wvar=x)
    tail, _ = quad(lambda u: math.exp(-u) / (u - x), 2.0 * x, np.inf)
    return math.exp(x) * (pv + tail)


def test_series_at_one():
    # 0.21938393439552029 frozen from the quadrature oracle.
    value = e1_series(1.0 + 0.0j)
    assert abs(value - 0.21938393439552029) < 1e-13
    assert abs(value.imag) == 0.0


def test_series_small_z_limit():
    # E1(z) + log z + gamma -> 0 as z -> 0+ along the reals.
    for z in (1e-4, 1e-6, 1e-9):
        residue = e1_series(complex(z, 0.0)) + cmath.log(z) + EULER_GAMMA
        assert abs(residue) < 2 * z


def test_series_schwarz_reflection():
    upper = e1_series(0.5 + 0.5j)
    lower = e1_series(0.5 - 0.5j)
    assert lower == upper.conjugate()


def test_continued_fraction_at_ten():
    # 4.156968929685325e-06 frozen from the quadrature oracle.
    value = e1_continued_fraction(10.0 + 0.0j)
    assert abs(value - 4.156968929685325e-06) / 4.156968929685325e-06 < 1e-12


def test_methods_agree_at_four():
    s = e1_series(4.0 + 0.0j)
    c = e1_continued_fraction(4.0 + 0.0j)
    assert abs(s - c) / abs(s) < 1e-12


def test_large_argument_asymptote():
    # z * exp(z) * E1(z) -> 1, with the next-order term of size 1/z.
    for z in (100.0, 300.0, 700.0):
        value = e1_continued_fraction(complex(z, 0.0))
        assert abs(z * math.exp(z) * value - 1.0) < 2.0 / z


def test_method_agreement_on_annulus():
    for r in (3.5, 4.0, 4.5):
        for arg in np.linspace(-3.0, 3.0, 13):
            z = r * cmath.exp(1j * arg)
            s = e1_series(z)
            c = e1_continued_fraction(z)
            assert abs(s - c) / abs(s) < 1e-11, f"disagreement at z={z}"


def test_quadrature_oracle_agreement():
    rng = np.random.default_rng(1234)
    for _ in range(30):
        r = math.exp(rng.uniform(math.log(0.01), math.log(50.0)))
        arg = rng.uniform(-3.0, 3.0)
        z = r * cmath.exp(1j * arg)
        value = e1(z).value
        ref = e1_quadrature(z)
        assert abs(value - ref) / abs(ref) < 1e-10, f"oracle mismatch at z={z}"


def test_derivative_identity():
    # (E1(z+h) - E1(z-h)) / 2h should match E1'(z) = -exp(-z)/z off the cut.
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 50:
        r = math.exp(rng.uniform(math.log(0.1), math.log(30.0)))
        arg = rng.uniform(-2.9, 2.9)
        z = r * cmath.exp(1j * arg)
        h = 1e-6 * abs(z)
        numeric = (e1(z + h).value - e1(z - h).value) / (2 * h)
        exact = -cmath.exp(-z) / z
        assert abs(numeric - exact) / abs(exact) < 1e-4
        checked += 1


def test_branch_above():
    result = e1(-1.0 + 0.0j)
    assert result.on_cut
    assert abs(result.value.imag + math.pi) < 1e-12
    # Real part checked against the independent principal-value oracle.
    ref = e1_oncut_real_oracle(1.0)
    assert abs(result.value.real - ref) < 1e-10


def test_branch_below_is_conjugate():
    above = e1(-1.0, BranchSide.FROM_ABOVE)
    below = e1(-1.0, BranchSide.FROM_BELOW)
    assert below.value == above.value.conjugate()
    assert abs(below.value.imag - math.pi) < 1e-12


@pytest.mark.parametrize("r", [0.5, 4.0, 40.0])
def test_e1_sides_give_one_product_factor(r):
    # The two sides differ by 2 pi i, which exp cancels: a product, which
    # only exponentiates E1, cannot depend on the side of the cut.
    above = cmath.exp(e1(complex(-r, 0.0), BranchSide.FROM_ABOVE).value)
    below = cmath.exp(e1(complex(-r, 0.0), BranchSide.FROM_BELOW).value)
    assert below.real == above.real
    assert below.imag == -above.imag


def test_branch_ignores_signed_zero():
    assert e1(complex(-1.0, -0.0)).value == e1(complex(-1.0, 0.0)).value


def test_on_cut_large_modulus_uses_series():
    # No cancellation on the cut, so the series handles any modulus there.
    result = e1(-30.0 + 0.0j)
    assert result.method is E1Method.SERIES
    assert result.on_cut
    ref = e1_oncut_real_oracle(30.0)
    assert abs(result.value.real - ref) / abs(ref) < 1e-12


def test_positive_real_argument_is_real():
    result = e1(2.0 + 0.0j)
    assert not result.on_cut
    assert result.value.imag == 0.0


def test_dispatcher_method_selection():
    # On the positive axis |z| + Re z = 2z, so the series ends at z = 1.5.
    assert e1(1.5 + 0.0j).method is E1Method.SERIES
    assert e1(1.5 + 1e-9 + 0.0j).method is E1Method.CONTINUED_FRACTION
    assert e1(5.0 + 0.0j).method is E1Method.CONTINUED_FRACTION


def test_dispatcher_takes_the_series_inside_the_parabola():
    # The series holds exactly |z| + Re z <= 3, that is Re sqrt(z) <= sqrt(1.5).
    assert e1(-8.0 + 4.0j).method is E1Method.SERIES  # |z| + Re z = 0.94
    assert e1(-4.0 + 5.6j).method is E1Method.SERIES  # 2.88, |z| = 6.9
    assert e1(-12.0 + 9.0j).method is E1Method.SERIES  # exactly 3, |z| = 15
    assert e1(-2.0 + 4.6j).method is E1Method.CONTINUED_FRACTION  # 3.02


def test_e1_is_accurate_on_both_sides_of_the_series_bound():
    # z0 lies on |z| + Re z = 3 with |z0| = r, in either half-plane; scaling
    # it by 1 -+ 1e-6 moves |z| + Re z by the same factor, far beyond
    # rounding even where |z| ~ 700.
    sides = ((1.0 - 1e-6, E1Method.SERIES), (1.0 + 1e-6, E1Method.CONTINUED_FRACTION))
    for r in np.geomspace(1.5, 700.0, 60):
        for sign in (1.0, -1.0):
            z0 = complex(3.0 - r, sign * math.sqrt(6.0 * r - 9.0))
            for scale, method in sides:
                z = z0 * scale
                result, ref = e1(z), e1_mpmath(z)
                assert result.method is method, f"at z={z}"
                assert abs(result.value - ref) <= 1e-14 * abs(ref), f"at z={z}"


@pytest.mark.parametrize(
    "z", [-5 + 0.05j, -20 + 0.2j, -4.14 + 0.138j, 10.0 * cmath.exp(3.13j)]
)
def test_wedge_next_to_the_cut_takes_the_series(z):
    # The continued fraction fails or errs here (see the test below); the
    # series loses at most about e^(|z| + Re z) to cancellation.
    result = e1(z)
    assert result.method is E1Method.SERIES
    assert not result.on_cut
    assert abs(result.value - e1_mpmath(z)) <= 1e-15 * abs(e1_mpmath(z))


def test_e1_is_accurate_over_the_product_wedge():
    # Every E1 argument of an order-2 corrected product, (s-1) L, (2s-1) L
    # and (s-1/2) L with L = log x, for 1/2 < sigma < 1 and small t, where
    # (s-1) L lies just above the cut.  None may raise.
    for sigma in np.linspace(0.5, 1.0, 12)[1:-1]:
        for t in np.linspace(0.0, 0.1, 11):
            s = complex(sigma, t)
            for k in range(2, 9):
                log_x = math.log(10**k)
                for z in ((s - 1.0) * log_x, (2.0 * s - 1.0) * log_x, (s - 0.5) * log_x):
                    ref = e1_mpmath(z)
                    assert abs(e1(z).value - ref) <= 1e-14 * abs(ref), f"at z={z}"


def test_singularity_at_zero():
    for fn in (lambda: e1(0.0), lambda: e1_series(0.0), lambda: e1_continued_fraction(0.0)):
        with pytest.raises(SingularityError):
            fn()


@pytest.mark.parametrize("z", [-717 + 0j, -720 + 1j, -720 + 0j, -800 + 0j])
def test_overflow_is_named(z):
    # |E1(z)| is about 7e309 at -720 + 1i: the series' terms overflow, on
    # the cut to inf - inf.  Both are one named error.
    with pytest.raises(EulerProductError, match="overflows double precision"):
        e1(z)


def test_largest_values_are_unchanged():
    # Just inside double range the series, which e1 takes next to the cut,
    # matches mpmath; the fraction's exp(-z) = e^712 would overflow.
    for z in (-700 + 1j, -712 + 1j):
        assert abs(e1(z).value - e1_mpmath(z)) <= 1e-14 * abs(e1_mpmath(z))
    assert cmath.isfinite(e1(-709 + 0j).value)


@pytest.mark.parametrize("z", [-714 + 0j, -715 + 1j, -716 + 1j, -716.3 + 0j])
def test_series_reaches_the_edge_of_double_range(z):
    # The series' peak term, about e^|z| / sqrt(2 pi |z|), would overflow
    # here before |E1| (up to 1.7e308) does; its scaled sum does not.
    # |E1| itself is too large for abs(), so the error is taken in mpmath.
    value = e1(z).value
    with mpmath.workdps(40):
        ref = mpmath.e1(mpmath.mpc(z.real, z.imag))
        assert abs(mpmath.mpc(value.real, value.imag) - ref) <= 1e-14 * abs(ref)


def test_continued_fraction_fails_hugging_the_cut():
    # Convergence collapses within ~0.05 rad of the cut at moderate modulus.
    with pytest.raises(ConvergenceError):
        e1_continued_fraction(10.0 * cmath.exp(1j * 3.13))


def test_conjugate_symmetry_off_cut():
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = complex(rng.uniform(-5, 5), rng.uniform(0.1, 5))
        assert e1(z.conjugate()).value == e1(z).value.conjugate()
