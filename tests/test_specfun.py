import cmath
import math

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


def test_methods_agree_at_cutoff():
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
    assert e1(3.0 + 0.0j).method is E1Method.SERIES
    assert e1(5.0 + 0.0j).method is E1Method.CONTINUED_FRACTION


def test_singularity_at_zero():
    for fn in (lambda: e1(0.0), lambda: e1_series(0.0), lambda: e1_continued_fraction(0.0)):
        with pytest.raises(SingularityError):
            fn()


@pytest.mark.parametrize("z", [-712 + 1j, -720 + 0j, -800 + 0j])
def test_overflow_is_named(z):
    # Off the cut exp(-z) overflows in the continued fraction; on the cut
    # the series runs to inf - inf.  Both are one named error.
    with pytest.raises(EulerProductError, match="overflows double precision"):
        e1(z)


def test_largest_values_are_unchanged():
    # Just inside double range e1 returns what its methods give.
    assert e1(-700 + 1j).value == e1_continued_fraction(-700 + 1j)
    assert cmath.isfinite(e1(-709 + 0j).value)


def test_continued_fraction_fails_hugging_the_cut():
    # Convergence collapses within ~0.05 rad of the cut at moderate modulus.
    with pytest.raises(ConvergenceError):
        e1_continued_fraction(10.0 * cmath.exp(1j * 3.13))


def test_conjugate_symmetry_off_cut():
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = complex(rng.uniform(-5, 5), rng.uniform(0.1, 5))
        assert e1(z.conjugate()).value == e1(z).value.conjugate()
