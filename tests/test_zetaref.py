import cmath
import math
from fractions import Fraction

import mpmath
import pytest

from eulerprod import DomainError, PoleProximityError, zeta_ref
from eulerprod.zetaref import _TERMS, _weights

LN2 = math.log(2.0)


def zeta_direct_sum(s: float, n_terms: int = 200_000) -> float:
    """Independent oracle for real s > 1: direct Dirichlet series summation
    with a midpoint-rule integral tail bound, accurate to ~1e-15 relative."""
    head = math.fsum(k ** (-s) for k in range(1, n_terms + 1))
    tail = (n_terms + 0.5) ** (1.0 - s) / (s - 1.0)
    return head + tail


def test_zeta_two_closed_form():
    expected = math.pi**2 / 6.0
    value = zeta_ref(2.0 + 0.0j)
    assert abs(value - expected) / expected < 1e-12


def test_zeta_four_over_two_closed_form():
    expected = math.pi**2 / 15.0
    value = zeta_ref(4.0 + 0.0j) / zeta_ref(2.0 + 0.0j)
    assert abs(value - expected) / expected < 1e-12


def test_zeta_three_against_direct_sum():
    oracle = zeta_direct_sum(3.0)
    value = zeta_ref(3.0 + 0.0j)
    assert abs(value - oracle) / oracle < 1e-12
    assert abs(value - 1.2020569031595943) < 1e-13


def test_weights_are_the_exact_rationals_rounded_once():
    # w_k = (d_n - d_k) / d_n, d_k = n sum_{j<=k} (n+j-1)! 4^j / ((n-j)! (2j)!),
    # in exact rationals; the table pairs (-1)^k w_k with log(k + 1).
    n = _TERMS
    d, acc = [], Fraction(0)
    for j in range(n + 1):
        acc += Fraction(
            math.factorial(n + j - 1) * 4**j, math.factorial(n - j) * math.factorial(2 * j)
        )
        d.append(n * acc)
    expected = [((-1) ** k * float((d[n] - d[k]) / d[n]), math.log(k + 1)) for k in range(n)]
    assert list(_weights()) == expected


def test_real_axis_realness_and_sign():
    for sigma in (0.3, 0.5, 0.7, 0.9, 1.5, 3.0):
        value = zeta_ref(complex(sigma, 0.0))
        assert value.imag == 0.0
        if sigma < 1.0:
            assert value.real < 0.0
        else:
            assert value.real > 0.0


def test_accuracy_against_mpmath():
    # The fixed 64-term depth is accurate up to |t| = 50.
    with mpmath.workdps(30):
        for sigma in (0.55, 0.8, 2.0):
            for t in (0.0, 10.0, 50.0):
                s = complex(sigma, t)
                exact = complex(mpmath.zeta(mpmath.mpc(sigma, t)))
                value = zeta_ref(s)
                assert abs(value - exact) / abs(exact) < 1e-12, f"error at s={s}"


def test_eta_factor_zeros_stay_finite():
    # 1 - 2^(1-s) vanishes at s = 1 + 2 pi i k / ln 2; zeta itself is finite.
    for k in (1, -1):
        s = complex(1.0, 2.0 * math.pi * k / LN2)
        value = zeta_ref(s)
        assert cmath.isfinite(value)
        nearby = zeta_ref(s + 1e-3j)
        assert abs(value - nearby) < 1e-2


def test_pole_guard():
    with pytest.raises(PoleProximityError):
        zeta_ref(1.0 + 1e-9j)
    with pytest.raises(PoleProximityError):
        zeta_ref(complex(1.0 + 1e-7, 0.0))


def test_domain_rejects_left_half_plane():
    with pytest.raises(DomainError):
        zeta_ref(-1.0 + 0.0j)
    with pytest.raises(DomainError):
        zeta_ref(0.0 + 5.0j)


def test_conjugate_symmetry():
    for s in (0.7 + 13.0j, 2.0 + 31.0j):
        assert zeta_ref(s.conjugate()) == zeta_ref(s).conjugate()
