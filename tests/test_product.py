import cmath
import math
import warnings
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eulerprod import product
from eulerprod import (
    EULER_GAMMA,
    DomainError,
    EulerProductError,
    ProductVariant,
    SingularFactorError,
    SingularityError,
    corrected_product,
    e1,
    log_raw_product,
    mertens_ratio,
    prime_zeta_truncated,
    sieve,
    zeta_ref,
)

ZETA = ProductVariant.ZETA
INVERSE = ProductVariant.INVERSE_ZETA
RATIO = ProductVariant.RATIO_ZETA2S_OVER_ZETA

# (coefficient, sign) per variant: the log sum is coeff * sum log(1 + sign*p^-s).
SHAPES = {ZETA: (-1.0, -1.0), INVERSE: (1.0, -1.0), RATIO: (-1.0, 1.0)}


def fsum_log_raw(s, table, variant, real_exp=True):
    """log_raw_product's terms, each part summed by one math.fsum.

    Like the kernel, real s > 0 makes p^-s with a real exp, takes each term
    as log1p(sign * p^-s) and has no imaginary terms.  ``real_exp=False``
    makes every p^-s with the complex exp, the formula for all other s.
    """
    coeff, sign = SHAPES[variant]
    s = complex(s)
    if real_exp and s.imag == 0.0 and s.real > 0.0:
        re = np.log1p(sign * np.exp(-s.real * table.log_primes))
        return coeff * complex(math.fsum(re.tolist()))
    w = np.exp(-s * table.log_primes)
    a, b = sign * w.real, sign * w.imag
    re = 0.5 * np.log1p(2.0 * a + a * a + b * b)
    im = np.arctan2(b, 1.0 + a)
    return coeff * complex(math.fsum(re.tolist()), math.fsum(im.tolist()))


def writes(terms):
    """A ``_prime_sums`` callback: ``terms`` has one row per quantity, and
    each block's columns of it are written into ``out``."""

    def fill(block, out, work):
        out[...] = terms[:, block]

    return fill


def mpmath_log_raw(s, table, variant):
    """coeff * sum log(1 + sign p^-s) over the table, to 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    coeff, sign = SHAPES[variant]
    with mpmath.workdps(30):
        exact = coeff * mpmath.fsum(
            mpmath.log(1 + sign * mpmath.mpf(int(p)) ** -mpmath.mpc(s))
            for p in table.primes
        )
        return complex(exact)


# ---------------------------------------------------------------- log_raw


def test_log_raw_hand_value():
    # Four factors at s = 2: (1-1/4)(1-1/9)(1-1/25)(1-1/49) = 27648/44100,
    # so the zeta-shaped log sum is exactly log(44100/27648) = 0.46690638...
    table = sieve(10)
    value = log_raw_product(2.0 + 0.0j, table, ZETA)
    assert abs(value - math.log(44100 / 27648)) < 1e-14
    assert value.imag == 0.0


def test_log_raw_empty_product():
    table = sieve(1)
    for variant in ProductVariant:
        assert log_raw_product(1.7 + 3.0j, table, variant) == 0.0


def test_log_raw_exact_negation(table_1e4):
    # The zeta and inverse-zeta log sums are the same sum with opposite
    # coefficient, so they negate exactly in floating point.
    for s in (2.0 + 0.0j, 0.8 + 17.0j, 1.3 - 42.0j):
        a = log_raw_product(s, table_1e4, ZETA)
        b = log_raw_product(s, table_1e4, INVERSE)
        assert a == -b


def test_log_raw_singular_factor():
    # At s = 1e-18, 2^-s rounds to 1: the real path finds the factor too.
    table = sieve(10)
    for s in (0.0 + 0.0j, 1e-18):
        with pytest.raises(SingularFactorError) as info:
            log_raw_product(s, table, ZETA)
        assert info.value.prime == 2


@pytest.mark.parametrize("s", [0, 1e-18, 0j])
@pytest.mark.parametrize("variant", [ZETA, INVERSE])
def test_dead_factor_is_found_after_the_sum(s, variant, monkeypatch):
    # Blocks of 7 put the dead factor of prime 2 in the first of many
    # blocks.  Its -inf term reaches the sum, and only then is the table
    # scanned for it, without a numpy warning on the way.
    monkeypatch.setattr(product, "_BLOCK_TERMS", 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularFactorError) as info:
            log_raw_product(s, sieve(100), variant)
    assert info.value.prime == 2


def test_log_raw_blocks_agree_with_one_block_and_mpmath(table_1e4, monkeypatch):
    # 1229 primes fit in one block by default; blocks of 7 split them into
    # 176.  Every block passes its partials on unrounded to one final fsum,
    # so the two agree (bit for bit in test_blocked_log_raw_equals_one_fsum).
    # Against mpmath the bound covers the rounding of each term.
    points = (2.0 + 0.0j, 0.8 + 17.0j, 0.55 - 3.0j, 1.3 + 42.0j)
    one_block = {
        (s, v): log_raw_product(s, table_1e4, v) for s in points for v in ProductVariant
    }
    monkeypatch.setattr(product, "_BLOCK_TERMS", 7)
    for s in points:
        for variant in ProductVariant:
            blocked = log_raw_product(s, table_1e4, variant)
            assert abs(blocked - one_block[s, variant]) < 1e-14
            assert abs(blocked - mpmath_log_raw(s, table_1e4, variant)) < 1e-13
    with pytest.raises(SingularFactorError) as info:
        log_raw_product(0.0 + 0.0j, table_1e4, ZETA)
    assert info.value.prime == 2


@pytest.mark.parametrize("s", [0.55, 0.8, 1.3, 2.0, 3.5])
def test_real_log_raw_matches_mpmath(table_1e4, s):
    # Real s > 0 takes the real-exp path, one log1p(u) per term.  Its error
    # against a 30-digit sum is bounded by the rounding of each term
    # (measured at most 1.27 units of 2^-53 sum|term|, as for the complex
    # formula).  All terms of one variant share a sign, so |sum| is
    # sum|term|.
    for variant in ProductVariant:
        value = log_raw_product(s, table_1e4, variant)
        magnitude = abs(fsum_log_raw(s, table_1e4, variant).real)
        assert value.imag == 0.0
        assert abs(value.real - mpmath_log_raw(s, table_1e4, variant).real) <= (
            4 * 2.0**-53 * magnitude
        )


def test_real_path_matches_complex_formula(table_1e4):
    # Real s > 0, including (0, 1/2], gives the complex formula's sum to a
    # few ulp (numpy's real exp and the real part of its complex exp may
    # differ in the last bit, and log1p(u) rounds otherwise than
    # log1p(2a + a^2)/2; measured at most 1 ulp here), and exactly its
    # imaginary part, sign too.
    # Real s < 0 stays on the complex formula bit for bit: there
    # 1 - p^-s < 0, so each zeta-shaped factor's log has imaginary part pi.
    for s in np.linspace(0.025, 3.5, 140):
        for variant in ProductVariant:
            value = log_raw_product(s, table_1e4, variant)
            formula = fsum_log_raw(s, table_1e4, variant, real_exp=False)
            assert abs(value.real - formula.real) <= 4 * math.ulp(formula.real)
            assert repr(value.imag) == repr(formula.imag)
    for s in (-1.0, -0.5, -0.25):
        for variant in ProductVariant:
            formula = fsum_log_raw(s, table_1e4, variant, real_exp=False)
            assert log_raw_product(s, table_1e4, variant) == formula


def test_blocked_prime_sums_agree_with_one_block(table_1e4, monkeypatch):
    one_block = (
        mertens_ratio(table_1e4),
        prime_zeta_truncated(2.0, table_1e4),
        prime_zeta_truncated(0.7 + 9.0j, table_1e4),
    )
    monkeypatch.setattr(product, "_BLOCK_TERMS", 7)
    blocked = (
        mertens_ratio(table_1e4),
        prime_zeta_truncated(2.0, table_1e4),
        prime_zeta_truncated(0.7 + 9.0j, table_1e4),
    )
    for a, b in zip(one_block, blocked):
        assert abs(a - b) < 1e-14
    assert isinstance(blocked[0], float)


# ------------------------------------------------------------ per-prime sums


def test_every_block_writes_into_one_work_array(table_1e4, monkeypatch):
    # Blocks of 7 split the 1229 primes into 176.  Every block of one call
    # writes its terms and their intermediate values into the same array.
    monkeypatch.setattr(product, "_BLOCK_TERMS", 7)
    prime_sums = product._prime_sums
    calls = []

    def spy(count, rows, terms, scratch=0):
        addresses = []

        def recording(block, out, work):
            addresses.append((out.ctypes.data, work.ctypes.data))
            terms(block, out, work)

        calls.append(addresses)
        return prime_sums(count, rows, recording, scratch)

    monkeypatch.setattr(product, "_prime_sums", spy)
    log_raw_product(0.8, table_1e4, ZETA)
    log_raw_product(0.8 + 17.0j, table_1e4, RATIO)
    prime_zeta_truncated(0.7 + 9.0j, table_1e4)
    prime_zeta_truncated(2.0, table_1e4)
    mertens_ratio(table_1e4)
    assert len(calls) == 5
    for addresses in calls:
        assert len(addresses) == 176
        assert len(set(addresses)) == 1


@pytest.mark.parametrize(
    "s",
    [0.6, 0.8, 1.2, 2.0, 3.5, 0.55 + 0.5j, 0.55 + 14.134725j, 0.55 - 40.0j, 0.55 + 100.0j],
)
def test_log_raw_equals_one_fsum_at_1e6(table_1e6, s):
    # 78498 primes make 3 blocks at the shipped block size, so this checks
    # the default multi-block path.  The extraction's last partial is
    # rounded, but it misses fsum's bits only within ~n 2^-104 sum|term| of
    # a rounding boundary.
    assert table_1e6.count > product._BLOCK_TERMS
    for variant in ProductVariant:
        assert log_raw_product(s, table_1e6, variant) == fsum_log_raw(s, table_1e6, variant)


def test_prime_sums_equal_fsum_at_every_width():
    # Widths 0 to 300: no terms, one, and every extraction width m
    # (2^m >= n + 2) up to 9, on both sides of each step.
    rng = np.random.default_rng(2005)
    for width in range(301):
        terms = rng.standard_normal((2, width)) * np.exp(rng.uniform(-40, 40, (2, width)))
        sums = product._prime_sums(width, 2, writes(terms))
        assert sums == [math.fsum(row) for row in terms.tolist()]


@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, min_value=-2.0**900,
                  max_value=2.0**900),
        max_size=300,
    ),
    block_terms=st.integers(min_value=1, max_value=400),
)
@example(values=[2.0, 3.602879701896397e16, 3.5770349121623523e-69, 2.0], block_terms=1 << 17)
def test_prime_sums_error_bound(values, block_terms):
    # The extraction's sum is within 2^-53 |exact| + n 2^-104 sum|x| of the
    # exact sum.  The example's exact sum lies just above a tie: a sum that
    # loses the 3.6e-69 rounds to even, 4 below it.  The extraction keeps
    # the 3.6e-69 as a partial of its own, so fsum rounds up.
    terms = np.array([values], dtype=np.float64).reshape(1, len(values))
    with mock.patch.object(product, "_BLOCK_TERMS", block_terms):
        (total,) = product._prime_sums(len(values), 1, writes(terms))
    exact = sum(map(Fraction, values), Fraction(0))
    magnitude = sum((abs(Fraction(v)) for v in values), Fraction(0))
    bound = abs(exact) / 2**53 + len(values) * magnitude / 2**104
    assert abs(Fraction(total) - exact) <= bound


@pytest.mark.parametrize("block_terms", [7, 1 << 13])
def test_blocked_log_raw_equals_one_fsum(table_1e4, table_1e6, monkeypatch, block_terms):
    # Many blocks give the bits of one fsum over all terms: no block sum is
    # rounded on the way.
    table = table_1e4 if block_terms < table_1e4.count else table_1e6
    monkeypatch.setattr(product, "_BLOCK_TERMS", block_terms)
    for s in (2.0 + 0.0j, 0.8 + 17.0j, 0.55 - 3.0j, 1.3 + 42.0j, 0.6 + 0.0j):
        for variant in ProductVariant:
            assert log_raw_product(s, table, variant) == fsum_log_raw(s, table, variant)


def assert_exact_to_bound(values):
    """One _prime_sums row of ``values`` is math.fsum's, and within the
    documented 2^-53 |exact| + n 2^-104 sum|x| of the exact sum."""
    terms = np.array([values])
    (total,) = product._prime_sums(len(values), 1, writes(terms))
    exact = sum(map(Fraction, values), Fraction(0))
    magnitude = sum((abs(Fraction(v)) for v in values), Fraction(0))
    bound = abs(exact) / 2**53 + len(values) * magnitude / 2**104
    assert abs(Fraction(total) - exact) <= bound
    assert total == math.fsum(values)


def test_prime_sums_exact_at_the_shipped_block_size():
    # Two full blocks and three terms at the default block size, magnitudes
    # from 2^-60 to 2^60, half of them cancelled to 2^-40 by near-negatives.
    # The sum is then so far below sum|x| that one extraction level and a
    # rounded sum of its remainders misses fsum's bits.
    rng = np.random.default_rng(2008)
    n = 2 * product._BLOCK_TERMS + 3
    k = n // 2
    half = rng.choice([-1.0, 1.0], k + 1) * np.exp2(rng.uniform(-60, 60, k + 1))
    near = -half[:k] * (1.0 + rng.uniform(-(2.0**-40), 2.0**-40, k))
    values = np.concatenate([half, near])
    rng.shuffle(values)
    assert_exact_to_bound(values.tolist())


def test_prime_sums_exact_on_subnormals_and_huge_blocks():
    # Subnormals: sigma is tiny and its second level underflows.  A largest
    # term of 2^1020 would overflow sigma, so that block goes to fsum.
    rng = np.random.default_rng(1074)
    n = product._BLOCK_TERMS
    tiny = rng.integers(-1000, 1000, n) * 2.0**-1074
    tiny[::97] = 2.0**-1074
    assert_exact_to_bound(tiny.tolist())
    huge = rng.choice([-1.0, 1.0], n) * np.exp2(rng.uniform(-60, 60, n))
    huge[n // 2] = 2.0**1020
    assert_exact_to_bound(huge.tolist())


def test_prime_sums_do_not_raise_on_overflow():
    # math.fsum raises on both; the sums are +inf and nan.
    terms = np.array([[1.7e308, 1.7e308], [math.inf, -math.inf]])
    overflow, both = product._prime_sums(2, 2, writes(terms))
    assert overflow == math.inf
    assert math.isnan(both)


# ---------------------------------------------------------- corrected_product


def test_corrected_zeta_at_two(table_1e4):
    ev = corrected_product(2.0 + 0.0j, table_1e4, ZETA)
    assert abs(ev.value - 1.6449340668482264) < 1e-3
    assert abs(ev.value - ZETA.reference(2.0)) < 1e-3
    assert not ev.outside_domain and not ev.on_cut


def test_corrected_ratio_at_two(table_1e4):
    # zeta(4)/zeta(2) = pi^2/15.
    ev = corrected_product(2.0 + 0.0j, table_1e4, RATIO)
    assert abs(ev.value - math.pi**2 / 15.0) < 1e-3


def test_pole_is_hard_error(table_1e3):
    with pytest.raises(SingularityError):
        corrected_product(1.0 + 0.0j, table_1e3, ZETA)


def test_truncation_one_is_singular():
    with pytest.raises(SingularityError):
        corrected_product(2.0 + 0.0j, sieve(1), ZETA)


def test_inverse_vanishes_near_one(table_1e3):
    for s in (1.0 + 1e-3, 1.0 - 1e-3):
        ev = corrected_product(complex(s, 0.0), table_1e3, INVERSE)
        assert abs(ev.value) < 1e-2


def test_value_consistency_invariant(table_1e3):
    ev = corrected_product(0.8 + 9.0j, table_1e3, ZETA)
    assert ev.value == cmath.exp(ev.log_raw_product + ev.correction)


def test_outside_domain_is_flagged(table_1e3):
    ev = corrected_product(0.4 + 3.0j, table_1e3, ZETA)
    assert ev.outside_domain


def test_on_cut_flag(table_1e3):
    on = corrected_product(0.7 + 0.0j, table_1e3, ZETA)
    off = corrected_product(0.7 + 5.0j, table_1e3, ZETA)
    assert on.on_cut and not off.on_cut


def test_real_axis_value_is_real_negative(table_1e3):
    # With the from-above cut, exp picks up exp(-i pi) = -1 on (1/2, 1) and
    # the imaginary residue is pure rounding noise.
    for sigma in (0.55, 0.7, 0.9):
        ev = corrected_product(complex(sigma, 0.0), table_1e3, ZETA)
        assert ev.value.real < 0.0
        bound = 10.0 * 1000.0 ** (0.5 - sigma) * math.log(1000.0)
        assert abs(ev.value.imag) / abs(ev.value) < bound


def test_zeta_times_inverse_is_one(table_1e3):
    rng = np.random.default_rng(11)
    for _ in range(25):
        s = complex(rng.uniform(0.51, 3.0), rng.uniform(-50.0, 50.0))
        a = corrected_product(s, table_1e3, ZETA).value
        b = corrected_product(s, table_1e3, INVERSE).value
        assert abs(a * b - 1.0) < 1e-12


def test_ratio_times_zeta_recombines(table_1e3):
    rng = np.random.default_rng(12)
    for _ in range(25):
        s = complex(rng.uniform(0.51, 3.0), rng.uniform(-50.0, 50.0))
        lhs = (
            corrected_product(s, table_1e3, RATIO).value
            * corrected_product(s, table_1e3, ZETA).value
        )
        rhs = cmath.exp(log_raw_product(2 * s, table_1e3, ZETA))
        assert abs(lhs - rhs) / abs(rhs) < 1e-12


def test_conjugate_symmetry(table_1e3):
    rng = np.random.default_rng(13)
    for variant in ProductVariant:
        for _ in range(10):
            s = complex(rng.uniform(0.51, 3.0), rng.uniform(0.1, 50.0))
            a = corrected_product(s, table_1e3, variant).value
            b = corrected_product(s.conjugate(), table_1e3, variant).value
            assert abs(b - a.conjugate()) <= 1e-12 * abs(a)


def test_monotone_improvement(table_1e3, table_1e5):
    # The absolute error shrinks with x everywhere on this grid.
    for sigma in np.linspace(0.55, 1.0, 10):
        s = complex(sigma, 5.0)
        coarse = abs(corrected_product(s, table_1e3, ZETA).value - zeta_ref(s))
        fine = abs(corrected_product(s, table_1e5, ZETA).value - zeta_ref(s))
        assert fine < coarse, f"no improvement at sigma={sigma}"


def test_reference_per_variant(table_1e3):
    s = 1.4 + 7.0j
    assert ZETA.reference(s) == zeta_ref(s)
    assert INVERSE.reference(s) == 1.0 / zeta_ref(s)
    assert RATIO.reference(s) == zeta_ref(2 * s) / zeta_ref(s)


@pytest.mark.parametrize(
    "call",
    [
        lambda table: corrected_product(complex(math.nan), table),
        lambda table: corrected_product(complex(1.5, math.inf), table),
        lambda table: prime_zeta_truncated(math.nan, table),
        lambda table: zeta_ref(math.nan),
        lambda table: zeta_ref(complex(2.0, math.inf)),
        lambda table: e1(complex(-math.inf, 0.0)),
    ],
    ids=["product-nan", "product-inf-t", "prime-zeta-nan", "zeta-ref-nan",
         "zeta-ref-inf-t", "e1-minus-inf"],
)
def test_non_finite_arguments_are_domain_errors(call, table_1e3):
    # Refused up front, not after 10^4 continued-fraction iterations or
    # as a nan reference.
    with pytest.raises(DomainError, match="finite argument"):
        call(table_1e3)


# ------------------------------------------------- second correction order


def test_order_two_is_order_one_outside_the_strip(table_1e3):
    # The prime-square term applies only on 1/2 < Re(s) < 1; elsewhere
    # order 2 must return the paper's evaluation bit for bit.
    points = (1.0 + 3.0j, 1.2 + 0.0j, 2.0 - 7.0j, 0.5 + 4.0j, 0.45 + 0.0j, 0.3 - 2.0j)
    for variant in ProductVariant:
        for s in points:
            first = corrected_product(s, table_1e3, variant)
            second = corrected_product(s, table_1e3, variant, order=2)
            assert (first.order, second.order) == (1, 2)
            assert replace(second, order=1) == first


def test_order_two_zeta_times_inverse_is_one(table_1e3, table_1e5):
    rng = np.random.default_rng(14)
    for table in (table_1e3, table_1e5):
        for _ in range(25):
            t = 0.0 if rng.uniform() < 0.2 else rng.uniform(-50.0, 50.0)
            s = complex(rng.uniform(0.5 + 1e-6, 1.0), t)
            a = corrected_product(s, table, ZETA, order=2).value
            b = corrected_product(s, table, INVERSE, order=2).value
            assert abs(a * b - 1.0) < 1e-12


def test_order_two_term_matches_mpmath(table_1e3, table_1e5):
    # Order 2 adds (E1[(2s-1) L] - E1[(s-1/2) L]) / 2 to the zeta correction,
    # its negative to the inverse, and (E1[(2s-1) L] + E1[(s-1/2) L]) / 2 to
    # the ratio, with L = log x.
    mpmath = pytest.importorskip("mpmath")
    signs = {ZETA: (1, -1), INVERSE: (-1, 1), RATIO: (1, 1)}
    rng = np.random.default_rng(15)
    for table in (table_1e3, table_1e5):
        for _ in range(10):
            t = 0.0 if rng.uniform() < 0.3 else rng.uniform(-40.0, 40.0)
            s = complex(rng.uniform(0.5 + 1e-3, 1.0), t)
            with mpmath.workdps(30):
                log_x = mpmath.log(table.limit)
                big = mpmath.e1((2 * mpmath.mpc(s) - 1) * log_x)
                half = mpmath.e1((mpmath.mpc(s) - 0.5) * log_x)
                expected = {
                    variant: complex((a * big + b * half) / 2)
                    for variant, (a, b) in signs.items()
                }
            for variant in signs:
                first = corrected_product(s, table, variant).correction
                second = corrected_product(s, table, variant, order=2).correction
                assert abs((second - first) - expected[variant]) < 1e-12


def test_unknown_order_rejected(table_1e3):
    for order in (0, 3):
        with pytest.raises(ValueError):
            corrected_product(2.0 + 0.0j, table_1e3, ZETA, order=order)


# ------------------------------------------------------------- prime zeta


def mobius(n: int) -> int:
    if n == 1:
        return 1
    m = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            m = -m
        d += 1
    if n > 1:
        m = -m
    return m


def prime_zeta_mobius(sigma: float, n_max: int = 60) -> complex:
    """Independent oracle: P(s) = sum_n mu(n)/n log zeta(n s), taking the
    limit from above on the cut (the n = 1 term picks up -i pi when
    zeta(sigma) < 0)."""
    total = 0.0 + 0.0j
    for n in range(1, n_max + 1):
        mu = mobius(n)
        if mu == 0:
            continue
        zv = zeta_ref(complex(n * sigma, 0.0))
        log_zeta = (
            complex(math.log(-zv.real), -math.pi) if zv.real < 0 else cmath.log(zv)
        )
        total += mu / n * log_zeta
    return total


def test_prime_zeta_at_two(table_1e6):
    # Direct-sum oracle: fsum of p^-2 over p <= 1e8 gives 0.4522474195249067
    # with a tail between 5.1e-10 and 5.5e-10, hence 0.45224742005(4) +- 2e-11.
    value = prime_zeta_truncated(2.0 + 0.0j, table_1e6)
    assert abs(value - 0.4522474200539) < 1e-9
    assert value.imag == 0.0


def test_prime_zeta_against_mobius_oracle(table_1e5, table_1e6):
    oracle = prime_zeta_mobius(0.7)
    assert abs(oracle.imag + math.pi) < 1e-12
    # Truncation error at sigma = 0.7 decays like x^-0.2 log x: measured
    # 1.9e-2 at x = 1e5 and 7.4e-3 at x = 1e6.
    assert abs(prime_zeta_truncated(0.7 + 0.0j, table_1e5) - oracle) < 2.5e-2
    assert abs(prime_zeta_truncated(0.7 + 0.0j, table_1e6) - oracle) < 1e-2


def test_prime_zeta_truncation_one_is_singular():
    with pytest.raises(SingularityError):
        prime_zeta_truncated(2.0 + 0.0j, sieve(1))


def test_prime_zeta_branch_point(table_1e3):
    with pytest.raises(SingularityError):
        prime_zeta_truncated(1.0 + 0.0j, table_1e3)


@pytest.mark.parametrize("s", [-102.7, -800 + 5j])
def test_prime_zeta_overflow_is_a_library_error(s):
    # Far left p^-s overflows: the head sum is +inf (s = -102.7) or holds
    # both infinities (s = -800 + 5i).
    with pytest.raises(EulerProductError, match="not finite"):
        prime_zeta_truncated(s, sieve(1000))


def test_prime_zeta_large_finite_head_is_exact():
    # At s = -100 the terms reach 9.9e299 and the sum 9.2478e298 stays
    # finite: one fsum per part of p^-s from the complex exp, plus E1.
    table = sieve(1000)
    w = np.exp(100.0 * table.log_primes.astype(complex))
    head = complex(math.fsum(w.real.tolist()), math.fsum(w.imag.tolist()))
    value = prime_zeta_truncated(-100, table)
    assert value == head + e1(-101.0 * math.log(1000)).value
    assert abs(value.real / 9.2478e298 - 1.0) < 1e-4


# ----------------------------------------------------------------- mertens


def test_mertens_hand_value():
    # Primes up to 10: product 2 * 3/2 * 5/4 * 7/6 = 4.375 over e^gamma ln 10.
    table = sieve(10)
    hand = 4.375 / (math.exp(EULER_GAMMA) * math.log(10.0))
    assert abs(mertens_ratio(table) - hand) < 1e-12
    assert abs(mertens_ratio(table) - 1.06686) < 1e-4


def test_mertens_converges(table_1e3):
    assert abs(mertens_ratio(table_1e3) - 1.0) < 0.1


def test_mertens_monotone_trend(table_1e2, table_1e4):
    r_small = mertens_ratio(table_1e2)
    r_large = mertens_ratio(table_1e4)
    assert r_small > r_large > 1.0 - 0.05


def test_mertens_empty_product():
    with pytest.raises(SingularityError):
        mertens_ratio(sieve(1))
