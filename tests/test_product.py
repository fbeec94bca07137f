import cmath
import math
import os
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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


def fake_cores(monkeypatch, n):
    """Fakes a CPU affinity of ``n`` cores, read by every sum large enough
    for a second worker, and a pinning call that does nothing.  Returns the
    list that each read of the affinity appends to."""
    reads = []

    def affinity(pid):
        reads.append(pid)
        return set(range(n))

    monkeypatch.setattr(os, "sched_getaffinity", affinity, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: None, raising=False)
    return reads


def record_pins(monkeypatch, threads):
    """Records each pin of a thread to cores as (thread, mask).  Each pin
    waits until ``threads`` threads have pinned, so every share of a sum has
    its own pool thread however fast the first share runs."""
    pins = []
    barrier = threading.Barrier(threads, timeout=10)

    def pin(pid, mask):
        pins.append((threading.current_thread(), set(mask)))
        barrier.wait()

    monkeypatch.setattr(os, "sched_setaffinity", pin, raising=False)
    return pins


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
def test_dead_factor_is_found_in_the_summing_pass(s, variant, monkeypatch):
    # Blocks of 7 put the dead factor of prime 2 in the first of many
    # blocks.  The pass that sums its -inf term also names its prime,
    # without a numpy warning on the way.
    monkeypatch.setattr(product, "_BLOCK_TERMS", 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularFactorError) as info:
            log_raw_product(s, sieve(100), variant)
    assert info.value.prime == 2


@pytest.mark.parametrize("s", [1e-18 + 1e-300j, 1e-18 - 1e-300j, 1e-17 + 1e-20j])
@pytest.mark.parametrize("variant", [ZETA, INVERSE])
def test_dead_factor_off_the_real_axis_is_found(s, variant):
    # Re 2^-s rounds to 1 while Im 2^-s is tiny but not 0: 2a + a^2 + b^2
    # rounds to -1, so the term is -inf though 1 - 2^-s is not exactly 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularFactorError) as info:
            log_raw_product(s, sieve(1000), variant)
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
    # Blocks of 7 split the 1229 primes into 176, dealt to two workers.
    # Every block a worker takes writes its terms into one half of that
    # worker's one array and their intermediate values into the other, of
    # the same shape, so a call shows at most two addresses.  A dead factor
    # is named by the call that sums it: six sums make six calls.
    monkeypatch.setattr(product, "_BLOCK_TERMS", 7)
    fake_cores(monkeypatch, 2)
    prime_sums = product._prime_sums
    calls = []

    def spy(count, rows, terms):
        addresses = []

        def recording(block, out, work):
            assert work.shape == out.shape
            addresses.append((out.ctypes.data, work.ctypes.data))
            terms(block, out, work)

        calls.append(addresses)
        return prime_sums(count, rows, recording)

    monkeypatch.setattr(product, "_prime_sums", spy)
    log_raw_product(0.8, table_1e4, ZETA)
    log_raw_product(0.8 + 17.0j, table_1e4, RATIO)
    prime_zeta_truncated(0.7 + 9.0j, table_1e4)
    prime_zeta_truncated(2.0, table_1e4)
    mertens_ratio(table_1e4)
    with pytest.raises(SingularFactorError) as info:
        log_raw_product(1e-18, table_1e4, ZETA)
    assert info.value.prime == 2
    assert len(calls) == 6
    for addresses in calls:
        assert len(addresses) == 176
        assert len(set(addresses)) <= 2


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
        sums, _ = product._prime_sums(width, 2, writes(terms))
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
        (total,), _ = product._prime_sums(len(values), 1, writes(terms))
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
    (total,), _ = product._prime_sums(len(values), 1, writes(terms))
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


def test_prime_sums_exact_on_subnormals():
    # Subnormals: sigma is tiny and its second level underflows.
    rng = np.random.default_rng(1074)
    n = product._BLOCK_TERMS
    tiny = rng.integers(-1000, 1000, n) * 2.0**-1074
    tiny[::97] = 2.0**-1074
    assert_exact_to_bound(tiny.tolist())


def test_prime_sums_do_not_raise_on_overflow(monkeypatch):
    # math.fsum raises on both infinities; an inf or a nan decides a sum by
    # IEEE addition, also across blocks and workers.
    terms = np.array([[math.inf, -math.inf], [math.inf, 1.0]])
    (both, overflow), _ = product._prime_sums(2, 2, writes(terms))
    assert math.isnan(both)
    assert overflow == math.inf
    # Blocks of one term, dealt to two workers: each takes one infinity.
    monkeypatch.setattr(product, "_BLOCK_TERMS", 1)
    fake_cores(monkeypatch, 2)
    terms = np.concatenate([terms, np.ones((2, 7))], axis=1)
    (both, overflow), _ = product._prime_sums(9, 2, writes(terms))
    assert math.isnan(both)
    assert overflow == math.inf


def separate_calls(counts, rows, terms):
    """One _prime_sums call per count, sums as hex so that the bits compare."""
    calls = [product._prime_sums(count, rows, writes(terms)) for count in counts]
    return [([v.hex() for v in sums], firsts) for sums, firsts in calls]


SHIPPED = product._BLOCK_TERMS


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "block_terms, counts",
    [
        (7, [2, 5]),  # two counts inside one block
        (7, [3, 14, 30]),  # one on a block boundary, the others in other blocks
        (7, [0, 1, 5, 6, 7, 8, 60, 100, 101]),  # 15 full blocks, 2 workers
        (SHIPPED, [1229, 9592]),
        (SHIPPED, [1229, SHIPPED, SHIPPED + 1, 78498]),
        (SHIPPED, [9592, 78498, 8 * SHIPPED + 5]),  # 9 full blocks, 2 workers
    ],
)
def test_several_counts_give_each_count_the_bits_of_its_own_call(
    monkeypatch, block_terms, counts, workers
):
    # One pass sums each count's own blocks: every count's sums and first
    # -inf index are those of a call over that many terms, bit for bit,
    # however many workers share the pass.
    monkeypatch.setattr(product, "_BLOCK_TERMS", block_terms)
    fake_cores(monkeypatch, workers)
    rng = np.random.default_rng(len(counts) + block_terms)
    n = max(counts)
    terms = rng.standard_normal((2, n)) * np.exp(rng.uniform(-40, 40, (2, n)))
    one_pass = product._prime_sums(counts, 2, writes(terms))
    assert [([v.hex() for v in sums], firsts) for sums, firsts in one_pass] == (
        separate_calls(counts, 2, terms)
    )


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("block_terms", [7, SHIPPED])
def test_a_minus_inf_past_a_count_is_named_for_larger_counts_only(
    monkeypatch, block_terms, workers
):
    # Row 0 holds -inf at index d: the counts up to d do not reach it and
    # sum finite, every larger count sums -inf and names d.  Row 1 has no
    # -inf, and each count names its own length there.
    monkeypatch.setattr(product, "_BLOCK_TERMS", block_terms)
    fake_cores(monkeypatch, workers)
    d = 2 * block_terms + 3
    counts = [d // 2, d, d + 1, 9 * block_terms + 1]
    terms = np.random.default_rng(d).standard_normal((2, counts[-1]))
    terms[0, d] = -math.inf
    one_pass = product._prime_sums(counts, 2, writes(terms))
    for count, (sums, firsts) in zip(counts, one_pass):
        reached = count > d
        assert (sums[0] == -math.inf) is reached and math.isfinite(sums[1])
        assert firsts == [d if reached else count, count]
    assert [([v.hex() for v in sums], firsts) for sums, firsts in one_pass] == (
        separate_calls(counts, 2, terms)
    )


def test_no_worker_loses_a_row_decided_by_ieee_addition(monkeypatch):
    # The workers record every block's rows that hold an inf in one shared
    # table.  Row r holds one -inf per block from block r on, so each
    # count's first -inf in row r lies in block r: a lost record of any of
    # the first 8 blocks would name a later index.  Three workers on two
    # cores, switching threads every microsecond, lose none.
    monkeypatch.setattr(product, "_BLOCK_TERMS", 7)
    fake_cores(monkeypatch, 3)
    rows, n = 8, 7 * 40
    terms = np.ones((rows, n))
    for r in range(rows):
        for start in range(7 * r, n, 7):
            terms[r, start + start // 7 % 7] = -math.inf
    counts = [7 * 12 + 3, 7 * 30, n]
    expected = [
        [int(np.flatnonzero(row[:count] == -math.inf)[0]) for row in terms]
        for count in counts
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            one_pass = product._prime_sums(counts, rows, writes(terms))
            assert [firsts for _, firsts in one_pass] == expected
            assert all(sums == [-math.inf] * rows for sums, _ in one_pass)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "points", [[0.8 + 14.0j], [2.0, 0.6 + 0.0j], [0.55 + 3.0j, 0.7 - 9.0j]]
)
def test_log_raw_over_several_limits_equals_a_call_per_truncation(table_1e5, points):
    # One call over the deepest table gives, per limit, each point's sum
    # over p <= x: a call over table.truncate(x), bit for bit, also for a
    # limit that is no prime and for the table's own limit.
    limits = [10, 1000, 2000, 10**5]
    for variant in ProductVariant:
        assert log_raw_product(points, table_1e5, variant, limits=limits) == [
            log_raw_product(points, table_1e5.truncate(x), variant) for x in limits
        ]
        single = log_raw_product(points[0], table_1e5, variant, limits=limits)
        assert single == [log_raw_product(points[0], table_1e5.truncate(x), variant)
                          for x in limits]
    with pytest.raises(SingularFactorError) as info:
        log_raw_product(dead_at(7919), table_1e5, ZETA, limits=[100, 10**4])
    assert info.value.prime == 7919
    assert log_raw_product(dead_at(7919), table_1e5, ZETA, limits=[100, 7907]) == [
        log_raw_product(dead_at(7919), table_1e5.truncate(x), ZETA) for x in (100, 7907)
    ]


# ------------------------------------------------------------------- workers


@pytest.mark.parametrize("workers", [2, 3])
def test_worker_count_does_not_change_the_bits(table_1e4, monkeypatch, workers):
    # Blocks of 7 split the 1229 primes into 176, dealt strided to the
    # workers.  Each block's sums reach one exact fsum, whose result does not
    # depend on their order, so every worker count gives one worker's bits.
    monkeypatch.setattr(product, "_BLOCK_TERMS", 7)

    def quantities():
        values = [
            log_raw_product(s, table_1e4, variant)
            for s in (2.0, 0.6, 0.8 + 17.0j, 0.55 - 3.0j, -0.5)
            for variant in ProductVariant
        ]
        values += [prime_zeta_truncated(s, table_1e4) for s in (2.0, 0.7 + 9.0j)]
        values.append(mertens_ratio(table_1e4))
        return [repr(value) for value in values]

    fake_cores(monkeypatch, 1)
    one = quantities()
    fake_cores(monkeypatch, workers)
    assert quantities() == one


def test_workers_follow_the_affinity_at_call_time(table_1e4, monkeypatch):
    # Every large sum reads the cores it may use: an affinity that shrinks
    # to one core sums on the calling thread alone, and two cores make two
    # pinned pool threads with the same bits.
    monkeypatch.setattr(product, "_BLOCK_TERMS", 7)
    reads = fake_cores(monkeypatch, 1)
    pins = record_pins(monkeypatch, 2)
    one = log_raw_product(0.8 + 17.0j, table_1e4, ZETA)
    assert (len(reads), pins) == (1, [])
    reads = fake_cores(monkeypatch, 2)
    pins = record_pins(monkeypatch, 2)
    assert repr(log_raw_product(0.8 + 17.0j, table_1e4, ZETA)) == repr(one)
    assert len(reads) == 1
    assert len({thread for thread, _ in pins}) == 2
    assert threading.current_thread() not in {thread for thread, _ in pins}


def test_the_caller_never_changes_its_cpu_affinity(table_1e4, monkeypatch):
    # Each pool thread keeps to its own core of the caller's affinity, here
    # a fake {4, 6}, and the calling thread never pins, whether the sum
    # returns or raises.  Where the OS refuses, the sum runs unpinned.
    monkeypatch.setattr(product, "_BLOCK_TERMS", 7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {4, 6}, raising=False)
    pins = record_pins(monkeypatch, 2)
    caller = threading.current_thread()

    def pool_pins():
        assert caller not in {thread for thread, _ in pins}
        assert len({thread for thread, _ in pins}) == 2
        return sorted(tuple(mask) for _, mask in pins)

    value = log_raw_product(0.8 + 17.0j, table_1e4, ZETA)
    assert pool_pins() == [(4,), (6,)]

    def failing(s, log_primes, out):
        raise RuntimeError("every block")

    with monkeypatch.context() as patch:
        patch.setattr(product, "_prime_powers", failing)
        pins.clear()
        with pytest.raises(RuntimeError, match="every block"):
            log_raw_product(0.8 + 17.0j, table_1e4, ZETA)
    assert pool_pins() == [(4,), (6,)]

    def refuse(pid, mask):
        raise PermissionError("sched_setaffinity refused")

    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    assert log_raw_product(0.8 + 17.0j, table_1e4, ZETA) == value


def dead_at(p: int) -> complex:
    """s = 1e-18 + 2 pi i / log p, where p^-s rounds to 1.  For p = 3, 7919
    or 9973 it is the only prime up to 10^4 whose Euler factor vanishes
    there; the ratio's factors, 1 + p^-s, do not."""
    return 1e-18 + 2j * math.pi / math.log(p)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize(
    "s, prime",
    [
        pytest.param(s, prime, id=str(s))
        for s, prime in [(0j, 2), (1e-18, 2), (1e-18 + 1e-300j, 2),
                         (dead_at(7919), 7919), (dead_at(9973), 9973)]
    ],
)
def test_dead_factor_is_the_least_over_all_workers(
    table_1e4, monkeypatch, s, prime, workers
):
    # At s = 0 every factor vanishes, so every worker finds one; at 1e-18
    # only prime 2's does.  Blocks of 7 put 7919 and 9973 in blocks 142 and
    # 175, the last: on 2 cores 9973's is the second share's, on 3 both
    # are.  The summing pass names the least prime whose factor vanishes.
    monkeypatch.setattr(product, "_BLOCK_TERMS", 7)
    fake_cores(monkeypatch, workers)
    for variant in (ZETA, INVERSE):
        with pytest.raises(SingularFactorError) as info:
            log_raw_product(s, table_1e4, variant)
        assert info.value.prime == prime


def test_workers_raise_no_numpy_warning_where_p_s_overflows(table_1e4, monkeypatch):
    # numpy's error state is per thread: each worker sets its own, or p^200
    # would warn from the second worker.  Prime zeta refuses these points
    # before it makes a term.
    monkeypatch.setattr(product, "_BLOCK_TERMS", 7)
    fake_cores(monkeypatch, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (-200.0 + 3.0j, -200.0):
            for variant in ProductVariant:
                assert not cmath.isfinite(log_raw_product(s, table_1e4, variant))
            with pytest.raises(DomainError, match="Re\\(s\\) > 0"):
                prime_zeta_truncated(s, table_1e4)


def test_worker_exception_reaches_the_caller(table_1e4, monkeypatch):
    # Blocks are dealt strided, so block 0, primes 2 to 17, is the first
    # share's and block 1, primes 19 to 53, the second's.  Either share's
    # exception reaches the caller, and no pool thread outlives the call:
    # when the first share fails, the second is still summing.
    monkeypatch.setattr(product, "_BLOCK_TERMS", 7)
    fake_cores(monkeypatch, 2)
    record_pins(monkeypatch, 2)
    prime_powers = product._prime_powers
    owners = []
    threads = threading.active_count()
    for block in (0, 1):
        first = table_1e4.log_primes[7 * block]

        def failing(s, log_primes, out):
            if log_primes[0] == first:
                owners.append(threading.current_thread())
                raise RuntimeError(f"block {block}")
            prime_powers(s, log_primes, out)

        monkeypatch.setattr(product, "_prime_powers", failing)
        for s in (0.8, 0.8 + 17.0j):
            with pytest.raises(RuntimeError, match=f"block {block}"):
                log_raw_product(s, table_1e4, ZETA)
            assert threading.active_count() == threads
    assert len(owners) == 4
    assert threading.main_thread() not in owners


@pytest.mark.parametrize("workers", [2, 3])
def test_small_calls_start_no_thread(table_1e4, table_1e6, monkeypatch, workers):
    # x = 10^4 is one block and x = 10^6 three: below _BLOCKS_PER_WORKER
    # blocks for a second worker, so the calling thread sums them alone and
    # does not read the affinity.
    reads = fake_cores(monkeypatch, workers)

    def refuse(*args, **kwargs):
        raise AssertionError("a small sum started a thread")

    monkeypatch.setattr(threading, "Thread", refuse)
    for table, blocks in ((table_1e4, 1), (table_1e6, 3)):
        assert -(-table.count // product._BLOCK_TERMS) == blocks
        for s in (0.8, 0.8 + 17.0j):
            log_raw_product(s, table, RATIO)
            prime_zeta_truncated(s, table)
        mertens_ratio(table)
    assert reads == []


def test_far_left_sums_hold_no_more_memory_than_the_strip():
    # Far left nearly every term is inf or nan, and each block's row is
    # added up in place: the peak stays that of a call in the strip.
    table = sieve(10**7)

    def peak(s):
        tracemalloc.start()
        try:
            log_raw_product(s, table, ZETA)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    strip = peak(0.75 + 5.0j)
    for s in (-200.0 + 3.0j, -200.0):
        assert peak(s) < strip + 2**20


def test_complex_sum_holds_one_mib_work_array(table_1e4, table_1e6):
    # A complex call's work array is two rows of terms and two rows shaped
    # like them: 1 MiB at the shipped block size.  Measured 1,157 KiB at
    # its peak; an array of 1.25 MiB would not fit.  A batch of 26 points
    # at x = 10^4 writes 52 rows of 1,229 terms and 52 shaped like them,
    # just under 1 MiB: measured 1,068 KiB at its peak over 60 points.
    batch = [0.75 + t * 1j for t in range(60)]
    for s, table in ((0.75 + 5.0j, table_1e6), (batch, table_1e4)):
        tracemalloc.start()
        try:
            log_raw_product(s, table, ZETA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2**20


def same_bits(a: complex, b: complex) -> bool:
    """Whether a and b are the same number part by part, nan matching nan."""
    return all(x == y or (math.isnan(x) and math.isnan(y))
               for x, y in ((a.real, b.real), (a.imag, b.imag)))


@pytest.mark.parametrize("x", [10**2, 10**4, 10**5])
def test_a_batch_sums_each_point_as_its_own_call(x):
    # Points of one kind share one kernel call, up to _BLOCK_TERMS //
    # table.count of them: 1,310 at x = 10^2, 26 at 10^4, 3 at 10^5.  Each
    # row of the batch goes through its own point's operations, so every
    # sum is the single call's, bit for bit.  The points mix real s > 0
    # (the real formula), real s <= 0 and complex s (the complex one), and
    # far left every term is inf or nan.
    table = sieve(x)
    size = product._BLOCK_TERMS // table.count
    assert size == {10**2: 1310, 10**4: 26, 10**5: 3}[x]
    rng = np.random.default_rng(x)
    points = [
        *rng.uniform(0.05, 4.0, 40),
        *(rng.uniform(0.5, 2.0, 70) + 1j * rng.uniform(-60, 60, 70)),
        0.8, -0.5, -0.25 + 0.0j, 0.55 + 14.134725j, 2.0, 3.0,
        -200.0, -200.0 + 3.0j, -200.0 - 1.5j, -200.0 + 0.5j, 0.9 - 0.0j,
    ]
    runs = [len(batch) for batch in product.batches([complex(p) for p in points], table)]
    assert sum(runs) == len(points) and max(runs) == min(size, 70)
    for variant in ProductVariant:
        batched = log_raw_product(points, table, variant)
        assert len(batched) == len(points)
        for s, value in zip(points, batched):
            assert same_bits(value, log_raw_product(s, table, variant)), (s, variant)


@pytest.mark.parametrize(
    "points, dead",
    [
        ([2.0, 0.5, 1e-18, 3.0, 0j], 1e-18),
        ([0.8 + 1j, 1e-18 + 1e-300j, 0.5 - 3j, 1e-17 + 1e-20j], 1e-18 + 1e-300j),
        ([0.9, 1e-18 + 0j], 1e-18),
        ([0.8 + 1j, dead_at(9973), 0.5 - 3j, dead_at(7919)], dead_at(9973)),
    ],
)
@pytest.mark.parametrize("variant", [ZETA, INVERSE])
def test_a_dead_factor_in_a_batch_raises_as_its_point_does(points, dead, variant):
    # The first point of the sequence whose factor vanishes raises the
    # single call's SingularFactorError, message and prime included, also
    # where a later point of its batch would name a lesser prime (7919).
    # At x = 10^4 a batch holds up to 26 points, so each list makes one
    # batch per kind of point.
    table = sieve(10**4)
    with pytest.raises(SingularFactorError) as alone:
        log_raw_product(dead, table, variant)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularFactorError) as batched:
            log_raw_product(points, table, variant)
    assert batched.value.prime == alone.value.prime
    assert str(batched.value) == str(alone.value)


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


@settings(max_examples=40, deadline=None)
@given(
    sigma=st.floats(0.5, 3.0, exclude_min=True),
    t=st.one_of(st.just(0.0), st.floats(0.0, 0.1), st.floats(0.0, 100.0)),
    variant=st.sampled_from(list(ProductVariant)),
    order=st.sampled_from([1, 2]),
    x=st.sampled_from([10**2, 10**3, 10**4]),
)
@example(sigma=0.55, t=0.0391, variant=ZETA, order=2, x=10**4)  # next to the cut
def test_corrected_product_matches_mpmath(
    table_1e2, table_1e3, table_1e4, sigma, t, variant, order, x
):
    # The same truncated, corrected product to 30 digits: log1p per prime,
    # and E1 for each correction term.  Each term's log errs by about 2^-53
    # (|term| + |s| log p |p^-s|), the last from rounding s log p, and the
    # correction by 2^-53 |correction|; their sum is the value's relative
    # error.  The E1 wedge next to the cut once made this 54 times as large.
    s = complex(sigma, t)
    # Within 1e-300 of s = 1 zeta(s) ~ 1/(s - 1) is beyond double range, and
    # the zeta product rightly refuses (see the test after this one).
    assume(abs(s - 1) > 1e-300)
    table = {10**2: table_1e2, 10**3: table_1e3, 10**4: table_1e4}[x]
    value = corrected_product(s, table, variant, order).value
    coeff, sign = SHAPES[variant]
    weights = {ZETA: (1, 1, -1), INVERSE: (-1, -1, 1), RATIO: (-1, 1, 1)}[variant]
    with mpmath.workdps(30):
        s_mp = mpmath.mpc(sigma, t)
        log_x = mpmath.log(x)
        log_sum = coeff * mpmath.fsum(
            mpmath.log1p(sign * mpmath.mpf(int(p)) ** -s_mp) for p in table.primes
        )
        correction = weights[0] * mpmath.e1((s_mp - 1) * log_x)
        if order == 2 and 0.5 < sigma < 1.0:
            correction += (
                weights[1] * mpmath.e1((2 * s_mp - 1) * log_x)
                + weights[2] * mpmath.e1((s_mp - 0.5) * log_x)
            ) / 2
        ref = complex(mpmath.exp(log_sum + correction))
        power = np.exp(-s * table.log_primes)
        scale = float(
            np.sum(np.abs(np.log1p(sign * power)) + abs(s) * table.log_primes * np.abs(power))
        ) + abs(complex(correction))
    assert abs(value - ref) <= 8 * 2.0**-53 * scale * abs(ref)


@pytest.mark.parametrize("order", [1, 2])
def test_zeta_product_overflows_next_to_its_pole(table_1e2, table_1e3, table_1e4, order):
    # At s = 1 + 2.2e-311i, zeta(s) ~ 1/(s - 1) lies beyond double range: the
    # zeta product refuses, and its inverse and the ratio are tiny instead.
    s = 1 + 2.225073858507e-311j
    for table in (table_1e2, table_1e3, table_1e4):
        with pytest.raises(EulerProductError, match="overflows double precision"):
            corrected_product(s, table, ZETA, order)
        for variant in (INVERSE, RATIO):
            assert 0 < abs(corrected_product(s, table, variant, order).value) < 1e-300


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


def test_prime_zeta_head_matches_mpmath(table_1e4):
    # The head, the value less its E1 term, against a 30-digit sum of
    # p^-s: measured within 1.0e-14 relative, and exact at real s.
    log_x = math.log(table_1e4.limit)
    for s in (0.05 + 3j, 0.3, 0.7, 2.0, 0.7 + 9j, 0.55 - 40j, 1.5 + 100j):
        value = prime_zeta_truncated(s, table_1e4)
        head = value - e1((s - 1) * log_x).value
        with mpmath.workdps(30):
            exact = complex(
                mpmath.fsum(mpmath.mpf(int(p)) ** -mpmath.mpc(s) for p in table_1e4.primes)
            )
        assert abs(head - exact) < 1e-13 * abs(exact), s
        if s.imag == 0.0:  # E1's imaginary part: 0 right of 1, -pi on the cut
            assert value.imag == (0.0 if s.real > 1 else -math.pi)


def test_prime_zeta_truncation_one_is_singular():
    with pytest.raises(SingularityError):
        prime_zeta_truncated(2.0 + 0.0j, sieve(1))


def test_prime_zeta_branch_point(table_1e3):
    with pytest.raises(SingularityError):
        prime_zeta_truncated(1.0 + 0.0j, table_1e3)


@pytest.mark.parametrize("s", [-102.7, -800 + 5j])
def test_prime_zeta_overflow_is_a_library_error(s):
    # Far left p^-s overflows (+inf at s = -102.7, both infinities at
    # -800 + 5i); such points are refused as outside the domain.
    with pytest.raises(DomainError, match="Re\\(s\\) > 0"):
        prime_zeta_truncated(s, sieve(1000))


def test_prime_zeta_needs_positive_real_part(table_1e3):
    # At Re(s) <= 0 no |p^-s| is below 1, and at s = -100 the terms reach
    # 9.9e299; just right of the line every term is below 1 again.
    for s in (-100, 0j, 5j, -1e-300 + 5j):
        with pytest.raises(DomainError, match="Re\\(s\\) > 0"):
            prime_zeta_truncated(s, table_1e3)
    assert cmath.isfinite(prime_zeta_truncated(1e-300 + 5j, table_1e3))


# ----------------------------------------------------------------- mertens


def test_mertens_hand_value():
    # Primes up to 10: product 2 * 3/2 * 5/4 * 7/6 = 4.375 over e^gamma ln 10.
    table = sieve(10)
    hand = 4.375 / (math.exp(EULER_GAMMA) * math.log(10.0))
    assert abs(mertens_ratio(table) - hand) < 1e-12
    assert abs(mertens_ratio(table) - 1.06686) < 1e-4


def test_mertens_is_the_zeta_product_at_one(table_1e3, table_1e6):
    # Mertens' third theorem is the zeta product at s = 1: the ratio takes
    # its log sum from the product's own kernel.
    for t in (sieve(10), table_1e3, table_1e6):
        assert mertens_ratio(t) == math.exp(
            log_raw_product(1.0, t, ZETA).real - EULER_GAMMA - math.log(math.log(t.limit))
        )


def test_mertens_converges(table_1e3):
    assert abs(mertens_ratio(table_1e3) - 1.0) < 0.1


def test_mertens_monotone_trend(table_1e2, table_1e4):
    r_small = mertens_ratio(table_1e2)
    r_large = mertens_ratio(table_1e4)
    assert r_small > r_large > 1.0 - 0.05


def test_mertens_empty_product():
    with pytest.raises(SingularityError):
        mertens_ratio(sieve(1))


@pytest.mark.parametrize("x", [10**3, 10**6])
def test_products_next_to_the_pole_recover_mertens(x):
    # The paper's s = 1 claim: near the pole exp(E1((s - 1) L)) is about
    # e^-gamma / ((s - 1) L), so (s - 1) times the zeta product tends to
    # mertens_ratio and the inverse product over (s - 1) to its
    # reciprocal, within |s - 1| from the right, the left and above
    # (measured at most 0.60 |s - 1|).  s - 1 is taken after rounding:
    # with the literal offset, the rounding of 1 + d shows instead.
    table = sieve(x)
    ratio = mertens_ratio(table)
    for k in range(3, 14):
        for d in (10.0**-k, -(10.0**-k), 1j * 10.0**-k):
            s = 1 + d
            gap = s - 1
            zeta_value = corrected_product(s, table, ZETA).value
            inverse_value = corrected_product(s, table, INVERSE).value
            assert abs(gap * zeta_value / ratio - 1) <= abs(gap), s
            assert abs(inverse_value / gap * ratio - 1) <= abs(gap), s


@pytest.mark.parametrize("x, limit", [(10**3, 1.000249), (10**6, 0.999975)])
def test_order_two_jumps_at_the_pole_from_the_left(x, limit):
    # Order 2 adds the prime-square term only on 1/2 < Re(s) < 1, so on the
    # real axis (s - 1) times the zeta product tends to mertens_ratio times
    # exp((E1(L) - E1(L/2)) / 2) from the left (about -x^(-1/2) / log x
    # below it: 1.000249 against 1.003882 at x = 10^3, 0.999975 against
    # 1.000039 at 10^6), and to mertens_ratio itself from the right.  A
    # change to that rule has to change these numbers.
    table = sieve(x)
    ratio = mertens_ratio(table)
    log_x = math.log(x)
    jump = cmath.exp((e1(log_x).value - e1(log_x / 2).value) / 2)
    for k in range(7, 14):
        left, right = 1 - 10.0**-k, 1 + 10.0**-k
        below = (left - 1) * corrected_product(left, table, ZETA, order=2).value
        above = (right - 1) * corrected_product(right, table, ZETA, order=2).value
        assert abs(below - limit) < 1e-6
        assert abs(below / (ratio * jump) - 1) <= 1 - left
        assert abs(above / ratio - 1) <= right - 1
