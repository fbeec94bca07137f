import dataclasses
import tracemalloc
from math import isqrt

import numpy as np
import pytest

from eulerprod import DomainError, PrimeTable, ResourceLimitError, prime_pi, primes, sieve


def trial_division_count(limit: int) -> int:
    """Brute-force prime count, independent of the sieve."""
    return sum(1 for n in range(2, limit + 1) if is_prime_trial(n))


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def whole_mask_primes(limit: int) -> np.ndarray:
    """The unsegmented odd-only sieve: one mask over every odd number up to
    ``limit``, entry i standing for 2i + 1 and entry 0 read as 2."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (isqrt(limit) - 1) // 2 + 1):
        if mask[i]:
            p = 2 * i + 1
            mask[p * p // 2 :: p] = False
    found = np.flatnonzero(mask)
    found *= 2
    found += 1
    found[0] = 2
    return found


def test_sieve_ten():
    table = sieve(10)
    assert table.primes.tolist() == [2, 3, 5, 7]
    assert table.count == 4
    assert table.limit == 10


def test_sieve_one_is_empty():
    table = sieve(1)
    assert table.count == 0
    assert table.primes.size == 0


def test_sieve_zero_is_empty():
    assert sieve(0).count == 0


def test_sieve_negative_rejected():
    with pytest.raises(DomainError):
        sieve(-1)


def test_sieve_million_count(table_1e6):
    # 78498 computed by brute-force trial division over 2..10^6.
    assert table_1e6.count == 78498


def test_sieve_respects_limit_cap():
    # Refused before anything is allocated, in the words the CLI prints as
    # its usage error.
    with pytest.raises(ResourceLimitError, match="must be at most 100000000"):
        sieve(primes.DEFAULT_MAX_LIMIT + 1)


def test_table_is_readonly(table_1e3):
    with pytest.raises(ValueError):
        table_1e3.primes[0] = 1


def test_prime_pi_small(table_1e2):
    assert prime_pi(table_1e2, 10) == 4
    assert prime_pi(table_1e2, 2) == 1
    assert prime_pi(table_1e2, 1) == 0


def test_prime_pi_ten_thousand(table_1e4):
    # 1229 computed by brute-force trial division over 2..10^4.
    assert prime_pi(table_1e4, 10**4) == 1229


def test_prime_pi_beyond_limit(table_1e2):
    with pytest.raises(DomainError):
        prime_pi(table_1e2, 101)


def test_prime_pi_matches_trial_division(table_1e5):
    rng = np.random.default_rng(20240601)
    for y in rng.integers(2, 10**5, size=12):
        assert prime_pi(table_1e5, int(y)) == trial_division_count(int(y))


def test_every_element_is_prime(table_1e4):
    rng = np.random.default_rng(7)
    sample = rng.choice(table_1e4.primes, size=50, replace=False)
    assert all(is_prime_trial(int(p)) for p in sample)


def test_strictly_ascending_and_bounded(table_1e5):
    assert (np.diff(table_1e5.primes) > 0).all()
    assert table_1e5.primes[-1] <= table_1e5.limit


def test_prefix_consistency():
    big = sieve(5000)
    for small_limit in (10, 100, 997, 2500):
        small = sieve(small_limit)
        assert np.array_equal(small.primes, big.primes[: small.count])


def test_truncate_matches_fresh_sieve(table_1e4):
    cut = table_1e4.truncate(500)
    fresh = sieve(500)
    assert cut.limit == 500
    assert np.array_equal(cut.primes, fresh.primes)
    assert np.array_equal(cut.log_primes, fresh.log_primes)


def test_truncate_upwards_rejected(table_1e3):
    with pytest.raises(DomainError):
        table_1e3.truncate(10**4)


def test_sieve_matches_trial_division_for_every_small_limit():
    brute = [n for n in range(2001) if is_prime_trial(n)]
    for limit in range(2001):
        expected = [p for p in brute if p <= limit]
        assert sieve(limit).primes.tolist() == expected, limit


def test_tables_are_int32_float64_read_only_and_bit_exact(table_1e6):
    assert table_1e6.primes.dtype == np.int32
    assert table_1e6.log_primes.dtype == np.float64
    assert not table_1e6.primes.flags.writeable
    assert not table_1e6.log_primes.flags.writeable
    expected = np.log(table_1e6.primes.astype(np.float64))
    assert table_1e6.log_primes.tobytes() == expected.tobytes()


def test_log_primes_cached(table_1e3):
    assert np.allclose(table_1e3.log_primes, np.log(table_1e3.primes.astype(float)))


@pytest.mark.parametrize("segment", [1, 2, 3, 64])
def test_segments_match_the_whole_mask_at_every_small_limit(monkeypatch, segment):
    # Segments this small put a boundary between almost any two entries,
    # and base primes larger than a segment skip whole segments.  Segments
    # of 1-3 entries take every limit up to 1000 and from 2900 to 3000,
    # whose odd base primes run up to 53, so both still occur.
    monkeypatch.setattr(primes, "_SEGMENT", segment)
    limits = range(3001) if segment > 3 else [*range(1001), *range(2900, 3001)]
    for limit in limits:
        table = sieve(limit)
        assert table.primes.dtype == np.int32
        assert np.array_equal(table.primes, whole_mask_primes(limit)), limit


def test_default_segments_match_the_whole_mask_at_1e7():
    # 5 * 10^6 odd entries make five segments of the default size.
    table = sieve(10**7)
    assert (10**7 + 1) // 2 > 4 * primes._SEGMENT
    assert table.count == 664579
    expected = whole_mask_primes(10**7)
    assert expected.max() < 2**31
    assert table.primes.tobytes() == expected.astype(np.int32).tobytes()


def test_the_sieve_cap_fits_int32():
    assert primes.DEFAULT_MAX_LIMIT < 2**31


def test_lookups_and_the_sieve_make_no_table_sized_temporaries():
    # A query numpy must cast would cast the whole table instead: 5.3 MB
    # here for one lookup.  The sieve holds only its float64 output, which
    # becomes the logs in place, one 1 MiB segment buffer and one segment's
    # int64 indices (about 1.2 MB here, in the first segment).
    table = sieve(10**7)
    tracemalloc.start()
    try:
        for lookup in (lambda: table.truncate(10**6), lambda: prime_pi(table, 10**6)):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            lookup()
            assert tracemalloc.get_traced_memory()[1] - before < 64 * 1024
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        sieved = sieve(10**7)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 8 * sieved.count + 3 * 2**20


@pytest.mark.parametrize("y", [-(10**10), -5, 0])
def test_queries_below_every_prime_count_nothing(table_1e3, y):
    assert prime_pi(table_1e3, y) == 0
    cut = table_1e3.truncate(y)
    assert cut.limit == y
    assert cut.count == 0
    assert cut.log_primes.size == 0


def test_a_table_holds_only_its_limit_and_logs():
    assert [f.name for f in dataclasses.fields(PrimeTable)] == ["limit", "log_primes"]


def test_counts_by_log_equal_counts_by_integer(table_1e6):
    # Every prime p up to 10^6, and its neighbours p - 1 and p + 1, where a
    # count by log could slip; the last 2,000 primes below 10^7, where
    # neighbouring logs lie closest; and the limits below and at the first
    # primes.  The counts are checked against the whole-mask sieve's primes.
    for table, last in ((table_1e6, None), (sieve(10**7), 2000)):
        reference = whole_mask_primes(table.limit)
        p = reference[-last:] if last else reference
        ys = np.concatenate([p - 1, p, p + 1, [-5, 0, 1, 2, 3]])
        ys = ys[ys <= table.limit]
        expected = np.searchsorted(reference, ys, side="right").tolist()
        ys = ys.tolist()
        assert [table.truncate(y).count for y in ys] == expected
        assert [prime_pi(table, y) for y in ys] == expected
