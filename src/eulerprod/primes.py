"""Prime tables: sieve construction and prime counting.

A PrimeTable is built once per run and shared read-only by every product
evaluation; scans evaluate thousands of points against a single table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt, log

import numpy as np

from .errors import DomainError, ResourceLimitError

#: Largest sieve limit accepted.  At this size the returned
#: tables take 69 MB (int32 primes, float64 logs) and the sieve peaks about
#: 2 MB above them: its 1 MB segment buffer and one segment's prime indices.
#: No mask of the whole range is ever allocated.  It must stay below 2^31,
#: so that every prime, and every query up to a table's limit, fits int32.
DEFAULT_MAX_LIMIT = 10**8

#: Odd entries struck per segment of the sieve: 1 MB of bool, which stays in
#: a 2 MiB L2 cache.  sieve(10**8) took 0.21-0.24 s with it on a 2-vCPU Linux
#: VM, 0.24-0.31 s with 2^19 entries and 0.24-0.26 s with 2^21.
_SEGMENT = 1 << 20


@dataclass(frozen=True, eq=False)
class PrimeTable:
    """All primes up to ``limit``, ascending, with their natural logs cached.

    The log cache exists because p^(-s) is evaluated as exp(-s log p) and the
    logs dominate the cost of a scan when recomputed per point.  ``primes``
    is int32, which holds every prime below DEFAULT_MAX_LIMIT < 2^31 in half
    the bytes of int64; ``log_primes`` is float64.  Arrays are read-only;
    the table is safe to share across threads.
    """

    limit: int
    primes: np.ndarray
    log_primes: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        """pi(limit): the number of primes in the table."""
        return int(self.primes.size)

    def truncate(self, limit: int) -> "PrimeTable":
        """View of this table restricted to primes <= ``limit``.

        Cheap (numpy slices share storage); used by decay experiments that
        sieve once to the largest x and mask downwards, and by prime_pi.
        """
        if limit > self.limit:
            raise DomainError(
                f"cannot truncate table for limit {self.limit} up to {limit}"
            )
        # The query takes the table's own dtype, or numpy would cast the whole
        # table to int64 for one lookup; limits below 0, where no prime lies,
        # are clamped to 0 to fit int32.
        query = self.primes.dtype.type(max(limit, 0))
        n = int(np.searchsorted(self.primes, query, side="right"))
        return PrimeTable(limit=limit, primes=self.primes[:n], log_primes=self.log_primes[:n])


def sieve(limit: int) -> PrimeTable:
    """Segmented sieve of Eratosthenes up to and including ``limit``.

    The sieve covers odd numbers only: entry i stands for 2i + 1, which
    halves its size and skips the strikes of even multiples.  Entry 0 (the
    number 1) is read as the prime 2.  The odd base primes up to
    sqrt(limit) come from this same sieve, called on sqrt(limit).  The
    entries are then struck _SEGMENT at a time in one reused buffer, so the
    strikes stay in cache (Bays & Hudson, BIT 17, 1977); each base prime
    carries its next index from one segment to the next.  Each segment's
    primes are written straight into one int32 array sized by
    pi(x) < 1.25506 x / log x for x > 1 (Rosser & Schoenfeld 1962), which is
    then sliced to the count; its never-written pages never become resident.
    int32 is exact because ``limit`` is at most DEFAULT_MAX_LIMIT < 2^31,
    and np.log turns each prime into the same float64 as from int64.

    Raises ResourceLimitError when ``limit`` exceeds DEFAULT_MAX_LIMIT and
    DomainError for negative limits.
    """
    if limit < 0:
        raise DomainError(f"sieve limit must be nonnegative, got {limit}")
    if limit > DEFAULT_MAX_LIMIT:
        raise ResourceLimitError(
            f"sieve limit {limit} must be at most {DEFAULT_MAX_LIMIT}"
        )
    if limit < 2:
        primes = np.empty(0, dtype=np.int32)
    else:
        base = sieve(isqrt(limit)).primes[1:].tolist()
        next_index = [p * p // 2 for p in base]
        size = (limit + 1) // 2
        out = np.empty(int(1.25506 * limit / log(limit)) + 1, dtype=np.int32)
        buffer = np.empty(min(_SEGMENT, size), dtype=bool)
        count = 0
        for lo in range(0, size, _SEGMENT):
            hi = min(lo + _SEGMENT, size)
            segment = buffer[: hi - lo]
            segment[:] = True
            for j, p in enumerate(base):
                i = next_index[j]
                if i < hi:
                    segment[i - lo :: p] = False
                    # The first index of p's progression at or past hi.
                    next_index[j] = i + (hi - i + p - 1) // p * p
            found = np.flatnonzero(segment)
            chunk = out[count : count + found.size]
            np.multiply(found, 2, out=chunk)
            chunk += 2 * lo + 1
            count += found.size
        primes = out[:count]
        primes[0] = 2
    log_primes = np.log(primes, dtype=np.float64)
    primes.setflags(write=False)
    log_primes.setflags(write=False)
    return PrimeTable(limit=limit, primes=primes, log_primes=log_primes)


def prime_pi(table: PrimeTable, y: int) -> int:
    """Number of primes <= y, for y within the table's range: the count of
    ``table.truncate(y)``, which raises DomainError beyond it."""
    return table.truncate(y).count
