"""Prime tables: sieve construction and prime counting.

A PrimeTable is built once per run and shared read-only by every product
evaluation; scans evaluate thousands of points against a single table.  It
holds the float64 logs of its primes and nothing else: the products read
only the logs, and counting compares logs too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt, log

import numpy as np

from .errors import DomainError, ResourceLimitError

#: Largest sieve limit accepted.  At this size the returned table's float64
#: logs take 46 MB and the sieve peaks about 2 MB above them: its 1 MB
#: segment buffer and one segment's prime indices.  No mask of the whole
#: range is ever allocated.
DEFAULT_MAX_LIMIT = 10**8

#: Odd entries struck per segment of the sieve: 1 MB of bool, which stays in
#: a 2 MiB L2 cache.  sieve(10**8) took 0.21-0.24 s with it on a 2-vCPU Linux
#: VM, 0.24-0.31 s with 2^19 entries and 0.24-0.26 s with 2^21.
_SEGMENT = 1 << 20


@dataclass(frozen=True, eq=False)
class PrimeTable:
    """All primes up to ``limit``, ascending, held as their natural logs.

    p^(-s) is evaluated as exp(-s log p), so every product reads the logs
    and nothing else; the primes themselves are read back from them on
    demand (``primes``).  ``log_primes`` is float64 and read-only; the table
    is safe to share across threads.
    """

    limit: int
    log_primes: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        """pi(limit): the number of primes in the table."""
        return int(self.log_primes.size)

    @property
    def primes(self) -> np.ndarray:
        """The primes, ascending: a new read-only int32 array on each read.

        round(exp(log p)) gives back every prime p <= DEFAULT_MAX_LIMIT
        exactly (the largest miss before rounding is 1.8e-7), and int32 holds
        them all because DEFAULT_MAX_LIMIT < 2^31.
        """
        primes = np.exp(self.log_primes)
        np.rint(primes, out=primes)
        primes = primes.astype(np.int32)
        primes.setflags(write=False)
        return primes

    def truncate(self, limit: int) -> "PrimeTable":
        """View of this table restricted to primes <= ``limit``.

        Cheap (a numpy slice shares storage); used by decay experiments that
        sieve once to the largest x and mask downwards, and by prime_pi.
        """
        if limit > self.limit:
            raise DomainError(
                f"cannot truncate table for limit {self.limit} up to {limit}"
            )
        # Primes are integers, so p <= limit exactly when log p < log(limit
        # + 1/2).  The margin, at least 5e-9 in log up to DEFAULT_MAX_LIMIT,
        # is far above any last-bit difference between math.log and np.log.
        n = 0
        if limit >= 2:
            n = int(np.searchsorted(self.log_primes, log(limit + 0.5), side="right"))
        return PrimeTable(limit=limit, log_primes=self.log_primes[:n])


def sieve(limit: int) -> PrimeTable:
    """Segmented sieve of Eratosthenes up to and including ``limit``.

    The sieve covers odd numbers only: entry i stands for 2i + 1, which
    halves its size and skips the strikes of even multiples.  Entry 0 (the
    number 1) is read as the prime 2.  The odd base primes up to
    sqrt(limit) come from this same sieve, called on sqrt(limit).  The
    entries are then struck _SEGMENT at a time in one reused buffer, so the
    strikes stay in cache (Bays & Hudson, BIT 17, 1977); each base prime
    carries its next index from one segment to the next.  Each segment's
    primes are written straight into one float64 array sized by
    pi(x) < x / log x * (1 + 3 / (2 log x)) for x > 1 (Rosser & Schoenfeld
    1962, (3.2)), which is then sliced to the count and turned into logs in
    place; its never-written pages never become resident.  Every prime is
    below 2^53, so float64 holds it exactly and np.log gives the same bits
    as from an integer array.  So the sieve holds the table's 8 bytes per
    prime, one 1 MB segment buffer and one segment's int64 indices.

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
        log_primes = np.empty(0)
    else:
        base = sieve(isqrt(limit)).primes[1:].tolist()
        next_index = [p * p // 2 for p in base]
        size = (limit + 1) // 2
        out = np.empty(int(limit / log(limit) * (1 + 1.5 / log(limit))) + 1)
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
            # The indices are freed before the next segment's are made.
            chunk = out[count : count + np.count_nonzero(segment)]
            chunk[:] = np.flatnonzero(segment)
            chunk *= 2
            chunk += 2 * lo + 1
            count += chunk.size
        log_primes = out[:count]
        log_primes[0] = 2
        np.log(log_primes, out=log_primes)
    log_primes.setflags(write=False)
    return PrimeTable(limit=limit, log_primes=log_primes)


def prime_pi(table: PrimeTable, y: int) -> int:
    """Number of primes <= y, for y within the table's range: the count of
    ``table.truncate(y)``, which raises DomainError beyond it."""
    return table.truncate(y).count
