"""Prime tables: sieve construction and prime counting.

A PrimeTable is built once per run and shared read-only by every product
evaluation; scans evaluate thousands of points against a single table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .errors import DomainError, ResourceLimitError

#: Largest sieve limit accepted by default.  At this size the odd-only mask
#: takes 50 MB and the returned tables 92 MB; the mask is freed before the
#: log table is made, so the sieve peaks near 96 MB.
DEFAULT_MAX_LIMIT = 10**8


@dataclass(frozen=True, eq=False)
class PrimeTable:
    """All primes up to ``limit``, ascending, with their natural logs cached.

    The log cache exists because p^(-s) is evaluated as exp(-s log p) and the
    logs dominate the cost of a scan when recomputed per point.  Arrays are
    read-only; the table is safe to share across threads.
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
        sieve once to the largest x and mask downwards.
        """
        if limit > self.limit:
            raise DomainError(
                f"cannot truncate table for limit {self.limit} up to {limit}"
            )
        n = int(np.searchsorted(self.primes, limit, side="right"))
        return PrimeTable(limit=limit, primes=self.primes[:n], log_primes=self.log_primes[:n])


def sieve(limit: int, *, max_limit: int = DEFAULT_MAX_LIMIT) -> PrimeTable:
    """Sieve of Eratosthenes up to and including ``limit``.

    The mask covers odd numbers only: entry i stands for 2i + 1, which
    halves its size and skips the strikes of even multiples.  Entry 0 (the
    number 1) is read as the prime 2.

    Raises ResourceLimitError when ``limit`` exceeds ``max_limit`` and
    DomainError for negative limits.
    """
    if limit < 0:
        raise DomainError(f"sieve limit must be nonnegative, got {limit}")
    if limit > max_limit:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds configured maximum {max_limit}"
        )
    if limit < 2:
        primes = np.empty(0, dtype=np.int64)
    else:
        mask = np.ones((limit + 1) // 2, dtype=bool)
        for i in range(1, (isqrt(limit) - 1) // 2 + 1):
            if mask[i]:
                p = 2 * i + 1
                mask[p * p // 2 :: p] = False
        primes = np.flatnonzero(mask)
        del mask
        primes *= 2
        primes += 1
        primes[0] = 2
    log_primes = np.log(primes, dtype=np.float64)
    primes.setflags(write=False)
    log_primes.setflags(write=False)
    return PrimeTable(limit=limit, primes=primes, log_primes=log_primes)


def prime_pi(table: PrimeTable, y: int) -> int:
    """Number of primes <= y, for y within the table's range."""
    if y > table.limit:
        raise DomainError(f"prime_pi query {y} exceeds table limit {table.limit}")
    return int(np.searchsorted(table.primes, y, side="right"))
