"""Truncated Euler products with the exponential-integral correction.

The product over primes p <= x is accumulated in the log domain and
exponentiated once.  Multiplying by exp(+-E1[(s-1) log x]) compensates the
truncation of the slowest-converging component (the prime zeta part) and
extends the product's useful range from Re(s) > 1 to Re(s) > 1/2, away from
s = 1, with an empirically checkable error.  Under RH it is at most of order
x^(1/2 - sigma) log x, the paper's rate; the explicit formula gives its
typical size as C x^(1/2 - sigma) / log x with an oscillating C, the model
that eulerprod.experiments fits.  This is correction order 1, the paper's.

Order 2 adds the prime-square term.  The log of the product counts prime
powers, and Riemann's prime-power count J(x) = sum_k pi(x^(1/k))/k ~ li(x)
puts a second deterministic piece into the tail beyond p <= x.  Every
weight of both orders follows from the product's shape (_SHAPE).  Order 2
applies the term only on 1/2 < Re(s) < 1 (see corrected_product).  Scans,
decay fits and the CLI use order 2 (eulerprod.experiments.EXPERIMENT_ORDER);
corrected_product defaults to 1.  mertens_ratio is the zeta product's
uncorrected log sum at s = 1.

Three product shapes are supported:

* Zeta:        prod (1 - p^-s)^-1  with correction +E1, approximating zeta(s)
* InverseZeta: prod (1 - p^-s)     with correction -E1, approximating 1/zeta(s)
* Ratio:       prod (1 + p^-s)^-1  with correction -E1, approximating
               zeta(2s)/zeta(s)

Per-factor principal logs never wrap because |p^-s| < 1 for Re(s) > 0, so
every factor has positive real part.  With ~78k terms at x = 10^6 a naive
sum would lose about 3 digits and break the package's 1e-12 identity
invariants, so every per-prime sum splits its terms exactly by error-free
extraction (Rump, Ogita & Oishi, "Accurate floating-point summation part I:
faithful rounding", SIAM J. Sci. Comput. 31(1), 2008; see _prime_sums).
The terms are made in blocks of _BLOCK_TERMS primes, one contiguous row per
quantity.  Each sum allocates one work array per worker (see _BLOCK_TERMS
for its size), and every block writes its terms into one half of its
worker's, and its p^-s, their intermediate values and the extraction into
the other, of the same shape: no block allocates an array, a deep table
never holds more than one block of terms per worker, and a scan's rows do
not fault in fresh pages (scan-line over 197 complex rows at x = 10^6 took
about 1,100 minor page faults, sieve included).  That holds at every s:
far left of the half-plane, where terms are inf or nan, a block's row of
them is added up in place, and an inf or a nan decides the sum by IEEE
addition.

One call of the kernel may sum a batch of B points, B = _BLOCK_TERMS //
count by the one rule of ``batches``: 26 at x = 10^4, 3 at 10^5, and one
point per call wherever the table needs more than half a block.  A
batch's terms are rows of the same block, so block boundaries do not move
and a worker's array still holds at most 1 MiB, and each row goes through
exactly its own point's operations: a batch gives every point the bits
of its own call.  Scans hand their grids to the kernel in these batches,
and eval a batch of one.  Decay hands its one point and every truncation
x of its grid to one call, which sums each x's prefix of the deepest
table in one pass over it (``limits`` of log_raw_product and
corrected_product): each prefix gets the bits of its own call.

A sum has one worker, the calling thread, unless it spans at least
_BLOCKS_PER_WORKER blocks per worker: on two
cores, from x of about 3.2 million (8 blocks).  Then a thread pool sums
its blocks, one worker per core the process may use at the time of the
call, each kept to its core, while the calling thread waits with its own
affinity unchanged (see _prime_sums).  Every block's partial sums still
reach one exact math.fsum, so the bits do not depend on the number of
cores.  The result is within 2^-53 |sum| + n 2^-104 sum |term| of the
exact sum of n terms; it equals one math.fsum over all terms unless that
sum lies within about n 2^-104 sum |term| of a rounding boundary.  Every
finite term must stay far below double range (see _prime_sums), so
prime_zeta_truncated, whose terms are p^-s, refuses Re(s) <= 0 as
zeta_ref does.

Each term of log_raw_product, log(1 + u) with u = +-p^-s = a + ib, is
made as log1p(2a + a^2 + b^2)/2 + i arctan2(b, 1 + a).  For real s > 0
every p^-s is real and in (0, 1], so log_raw_product makes it with a real
exp, multiplies it by the shape's sign (+-1.0, exact) as the complex
formula does, takes log1p(u) in place, and the imaginary part is exactly
0.  Every other s takes the complex formula.  Both formulas are
equally close to a 30-digit mpmath sum (within 1.9 * 2^-53 sum |term| at
x = 10^4, 9 values of s from 0.51 to 5), but they round differently, and
numpy's real exp and the real part of its complex exp can differ in the
last bit, so a real-axis log sum may differ from the complex formula's by
up to 2 ulp (measured on 540 points at x = 10^4 and 10^6).
prime_zeta_truncated has no real path: it sums p^-s from the complex exp
at every s.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from enum import Enum
from numbers import Number
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import DomainError, EulerProductError, SingularFactorError, SingularityError
from .primes import PrimeTable
from .specfun import EULER_GAMMA, e1
from .zetaref import zeta_ref


class ProductVariant(Enum):
    ZETA = "zeta"
    INVERSE_ZETA = "inverse-zeta"
    RATIO_ZETA2S_OVER_ZETA = "ratio"

    def reference(self, s: complex) -> complex:
        """What this product approximates at s: zeta(s), 1/zeta(s) or
        zeta(2s)/zeta(s), from the independent reference eulerprod.zetaref."""
        if self is ProductVariant.ZETA:
            return zeta_ref(s)
        if self is ProductVariant.INVERSE_ZETA:
            return 1.0 / zeta_ref(s)
        return zeta_ref(2 * s) / zeta_ref(s)


# (coefficient, sign) per variant: the log sum is coeff * sum log(1 + sign*p^-s).
# The corrections restore its tail over p > x.  log(1 + u) = u - u^2/2 + ...
# and, with L = log x, sum_{p>x} p^-s ~ E1[(s-1)L] - E1[(s-1/2)L]/2 (the
# -li(sqrt y)/2 term of J) and sum_{p>x} p^-2s ~ E1[(2s-1)L].  So order 1 is
# coeff*sign*E1[(s-1)L], and order 2 adds -coeff/2 on E1[(2s-1)L] and
# -coeff*sign/2 on E1[(s-1/2)L].  Every weight is exact, so the zeta and
# inverse-zeta corrections negate exactly in floating point.
_SHAPE = {
    ProductVariant.ZETA: (-1.0, -1.0),
    ProductVariant.INVERSE_ZETA: (1.0, -1.0),
    ProductVariant.RATIO_ZETA2S_OVER_ZETA: (-1.0, 1.0),
}

#: Primes per block of the per-prime sums: each worker's work array takes
#: 512 KiB (real) or 1 MiB (complex).  Swept from 2^13 to 2^17 (2-vCPU
#: VM, 4 MiB L2), 2^15 made the fastest real and complex calls at x = 10^6
#: and real ones at 10^7; ``decay`` up to 10^8 peaked no higher than
#: with 2^14.
_BLOCK_TERMS = 1 << 15

#: A sum takes W workers only with at least this many blocks per worker.
#: Against one worker (2-vCPU VM, medians of 80 alternated calls, two
#: runs), a second took 0.59-0.79 of the time of complex calls from 2
#: blocks on, but 1.01-1.48 of real calls up to 6 blocks, 0.92-1.02 at 8
#: and 0.85-0.93 from 10.  4 keeps x = 10^6 (3 blocks), where a second
#: worker slows real calls, on one, and gives x = 10^7 (21 blocks) two.
_BLOCKS_PER_WORKER = 4


@dataclass(frozen=True)
class Evaluation:
    """One corrected-product evaluation at a point s with truncation x.

    ``value`` equals exp(log_raw_product + correction) to rounding.  It
    carries no reference: eulerprod.experiments.evaluate compares it with
    ``variant.reference(s)``.  ``outside_domain`` marks points with
    Re(s) <= 1/2 (computed anyway but unsupported); ``on_cut`` marks points
    whose E1 argument lay on the branch cut, i.e. real s left of 1.
    ``order`` is the correction order that was asked for; outside
    1/2 < Re(s) < 1 both orders give the same value.
    """

    s: complex
    x: int
    variant: ProductVariant
    log_raw_product: complex
    correction: complex
    value: complex
    outside_domain: bool = False
    on_cut: bool = False
    order: int = 1

    @property
    def flags(self) -> tuple[str, ...]:
        """Markers that qualify the value: ``outside-domain``, ``on-cut``."""
        flags = []
        if self.outside_domain:
            flags.append("outside-domain")
        if self.on_cut:
            flags.append("on-cut")
        return tuple(flags)


def _prime_sums(
    counts: int | Sequence[int], rows: int, terms
) -> tuple[list[float], list[int]] | list[tuple[list[float], list[int]]]:
    """Sums of the first c per-prime terms in ``rows`` quantities, for each
    count c of ``counts``, one count or a sequence of counts, in one pass.

    ``terms(block, out, work)`` writes the terms of ``block``, a slice of
    range(max(counts)), into ``out``, shape (rows, len(block)): one
    contiguous row per quantity.  ``work``, of ``out``'s shape and as
    contiguous, is ``terms``'s own until it returns; both are the two halves
    of one work array per worker, of 2 ``rows`` times min(max(counts),
    _BLOCK_TERMS) floats.  For each count it gives one sum per quantity (no
    terms sum to 0) and, per quantity, the index of its first -inf term
    below the count, or the count where it has none: one count gives that
    pair, a sequence one pair per count, in order.  The quantities may be
    those of a batch of points (see batches), whose size keeps that array
    at most 1 MiB.  Each row's largest term and splitting constants come
    from one array operation over the rows, and only rows that hold an inf
    or a nan are added up one by one, in place: a row's sum does not depend
    on the rows beside it.

    A count c's blocks, with B = _BLOCK_TERMS, are the full blocks
    [jB, (j+1)B) for j < c // B and its tail [(c // B) B, c), where c is
    no multiple of B: the blocks of a call over c terms alone.  The pass
    sums each block of every count once, so its work is the full blocks
    below the largest count and one tail per count; the largest count's
    tail is its last block.  A count's sums are one math.fsum over its own
    blocks' partial sums, and its first -inf term the least of its own
    blocks': each count gets the bits of its own call by construction.
    Decay up to x = 10^8 sums 5,794,457 terms for its five counts, where
    five calls would sum 6,515,353.

    Every finite term of a block of n must lie below 2^(1023-m), where m is
    the least with 2^m >= n + 2 (2^1007 at the shipped block size), so that
    the splitting constants below and any block's sum stay finite.  The
    callers' terms are far below it: a log term is at most about 710 in
    magnitude, and |p^-s| < 1 for Re(s) > 0.  A block's row whose largest
    term is inf or nan is added up by plain IEEE addition, and so are all
    such rows of a quantity: its sum is nan if they hold a nan or both
    infinities, and +-inf otherwise.  Only such a row can hold a -inf
    term, so this pass finds its first: every -inf sum has one.

    A pass of fewer than 2 _BLOCKS_PER_WORKER blocks runs on the calling
    thread.  A larger one reads the caller's CPU affinity once and deals
    its blocks, ascending and strided, to W shares, W the most of the
    affinity's cores that leaves each share _BLOCKS_PER_WORKER blocks or
    more.  With W > 1 a pool of W threads sums the shares, each thread kept
    to its own core of the affinity where the OS allows it, and the calling
    thread only waits: its affinity is never changed.  numpy releases the
    GIL for a block's passes, so the workers run at once; ``terms`` may be
    called from any of them.  Each block's sums are the same whichever
    worker makes them, and a count's all reach one final math.fsum
    unrounded, which is exact and so independent of their order: the bits
    do not depend on W.  The first failing share's exception, in share
    order, is raised in the caller once every pool thread has ended.

    For n terms below 2^e, sigma = 2^(m+e) splits each x exactly into
    q = (x + sigma) - sigma, a multiple of 2^-53 sigma, and x - q.  The q
    add up to less than sigma, so np.add.reduce sums them exactly;
    2^(m-53) sigma splits the remainders again.  Summing the n left over,
    each at most 2^(2m+e-106), in any order errs by under
    n^2 2^(2m+e-159) < 8 n^2 (n+2)^2 2^-159 max|x|, below n 2^-104 max|x|
    for n <= 2^17.  math.fsum adds the three sums of every block.
    """
    one = isinstance(counts, int)
    counts = [counts] if one else list(counts)
    top = max(counts, default=0)

    def blocks(count: int) -> list[tuple[int, int]]:
        starts = range(0, count, _BLOCK_TERMS)
        return [(start, min(start + _BLOCK_TERMS, count)) for start in starts]

    units = sorted({block for count in counts for block in blocks(count)})
    mask: set[int] = set()
    if len(units) >= 2 * _BLOCKS_PER_WORKER:  # smaller sums make no syscall
        try:
            mask = os.sched_getaffinity(0)
        except AttributeError:  # an OS without affinities: any core
            mask = set(range(os.cpu_count() or 1))
    workers = max(1, min(len(mask), len(units) // _BLOCKS_PER_WORKER))
    span = rows * min(top, _BLOCK_TERMS)
    # Per block units[j] and row i: its three partial sums, finite[j, :, i],
    # and, for a row decided by IEEE addition, decided[j, i].  Each worker
    # writes only its own blocks' entries.
    finite = np.empty((len(units), 3, rows))
    decided: dict[tuple[int, int], tuple[float, int]] = {}

    def partials(mine: range, work: np.ndarray) -> None:
        """Sums the blocks units[j] for j in ``mine``, made in ``work`` (2
        ``span`` floats): per row, the unrounded partial sums over the
        block's finite rows into ``finite``, and for every other row its
        IEEE sum and the index of its first -inf term, ``top`` where it has
        none, into ``decided``."""
        # Far left of the half-plane p^-s overflows; the inf and nan it makes
        # reach the caller as a value or an error, not as numpy warnings.
        # numpy's error state is per thread, so each worker sets its own.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for j in mine:
                start, stop = units[j]
                n = stop - start
                x = work[: rows * n].reshape(rows, n)
                q = work[span : span + rows * n].reshape(rows, n)
                terms(slice(start, stop), x, q)
                m = (n + 1).bit_length()
                tops = np.maximum.reduce(np.abs(x, out=q), axis=1)
                # An inf or nan top marks a row decided by IEEE addition.  The
                # tops are >= 0 or nan, so their sum is finite unless some top
                # is not (or the sum overflows, and the mask selects no row).
                if not math.isfinite(np.add.reduce(tops)):
                    for i in np.flatnonzero(~np.isfinite(tops)):
                        hits = np.flatnonzero(x[i] == -math.inf)
                        first = start + int(hits[0]) if hits.size else top
                        decided[j, int(i)] = (float(np.add.reduce(x[i])), first)
                        x[i] = 0.0
                        tops[i] = 0.0
                sigma = np.ldexp(1.0, m + np.frexp(tops)[1])[:, None]
                for k, level in enumerate((sigma, sigma * 2.0 ** (m - 53))):
                    np.add(x, level, out=q)
                    np.subtract(q, level, out=q)
                    np.subtract(x, q, out=x)
                    np.add.reduce(q, axis=1, out=finite[j, k])
                np.add.reduce(x, axis=1, out=finite[j, 2])

    shares = [range(k, len(units), workers) for k in range(workers)]
    if workers == 1:
        partials(shares[0], np.empty(2 * span))
    else:
        # concurrent.futures imports logging, which only a large sum pays for.
        from concurrent.futures import ThreadPoolExecutor

        # Left to the scheduler, two workers at times shared one core for a
        # whole call, slower than one worker (2-vCPU VM, most often after a
        # long one-thread run such as the sieve): each pool thread keeps to
        # the next core of the affinity.
        cores = iter(sorted(mask))
        # Made here, the work arrays reuse the calling thread's freed heap;
        # made in each pool thread's own malloc arena, they took fresh pages
        # (decay up to 10^8 grew VmHWM by 74.2-74.3 MiB, not 70.7-71.9).
        works = [np.empty(2 * span) for _ in shares]
        with ThreadPoolExecutor(
            workers, initializer=lambda: _keep_to({next(cores)})
        ) as pool:
            list(pool.map(partials, shares, works))
    where = {block: j for j, block in enumerate(units)}

    def total(count: int) -> tuple[list[float], list[int]]:
        mine = [where[block] for block in blocks(count)]
        by_row = finite[mine].transpose(2, 0, 1).reshape(rows, -1).tolist()
        others: list[list[float]] = [[] for _ in by_row]
        firsts = [count] * rows
        own = set(mine)
        for (j, i), (other, first) in decided.items():
            if j in own:
                others[i].append(other)
                firsts[i] = min(firsts[i], first)
        return [math.fsum(a) + sum(b) for a, b in zip(by_row, others)], firsts

    results = [total(count) for count in counts]
    return results[0] if one else results


def _keep_to(cores: set[int]) -> None:
    """Keeps the calling thread to ``cores`` where the OS allows it."""
    try:
        os.sched_setaffinity(0, cores)
    except (AttributeError, OSError):  # no such call, or a sandbox refuses it
        pass


def _prime_powers(points: Sequence[complex], log_primes: np.ndarray, out: np.ndarray):
    """Writes p^-s into row i of ``out`` for s the i-th of ``points``, over
    the primes whose logs are ``log_primes``.

    A float ``out`` takes a real exp (real s > 0), a complex one the complex
    exp.  Each row's exponent is its own multiply by a scalar: broadcasting
    a column of points would make numpy allocate iteration buffers, about
    230 KiB beside a batch's work array.
    """
    real = out.dtype.kind == "f"
    for row, s in zip(out, points):
        np.multiply(-s.real if real else -s, log_primes, out=row)
    np.exp(out, out=out)


def _is_real(s: complex) -> bool:
    """Whether every p^-s is real: log_raw_product's real formula."""
    return s.imag == 0.0 and s.real > 0.0


def _points(s: complex | Sequence[complex]) -> tuple[list[complex], bool]:
    """The points of ``s``, one point or a sequence of points, and whether
    it was one point."""
    if isinstance(s, Number):
        return [complex(s)], True
    return [complex(p) for p in s], False


def batches(points: Sequence[complex], table: PrimeTable) -> Iterator[list[complex]]:
    """``points``, in order, cut into the batches that one kernel call sums.

    A batch holds at most B = _BLOCK_TERMS // table.count points (at least
    one), all of which take the real formula of log_raw_product or all the
    complex one.  So a batch forms only where the whole table fits one
    block, and its work array is no larger than one point's at a table of
    a full block: 1 MiB per worker for complex terms.  At x = 10^4 (1,229
    primes) B is 26, at 10^5 it is 3, and from 16,385 primes on it is 1.
    """
    size = max(1, _BLOCK_TERMS // max(table.count, 1))
    batch = []
    for s in points:
        if len(batch) == size or batch and _is_real(s) != _is_real(batch[0]):
            yield batch
            batch = []
        batch.append(s)
    if batch:
        yield batch


def _per_limit(values: list[list], one: bool, limits: Optional[Sequence[int]]):
    """``values[c][i]``, for the c-th truncation and the i-th point, in the
    shape a call returns: per point as ``_points`` read them, and one such
    result per limit where ``limits`` were given."""
    per_limit = [row[0] if one else row for row in values]
    return per_limit[0] if limits is None else per_limit


def log_raw_product(
    s: complex | Sequence[complex],
    table: PrimeTable,
    variant: ProductVariant,
    limits: Optional[Sequence[int]] = None,
) -> complex | list:
    """Sum of per-prime log factors for the truncated product, uncorrected.

    Zeta:        -sum log(1 - p^-s)
    InverseZeta: +sum log(1 - p^-s)
    Ratio:       -sum log(1 + p^-s)

    ``s`` is one point, which gives a complex, or a sequence of points,
    which gives a list of them in order, each the one point's sum bit for
    bit.  Each of its batches (see ``batches``) is one call of the kernel:
    B points of real s write B rows of terms, others 2B.

    ``limits``, truncations x up to table.limit, asks for the sums over
    p <= x for each x instead, in order: one result per limit, each that of
    a call over table.truncate(x), bit for bit.  Each batch is still one
    kernel call, which sums every limit's prefix of the table in one pass
    (see _prime_sums).

    Raises SingularFactorError if some factor vanishes at s (possible only
    outside the supported half-plane, e.g. p^s = 1 at s = 0, or where a
    term's log1p argument rounds to -1, as for prime 2 at s = 1e-18 and at
    s = 1e-18 + 1e-300i), naming the least such prime, which the batch's
    one kernel call finds; a sequence raises it for its first such point.
    With ``limits`` it is raised where some limit reaches that prime.
    """
    points, one = _points(s)
    if limits is None:
        counts = [table.count]
    else:
        counts = [table.truncate(x).count for x in limits]
    sums = [[] for _ in counts]
    for batch in batches(points, table):
        for total, part in zip(sums, _log_raw_sums(batch, table, variant, counts)):
            total += part
    return _per_limit(sums, one, limits)


def _log_raw_sums(
    batch: list[complex], table: PrimeTable, variant: ProductVariant, counts: list[int]
) -> list[list[complex]]:
    """log_raw_product of one batch over the first c primes of ``table``
    for each c of ``counts``, per count and then per point, in one call of
    the kernel."""
    coeff, sign = _SHAPE[variant]
    k = len(batch)

    def real_terms(block, out, work):
        # log(1 + u) = log1p(u) for u = sign * p^-s, real and in [-1, 1].
        _prime_powers(batch, table.log_primes[block], out)
        np.multiply(sign, out, out=out)
        np.log1p(out, out=out)

    def complex_terms(block, out, work):
        # log(1 + u) for u = sign * p^-s = a + ib, written so the real part
        # goes through a real log1p: re = log|1+u| = log1p(2a + a^2 + b^2) / 2,
        # im = arg(1+u).  p^-s is made in ``work``, a and b in ``out``'s two
        # halves of k rows, and then ``work``'s halves hold b^2 and x.
        w = work.reshape(-1).view(np.complex128).reshape(k, -1)
        _prime_powers(batch, table.log_primes[block], w)
        (a, b), (bb, x) = out.reshape(2, k, -1), work.reshape(2, k, -1)
        np.multiply(sign, w.real, out=a)
        np.multiply(sign, w.imag, out=b)
        np.multiply(b, b, out=bb)
        np.add(1.0, a, out=x)
        np.arctan2(b, x, out=b)
        np.multiply(2.0, a, out=x)
        np.multiply(a, a, out=a)
        np.add(x, a, out=x)
        np.add(x, bb, out=x)
        np.log1p(x, out=x)
        np.multiply(0.5, x, out=a)

    real = _is_real(batch[0])  # every p^-s of the batch is real
    terms, rows = (real_terms, k) if real else (complex_terms, 2 * k)
    per_count = _prime_sums(counts, rows, terms)
    # Row i holds the real parts of point i's terms.  A vanishing factor's
    # term is log1p(-1) = -inf, and only a row with a -inf term and no +inf
    # or nan sums to -inf: the summing pass has named its first.
    for i in range(k):
        for sums, firsts in per_count:
            if sums[i] == -math.inf:
                p = round(math.exp(table.log_primes[firsts[i]]))
                raise SingularFactorError(
                    f"Euler factor vanishes at prime {p} for s = {batch[i]}", prime=p
                )
    # A real point has one row: complex(re) has imaginary part +0.0.
    if real:
        return [[coeff * complex(re) for re in sums] for sums, _ in per_count]
    return [
        [coeff * complex(re, im) for re, im in zip(sums[:k], sums[k:])]
        for sums, _ in per_count
    ]


def refuse_pole(points: Sequence[complex]) -> None:
    """Raises SingularityError if s = 1 is one of ``points``: see
    corrected_product."""
    if 1 in points:
        raise SingularityError(
            "s = 1 is excluded (pole of the zeta product, zero of its inverse); "
            "use mertens_ratio for the limiting behaviour at s = 1"
        )


def corrected_product(
    s: complex | Sequence[complex],
    table: PrimeTable,
    variant: ProductVariant = ProductVariant.ZETA,
    order: int = 1,
    limits: Optional[Sequence[int]] = None,
) -> Evaluation | list:
    """Truncated Euler product at s with its exponential-integral correction.

    ``s`` is one point, which gives an Evaluation, or a sequence of points,
    which gives a list of them in order; their log sums come from one
    log_raw_product call, and a sequence raises the first error met.
    ``limits``, truncations x up to table.limit, gives one such result per
    x, in order, each equal to that of a call over table.truncate(x), from
    the same one log_raw_product call: a decay fit's truncations share one
    pass over the deepest table.  The first error met, limit by limit, is
    raised.

    s = 1 is a hard error: the zeta product has its pole and the inverse its
    zero exactly there, and the correction's argument (s-1) log x hits the
    singularity of E1 at 0.  Points with Re(s) <= 1/2 are evaluated anyway
    but flagged ``outside_domain``: the correction is only justified to the
    right of the critical line.

    The correction enters only through exp, where E1's jump of 2 pi i across
    its cut cancels, so the side of the cut cannot change the product: on
    the cut (real s < 1) E1 is taken from above.

    ``order`` 1 is the paper's correction.  ``order`` 2 adds the
    prime-square term (module docstring) where 1/2 < Re(s) < 1 and returns
    order 1's value bit for bit elsewhere, because:

    * the term grows like log 1/(sigma - 1/2), so near 1/2 it outweighs the
      oscillation that comes from the zeros of zeta;
    * for sigma >~ 1 the two are the same size, so the term helps at some x
      and hurts at others;
    * its E1 arguments have positive real part on 1/2 < sigma < 1, so order
      2 never needs E1 near its branch cut.
    """
    if order not in (1, 2):
        raise ValueError(f"correction order must be 1 or 2, got {order!r}")
    points, one = _points(s)
    refuse_pole(points)
    log_raws = log_raw_product(points, table, variant, limits=limits)
    per_limit = [(table.limit, log_raws)] if limits is None else zip(limits, log_raws)
    evaluations = [
        [_corrected(s, log_raw, x, variant, order) for s, log_raw in zip(points, row)]
        for x, row in per_limit
    ]
    return _per_limit(evaluations, one, limits)


def _corrected(
    s: complex, log_raw: complex, x: int, variant: ProductVariant, order: int
) -> Evaluation:
    """corrected_product at one point s and truncation x whose log sum is
    ``log_raw``."""
    log_x = math.log(x) if x >= 1 else 0.0
    e1_result = e1((s - 1.0) * log_x)  # raises SingularityError when x = 1
    coeff, sign = _SHAPE[variant]
    correction = coeff * sign * e1_result.value
    if order == 2 and 0.5 < s.real < 1.0:
        a, b = -coeff / 2, -coeff * sign / 2
        correction += (
            a * e1((2.0 * s - 1.0) * log_x).value + b * e1((s - 0.5) * log_x).value
        )
    try:
        value = cmath.exp(log_raw + correction)
    except OverflowError:
        raise EulerProductError(
            f"corrected product overflows double precision at s = {s}, x = {x}"
        ) from None
    return Evaluation(
        s=s,
        x=x,
        variant=variant,
        log_raw_product=log_raw,
        correction=correction,
        value=value,
        outside_domain=s.real <= 0.5,
        on_cut=e1_result.on_cut,
        order=order,
    )


def prime_zeta_truncated(s: complex, table: PrimeTable) -> complex:
    """Truncated prime zeta sum plus its E1 correction.

    Returns sum_{p <= x} p^-s + E1[(s-1) log x], the x-truncated
    approximation to the prime zeta function P(s) on Re(s) > 1/2.  P has a
    branch point at s = 1 (the cut in s runs along (1/2, 1]), so s = 1 is
    rejected.  On that cut (real s < 1) E1 is taken from above, so the
    value is P's limit from above: its imaginary part is -pi there.  Like
    zeta_ref, it requires Re(s) > 0, where every |p^-s| < 1 and the head
    sum is finite; further left its terms grow past double range.  The
    head is made from the complex exp at every s; at real s every p^-s has
    imaginary part 0, so the value's is E1's: 0 right of 1, -pi on the cut.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"prime zeta needs a finite argument, got {s}")
    if s == 1:
        raise SingularityError("prime zeta has a branch point at s = 1")
    if s.real <= 0:
        raise DomainError(f"prime zeta requires Re(s) > 0, got {s}")
    if table.count == 0 and table.limit < 1:
        raise SingularityError("prime zeta truncation needs a limit of at least 1")

    def terms(block, out, work):
        # p^-s, made complex in ``work`` and split into ``out``'s two rows.
        w = work.reshape(-1).view(np.complex128)
        _prime_powers([s], table.log_primes[block], w.reshape(1, -1))
        out[0], out[1] = w.real, w.imag

    head = complex(*_prime_sums(table.count, 2, terms)[0])
    z = (s - 1.0) * math.log(table.limit)
    return head + e1(z).value  # raises SingularityError when x = 1


def mertens_ratio(table: PrimeTable) -> float:
    """Ratio of prod_{p <= x} (1 - 1/p)^-1 to its asymptote e^gamma log x.

    The log of the product is the zeta product's kernel at s = 1,
    log_raw_product(1.0, table, ZETA).real.  Tends to 1 from above as x
    grows.  Requires limit >= 2 so the product is nonempty and log x > 0.
    """
    if table.limit < 2:
        raise SingularityError(
            f"Mertens ratio needs at least one prime (limit >= 2), got {table.limit}"
        )
    log_sum = log_raw_product(1.0, table, ProductVariant.ZETA).real
    return math.exp(log_sum - EULER_GAMMA - math.log(math.log(table.limit)))
