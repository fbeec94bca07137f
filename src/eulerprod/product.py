"""Truncated Euler products with the exponential-integral correction.

The product over primes p <= x is accumulated in the log domain and
exponentiated once.  Multiplying by exp(+-E1[(s-1) log x]) compensates the
truncation of the slowest-converging component (the prime zeta part) and
extends the product's useful range from Re(s) > 1 to Re(s) > 1/2, away from
s = 1, with an empirically checkable error that decays like
x^(1/2 - sigma) log x.  This is correction order 1, the paper's.

Order 2 adds the prime-square term.  The log of the product counts prime
powers, and Riemann's prime-power count J(x) = sum_k pi(x^(1/k))/k ~ li(x)
puts a second deterministic piece into the tail beyond p <= x.  With
L = log x and F(w) = E1[(2s-1) w] it is +(F(L) - F(L/2))/2 for the zeta
product, its negative for the inverse, and +(F(L) + F(L/2))/2 for the
ratio.  Order 2 applies the term only on 1/2 < Re(s) < 1 (see
corrected_product).  Scans, decay fits and the CLI use order 2
(eulerprod.experiments.EXPERIMENT_ORDER); corrected_product defaults to 1.

Three product shapes are supported:

* Zeta:        prod (1 - p^-s)^-1  with correction +E1, approximating zeta(s)
* InverseZeta: prod (1 - p^-s)     with correction -E1, approximating 1/zeta(s)
* Ratio:       prod (1 + p^-s)^-1  with correction -E1, approximating
               zeta(2s)/zeta(s)

Per-factor principal logs never wrap because |p^-s| < 1 for Re(s) > 0, so
every factor has positive real part.  With ~78k terms at x = 10^6 a naive
sum would lose about 3 digits and break the package's 1e-12 identity
invariants, so every per-prime sum is an error-free cascade (Ogita, Rump &
Oishi, "Accurate sum and dot product", SIAM J. Sci. Comput. 26(6), 2005).
The terms are made in blocks of _BLOCK_TERMS primes.  Each sum allocates one
work array, sized from one block and the number of quantities summed, and
every block writes its p^-s, its terms, their intermediate values and every
level of the cascade into views of it: no block allocates an array, and a
deep table never holds more than one block of terms.  The terms lie one row
per prime, so each half of a level is one contiguous slice.  Each block is
halved level by level with TwoSum, which splits a + b exactly into the
rounded sum and its error, until it is at most _CASCADE_STOP rows long.
The errors of each level are summed per quantity, and math.fsum adds up
those error sums, the odd rows left over and the last level's rows of every
block.
The result is within 2^-53 |sum| + n 2^-104 sum |term| of the exact sum of
n terms; it equals one math.fsum over all terms unless that sum lies within
about n 2^-104 sum |term| of a rounding boundary.

Each term log(1 + u), with u = +-p^-s = a + ib, is made as
log1p(2a + a^2 + b^2)/2 + i arctan2(b, 1 + a).  For real s > 0 every p^-s
is real and in (0, 1], so _prime_powers makes it with a real exp, each term
is log1p(u), made in place, and the imaginary part is exactly 0.  Every
other s takes the complex formula.  Both formulas are equally close to a
30-digit mpmath sum (within 1.9 * 2^-53 sum |term| at x = 10^4, 9 values of
s from 0.51 to 5), but they round differently, and numpy's real exp and the
real part of its complex exp can differ in the last bit, so a real-axis log
sum may differ from the complex formula's by up to 2 ulp (measured on 540
points at x = 10^4 and 10^6).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EulerProductError, SingularFactorError, SingularityError
from .primes import PrimeTable
from .specfun import EULER_GAMMA, BranchSide, e1
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
_SHAPE = {
    ProductVariant.ZETA: (-1.0, -1.0),
    ProductVariant.INVERSE_ZETA: (1.0, -1.0),
    ProductVariant.RATIO_ZETA2S_OVER_ZETA: (-1.0, 1.0),
}

# Correction is +E1 for the zeta product and -E1 for the other two.
_CORRECTION_SIGN = {
    ProductVariant.ZETA: 1.0,
    ProductVariant.INVERSE_ZETA: -1.0,
    ProductVariant.RATIO_ZETA2S_OVER_ZETA: -1.0,
}

# Prime-square term per variant: a * E1[(2s-1) log x] + b * E1[(s-1/2) log x].
# The zeta and inverse-zeta weights are exact negatives, so the two
# order-2 corrections negate exactly in floating point.
_PRIME_SQUARE_WEIGHTS = {
    ProductVariant.ZETA: (0.5, -0.5),
    ProductVariant.INVERSE_ZETA: (-0.5, 0.5),
    ProductVariant.RATIO_ZETA2S_OVER_ZETA: (0.5, 0.5),
}


#: Primes per block of the per-prime sums (see the module docstring).  One
#: call's work array then takes 256 KiB for a real sum and 640 KiB for a
#: complex one, within a 2 MiB L2.  As no block allocates, the size no longer
#: decides page faults: ``scan-real`` at x = 10^6 (280 rows) took about 680
#: minor faults with blocks of 2^13 or 2^14 and 1,240 with 2^17 (2-vCPU
#: Linux VM).  Smaller blocks keep more partials: ``decay`` up to 10^8
#: peaked 2 MB higher with 2^13.  Another size hands math.fsum other
#: partials, so a sum near a rounding boundary could move in its last bit.
_BLOCK_TERMS = 1 << 14

#: Length at which the cascade stops halving a block.  A level costs about
#: ten numpy calls, more than math.fsum takes for this many rows.
_CASCADE_STOP = 128


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


def _prime_sums(count: int, rows: int, terms, scratch: int = 0) -> list[float]:
    """Sums of ``count`` per-prime terms in ``rows`` quantities.

    ``terms(block, out, work)`` writes the terms of ``block``, a slice of
    range(count), into ``out``: a C-contiguous float array with one row per
    term of the block and one column per quantity.  ``work`` holds
    ``scratch`` floats per term for its intermediate values.  Both are views
    of the one array this call allocates, which every block reuses, cascade
    levels included (module docstring).  Returns one sum per quantity; no
    terms sum to 0.
    """
    if count == 0:
        return [0.0] * rows
    width = min(count, _BLOCK_TERMS)
    half = width // 2
    span = width * rows
    work = np.empty(span + max(scratch * width, 2 * half * rows))
    first = work[:span].reshape(width, rows)
    # A level's sums and the t of its TwoSum go apart from the level, so no
    # ufunc's output overlaps an input it does not equal.
    second = work[span : span + half * rows].reshape(half, rows)
    t_region = work[span + half * rows : span + 2 * half * rows].reshape(half, rows)
    partials: list[list[float]] = [[] for _ in range(rows)]
    # Far left of the half-plane p^-s overflows; the inf and nan it makes
    # reach the caller as an error, not as numpy warnings on stderr.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, count, width):
            n = min(width, count - start)
            level, here, there = first[:n], first, second
            terms(slice(start, start + n), level, work[span : span + scratch * n])
            while n > _CASCADE_STOP:
                n, odd = divmod(n, 2)
                if odd:
                    for row, value in zip(partials, level[-1].tolist()):
                        row.append(value)
                a, b, t = level[:n], level[n : 2 * n], t_region[:n]
                level, here, there = there[:n], there, here
                # TwoSum: level + (a - (level - t)) + (b - t) == a + b
                # exactly, with t = level - a.  The errors overwrite a and b.
                np.add(a, b, out=level)
                np.subtract(level, a, out=t)
                np.subtract(b, t, out=b)
                np.subtract(level, t, out=t)
                np.subtract(a, t, out=a)
                np.add(a, b, out=a)
                # Each quantity's errors lie in one column and are summed
                # pairwise, as a contiguous row would be.
                for q, row in enumerate(partials):
                    row.append(np.add.reduce(a[:, q]))
            for row, values in zip(partials, level.T.tolist()):
                row.extend(values)
    return [math.fsum(row) for row in partials]


def _is_real(s: complex) -> bool:
    """Whether s takes the real path: real s > 0 makes every p^-s real."""
    return s.imag == 0.0 and s.real > 0.0


def _prime_powers(s: complex, log_primes: np.ndarray, out: np.ndarray) -> None:
    """Writes p^-s for the primes whose logs are ``log_primes`` into ``out``.

    A float ``out`` takes a real exp (real s > 0), a complex one the complex
    exp.
    """
    np.multiply(-s.real if out.dtype.kind == "f" else -s, log_primes, out=out)
    np.exp(out, out=out)


def log_raw_product(s: complex, table: PrimeTable, variant: ProductVariant) -> complex:
    """Sum of per-prime log factors for the truncated product, uncorrected.

    Zeta:        -sum log(1 - p^-s)
    InverseZeta: +sum log(1 - p^-s)
    Ratio:       -sum log(1 + p^-s)

    Raises SingularFactorError if some factor vanishes at s (possible only
    outside the supported half-plane, e.g. p^s = 1 at s = 0, or where p^-s
    rounds to 1, as 2^-s does at s = 1e-18).
    """
    s = complex(s)
    coeff, sign = _SHAPE[variant]
    real = _is_real(s)

    def check(block, re):
        # A factor 1 + u that vanishes makes its real term log1p(-1) = -inf.
        # Only then is the block looked at again to find the factor.
        if np.fmin.reduce(re) != -np.inf:
            return
        if real:
            dead = re == -np.inf
        else:
            w = np.exp(-s * table.log_primes[block])
            dead = (1.0 + sign * w.real == 0.0) & (sign * w.imag == 0.0)
        if dead.any():
            p = int(table.primes[block][int(np.argmax(dead))])
            raise SingularFactorError(
                f"Euler factor vanishes at prime {p} for s = {s}", prime=p
            )

    def real_terms(block, out, work):
        # log(1 + u) = log1p(u) for u = sign * p^-s, real and in [-1, 1].
        re = out[:, 0]
        _prime_powers(s, table.log_primes[block], re)
        if sign < 0.0:
            np.negative(re, out=re)
        np.log1p(re, out=re)
        check(block, re)

    def complex_terms(block, out, work):
        # log(1 + u) for u = sign * p^-s = a + ib, written so the real part
        # goes through a real log1p: re = log|1+u| = log1p(2a + a^2 + b^2) / 2,
        # im = arg(1+u).  p^-s is made in ``out``, the rest in ``work``.
        w = out.view(np.complex128)[:, 0]
        _prime_powers(s, table.log_primes[block], w)
        n = w.size
        a, b, x = work[:n], work[n : 2 * n], work[2 * n :]
        np.multiply(sign, w.real, out=a)
        np.multiply(sign, w.imag, out=b)
        np.add(1.0, a, out=x)
        np.arctan2(b, x, out=out[:, 1])
        np.multiply(2.0, a, out=x)
        np.multiply(a, a, out=a)
        np.add(x, a, out=x)
        np.multiply(b, b, out=b)
        np.add(x, b, out=x)
        np.log1p(x, out=x)
        check(block, x)
        np.multiply(0.5, x, out=out[:, 0])

    if real:
        # One row: complex(re) has imaginary part +0.0.
        return coeff * complex(*_prime_sums(table.count, 1, real_terms))
    return coeff * complex(*_prime_sums(table.count, 2, complex_terms, scratch=3))


def corrected_product(
    s: complex,
    table: PrimeTable,
    variant: ProductVariant = ProductVariant.ZETA,
    order: int = 1,
) -> Evaluation:
    """Truncated Euler product at s with its exponential-integral correction.

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
    s = complex(s)
    if s == 1:
        raise SingularityError(
            "s = 1 is excluded (pole of the zeta product, zero of its inverse); "
            "use mertens_ratio for the limiting behaviour at s = 1"
        )
    log_raw = log_raw_product(s, table, variant)
    log_x = math.log(table.limit) if table.limit >= 1 else 0.0
    e1_result = e1((s - 1.0) * log_x)  # raises SingularityError when x = 1
    correction = _CORRECTION_SIGN[variant] * e1_result.value
    if order == 2 and 0.5 < s.real < 1.0:
        a, b = _PRIME_SQUARE_WEIGHTS[variant]
        correction += (
            a * e1((2.0 * s - 1.0) * log_x).value + b * e1((s - 0.5) * log_x).value
        )
    try:
        value = cmath.exp(log_raw + correction)
    except OverflowError:
        raise EulerProductError(
            f"corrected product overflows double precision at s = {s}, "
            f"x = {table.limit}"
        ) from None
    return Evaluation(
        s=s,
        x=table.limit,
        variant=variant,
        log_raw_product=log_raw,
        correction=correction,
        value=value,
        outside_domain=s.real <= 0.5,
        on_cut=e1_result.on_cut,
        order=order,
    )


def prime_zeta_truncated(
    s: complex, table: PrimeTable, cut: BranchSide = BranchSide.FROM_ABOVE
) -> complex:
    """Truncated prime zeta sum plus its E1 correction.

    Returns sum_{p <= x} p^-s + E1[(s-1) log x], the x-truncated
    approximation to the prime zeta function P(s) on Re(s) > 1/2.  P has a
    branch point at s = 1 (the cut in s runs along (1/2, 1]), so s = 1 is
    rejected.
    """
    s = complex(s)
    if s == 1:
        raise SingularityError("prime zeta has a branch point at s = 1")
    if table.count == 0 and table.limit < 1:
        raise SingularityError("prime zeta truncation needs a limit of at least 1")

    real = _is_real(s)

    def terms(block, out, work):
        # p^-s itself: one real column, or complex values filling both.
        w = out[:, 0] if real else out.view(np.complex128)[:, 0]
        _prime_powers(s, table.log_primes[block], w)

    head = complex(*_prime_sums(table.count, 1 if real else 2, terms))
    z = (s - 1.0) * math.log(table.limit)
    return head + e1(z, cut).value  # raises SingularityError when x = 1


def mertens_ratio(table: PrimeTable) -> float:
    """Ratio of prod_{p <= x} (1 - 1/p)^-1 to its asymptote e^gamma log x.

    Computed in the log domain; tends to 1 from above as x grows.  Requires
    limit >= 2 so the product is nonempty and log x is positive.
    """
    if table.limit < 2:
        raise SingularityError(
            f"Mertens ratio needs at least one prime (limit >= 2), got {table.limit}"
        )

    def terms(block, out, work):
        row = out[:, 0]
        row[...] = table.primes[block]
        np.divide(-1.0, row, out=row)
        np.log1p(row, out=row)

    (log_sum,) = _prime_sums(table.count, 1, terms)
    return math.exp(-log_sum - EULER_GAMMA - math.log(math.log(table.limit)))
