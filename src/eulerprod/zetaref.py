"""Independent reference evaluator for the Riemann zeta function.

Corrected Euler products are judged against this module, so it deliberately
shares no machinery with them: zeta is computed from the globally convergent
alternating (Dirichlet eta) series accelerated with Chebyshev-derived
weights, then divided by the eta factor (1 - 2^(1-s)).

The series has a fixed depth of _TERMS = 64, and the result is accurate to
~1e-14 relative for Re(s) >= 0.5 and |Im(s)| <= 50.  It is not accurate
enough for the taller scans: vertical lines go to t = 100, where at
sigma = 0.6 the relative error is 1.7e-3.  The acceleration error grows like
exp(pi |t| / 2) / (3 + sqrt 8)^64; ROADMAP item 2 replaces the series with
Euler-Maclaurin summation, which is accurate at every height.
"""

from __future__ import annotations

import cmath
import math
from functools import cache
from itertools import accumulate

from .errors import DomainError, PoleProximityError

#: Terms of the accelerated eta series.
_TERMS = 64

#: zeta_ref refuses points closer than this to the pole at s = 1.
_POLE_GUARD = 1e-6

#: |1 - 2^(1-s)| below which the eta factor is treated as numerically zero.
#: The pole guard already owns a disc of radius _POLE_GUARD around s = 1, and
#: points one offset step away from an eta zero sit near 6.9e-5, so 1e-7
#: cleanly separates the two regimes.
_ETA_ZERO_EPS = 1e-7
_ETA_ZERO_OFFSET = 1e-4


@cache
def _weights() -> tuple[tuple[float, float], ...]:
    # ((-1)^k w_k, log(k + 1)) for k < n = _TERMS, with w_k = (d_n - d_k) / d_n
    # and d_k = sum_{j<=k} n (n+j-1)! 4^j / ((n-j)! (2j)!), a sum of integers.
    # Each w_k is one int / int, rounded once.
    n = _TERMS
    f = math.factorial
    d = list(
        accumulate(n * f(n + j - 1) * 4**j // (f(n - j) * f(2 * j)) for j in range(n + 1))
    )
    return tuple(((-1) ** k * (d[n] - d[k]) / d[n], math.log(k + 1)) for k in range(n))


def _eta_series(s: complex) -> complex:
    total = 0.0 + 0.0j
    for w, log_n in _weights():
        total += w * cmath.exp(-s * log_n)
    return total


def zeta_ref(s: complex) -> complex:
    """zeta(s) for finite s with Re(s) > 0, at least _POLE_GUARD from 1.

    At the removable numerical singularities s = 1 + 2 pi i k / ln 2 (k != 0),
    where the eta factor vanishes but zeta itself is finite, the value is
    replaced by the average of three neighbouring evaluations offset by
    1e-4 in t; those points lie in no acceptance grid and the averaged value
    is good to ~1e-4.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"zeta_ref needs a finite argument, got {s}")
    if s.real <= 0:
        raise DomainError(f"zeta_ref requires Re(s) > 0, got {s}")
    if abs(s - 1.0) < _POLE_GUARD:
        raise PoleProximityError(
            f"zeta_ref evaluated within {_POLE_GUARD} of the pole at s = 1"
        )
    eta_factor = 1.0 - cmath.exp((1.0 - s) * math.log(2.0))
    if abs(eta_factor) < _ETA_ZERO_EPS:
        h = _ETA_ZERO_OFFSET
        return (
            zeta_ref(complex(s.real, s.imag - h))
            + zeta_ref(complex(s.real, s.imag + h))
            + zeta_ref(complex(s.real, s.imag + 2 * h))
        ) / 3.0
    return _eta_series(s) / eta_factor
