"""Complex exponential integral E1(z) with an explicit branch-cut convention.

E1(z) = integral of exp(-t)/t from z to infinity, analytic on the plane cut
along (-inf, 0].  Two double-precision methods cover the plane:

* a power series  E1(z) = -gamma - log z - sum_{k>=1} (-z)^k / (k k!),
  accurate for small |z| and, because the terms have no sign alternation
  there, for arbitrarily large |z| on the negative real axis;
* the standard continued fraction exp(-z) / (z+1- 1/(z+3- 4/(z+5- ...)))
  with numerators k^2, evaluated by the modified Lentz algorithm, for
  large |z| away from the cut.

On the cut itself the two one-sided limits differ by 2*pi*i; callers choose
the side through BranchSide.  FromAbove gives Im E1 = -pi on the negative
real axis, which makes exp(E1) carry the factor -1 needed for real products
on (1/2, 1) to come out real and negative like zeta does there.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum

from .errors import ConvergenceError, DomainError, EulerProductError, SingularityError

#: Euler-Mascheroni constant to full double precision.
EULER_GAMMA = 0.5772156649015329

#: |z| at which the dispatcher switches from the series to the continued
#: fraction.  At 4 the alternating series still loses fewer than 3 digits to
#: cancellation and the fraction already converges in a few dozen steps.
SERIES_CUTOFF = 4.0

_SERIES_TOL = 1e-17
_SERIES_MAX_TERMS = 200
_CF_TOL = 1e-15
_CF_MAX_ITER = 10**4
_TINY = 1e-300


class BranchSide(Enum):
    """Which one-sided limit to take for arguments on the cut (-inf, 0]."""

    FROM_ABOVE = "above"
    FROM_BELOW = "below"


class E1Method(Enum):
    SERIES = "series"
    CONTINUED_FRACTION = "continued-fraction"


@dataclass(frozen=True)
class E1Result:
    value: complex
    method: E1Method
    on_cut: bool


def e1_series(z: complex, *, max_terms: int = _SERIES_MAX_TERMS) -> complex:
    """Power-series evaluation of E1(z).

    Intended for |z| <= SERIES_CUTOFF, where cancellation is harmless.  The
    principal log makes arguments on the negative real axis (imaginary part
    +0.0) come out as the limit from above.  Truncates once a term falls
    below 1e-17 of the running total, or after ``max_terms`` terms.
    """
    z = complex(z)
    if z == 0:
        raise SingularityError("E1 has a logarithmic singularity at z = 0")
    total = -EULER_GAMMA - cmath.log(z)
    power = 1.0 + 0.0j  # (-z)^k / k!
    for k in range(1, max_terms + 1):
        power *= -z / k
        term = power / k
        total -= term
        if abs(term) <= _SERIES_TOL * abs(total):
            break
    return total


def e1_continued_fraction(z: complex) -> complex:
    """Continued-fraction evaluation of E1(z) for |z| above the cutoff.

    Modified Lentz iteration on exp(-z)/(z+1- 1^2/(z+3- 2^2/(z+5- ...))).
    Convergence slows as arg z approaches +-pi; within the iteration cap the
    fraction is reliable for |arg z| up to about 3.05.  Raises
    ConvergenceError when the cap is hit (points hugging the cut), and the
    dispatcher's cut convention must be used for arguments exactly on it.
    """
    z = complex(z)
    if z == 0:
        raise SingularityError("E1 has a logarithmic singularity at z = 0")
    b = z + 1.0
    c = 1.0 / _TINY
    d = 1.0 / b if b != 0 else complex(1.0 / _TINY)
    h = d
    for i in range(1, _CF_MAX_ITER + 1):
        a = -float(i) * float(i)
        b += 2.0
        d = a * d + b
        if d == 0:
            d = complex(_TINY)
        c = b + a / c
        if c == 0:
            c = complex(_TINY)
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < _CF_TOL:
            return cmath.exp(-z) * h
    raise ConvergenceError(
        f"continued fraction for E1 did not converge within {_CF_MAX_ITER} "
        f"iterations at z = {z} (argument too close to the branch cut)"
    )


def e1(z: complex, cut: BranchSide = BranchSide.FROM_ABOVE) -> E1Result:
    """Evaluate E1(z), taking the ``cut`` side limit on (-inf, 0).

    Dispatches on |z|: series up to SERIES_CUTOFF, continued fraction beyond.
    Points on the cut always use the series (its terms are all positive
    there, so it stays stable at any modulus; the term cap is widened
    accordingly) with the principal log supplying the FromAbove value and
    conjugation supplying FromBelow.

    Raises DomainError for a non-finite z, and EulerProductError where
    |E1(z)| leaves double range (about Re z < -709.78 near the cut).
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"E1 needs a finite argument, got {z}")
    if z == 0:
        raise SingularityError("E1 has a logarithmic singularity at z = 0")
    try:
        result = _e1_dispatch(z, cut)
        if cmath.isfinite(result.value):
            return result
    except OverflowError:
        pass
    raise EulerProductError(f"E1 overflows double precision at z = {z}")


def _e1_dispatch(z: complex, cut: BranchSide) -> E1Result:
    on_cut = z.imag == 0.0 and z.real < 0.0
    if on_cut:
        # Canonicalise the imaginary part to +0.0 so the principal log picks
        # arg = +pi regardless of any signed zero the caller passed in.
        terms = max(_SERIES_MAX_TERMS, int(3.2 * abs(z.real)) + 80)
        value = e1_series(complex(z.real, 0.0), max_terms=terms)
        if cut is BranchSide.FROM_BELOW:
            value = value.conjugate()
        return E1Result(value=value, method=E1Method.SERIES, on_cut=True)
    if abs(z) <= SERIES_CUTOFF:
        return E1Result(value=e1_series(z), method=E1Method.SERIES, on_cut=False)
    return E1Result(
        value=e1_continued_fraction(z), method=E1Method.CONTINUED_FRACTION, on_cut=False
    )
