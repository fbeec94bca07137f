"""Complex exponential integral E1(z) with an explicit branch-cut convention.

E1(z) = integral of exp(-t)/t from z to infinity, analytic on the plane cut
along (-inf, 0].  Two double-precision methods cover the plane:

* a power series  E1(z) = -gamma - log z - sum_{k>=1} (-z)^k / (k k!),
  whose terms peak near e^|z| while E1 is near e^-Re z / |z|, so it cancels
  by about e^(|z| + Re z): little for small |z| or near the negative real
  axis at any modulus (on the cut the terms all have one sign);
* the standard continued fraction exp(-z) / (z+1- 1/(z+3- 4/(z+5- ...)))
  with numerators k^2, evaluated by the modified Lentz algorithm, fast for
  large |z| away from the cut and ever slower as arg z nears +-pi.

e1 takes the series exactly where |z| + Re z <= 3, that is Re sqrt(z) <=
sqrt(1.5): a parabola holding the whole cut, where the series cancels by at
most about e^3, and the fraction everywhere else, where it converges well
within its cap.  3 is where the two methods' errors meet: along
|z| + Re z = c for |z| from 1 to 700, against 40-digit mpmath, the series
errs by at most 3.6e-15, 5.0e-15, 9.9e-15 and 2.7e-14 at c = 2, 3, 4 and 5,
and the fraction just outside by at most 7.8e-15, 3.6e-15, 3.9e-15 and
3.8e-15.  Either side of c = 3, e1 errs by at most 8e-15.

On the cut itself the two one-sided limits differ by 2*pi*i; callers choose
the side through BranchSide.  FromAbove gives Im E1 = -pi on the negative
real axis, which makes exp(E1) carry the factor -1 needed for real products
on (1/2, 1) to come out real and negative like zeta does there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConvergenceError, DomainError, EulerProductError, SingularityError

#: Euler-Mascheroni constant to full double precision.
EULER_GAMMA = 0.5772156649015329

#: e1 takes the series where |z| + Re z <= _SERIES_BOUND: measured against
#: mpmath, the series' and the fraction's worst errors meet at 3 (module
#: docstring).
_SERIES_BOUND = 3.0
_SERIES_TOL = 1e-17
#: Past |z| = _SERIES_FAR, about where e^|z| leaves double range,
#: e1_series scales its terms by 2^-_SERIES_SHIFT.
_SERIES_FAR = 709.0
_SERIES_SHIFT = 64
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


def e1_series(z: complex) -> complex:
    """Power-series evaluation of E1(z) in e1's series region.

    The principal log makes arguments on the negative real axis (imaginary
    part +0.0) come out as the limit from above.  Truncates once a term
    falls below 1e-17 of the running total, or after max(200, 3.2|z| + 80)
    terms, past the terms' peak near k = |z|.  Where that peak would leave
    double range before E1 does, the sum is made scaled by a power of two,
    which gives the same bits as unbounded exponents would.
    """
    z = complex(z)
    if z == 0:
        raise SingularityError("E1 has a logarithmic singularity at z = 0")
    total = -EULER_GAMMA - cmath.log(z)
    power = 1.0 + 0.0j  # (-z)^k / k!
    # Past |z| = _SERIES_FAR the terms, which peak near e^|z| / sqrt(2 pi |z|),
    # would overflow before E1 does: there the total and every term are
    # carried times 2^-_SERIES_SHIFT, which leaves each operation exact, and
    # scaled back at the end.
    shift = _SERIES_SHIFT if abs(z) > _SERIES_FAR else 0
    if shift:
        total, power = _ldexp(total, -shift), _ldexp(power, -shift)
    for k in range(1, max(200, int(3.2 * abs(z)) + 80) + 1):
        power *= -z / k
        term = power / k
        total -= term
        if abs(term) <= _SERIES_TOL * abs(total):
            break
    return _ldexp(total, shift) if shift else total


def _ldexp(w: complex, shift: int) -> complex:
    """w * 2^shift, exact unless it underflows; OverflowError where it
    leaves double range."""
    return complex(math.ldexp(w.real, shift), math.ldexp(w.imag, shift))


def e1_continued_fraction(z: complex) -> complex:
    """Continued-fraction evaluation of E1(z) away from the cut.

    Modified Lentz iteration on exp(-z)/(z+1- 1^2/(z+3- 2^2/(z+5- ...))).
    Convergence slows as arg z nears +-pi; at |z| of 4-10 it hits the
    iteration cap beyond about |arg z| = 3.1 and raises ConvergenceError.
    e1 sends it exactly the points with |z| + Re z > 3, where it errs by at
    most 8e-15 against mpmath and is no less accurate than the series (the
    module docstring's table of both errors) and converges well within its
    iteration cap up to |z| = 700.
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

    One rule: the series where |z| + Re z <= 3 and the continued fraction
    elsewhere.  3 is where the two methods' measured errors meet (module
    docstring), and on either side e1 errs by at most 8e-15.  On the cut
    the principal log, at imaginary part +0.0 whatever signed zero z
    carries, gives the FromAbove value and conjugation FromBelow.

    Raises DomainError for a non-finite z, and EulerProductError where
    |E1(z)| leaves double range: next to the cut, from about |z| = 716.4
    (-716.3 returns, -717 raises).
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"E1 needs a finite argument, got {z}")
    on_cut = z.imag == 0.0 and z.real < 0.0
    try:
        # |z| + Re z = 0 on the cut and at z = 0, which e1_series refuses.
        if abs(z) + z.real <= _SERIES_BOUND:
            method = E1Method.SERIES
            value = e1_series(complex(z.real, 0.0) if on_cut else z)
            if on_cut and cut is BranchSide.FROM_BELOW:
                value = value.conjugate()
        else:
            method, value = E1Method.CONTINUED_FRACTION, e1_continued_fraction(z)
        if cmath.isfinite(value):
            return E1Result(value=value, method=method, on_cut=on_cut)
    except OverflowError:
        pass
    raise EulerProductError(f"E1 overflows double precision at z = {z}")
