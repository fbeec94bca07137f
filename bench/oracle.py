"""mpmath oracle for the CLI's CSV, and the rule that decides which rows failed.

The oracle is mpmath's zeta, which shares no code with ``eulerprod``.  Every
workload uses the ``zeta`` product variant, so the oracle value of a row is
zeta(sigma + i t).

A row fails when it carries an ``error:`` flag, when its value is not finite,
or when its reference (``re_ref``/``im_ref``) is more than ``REF_TOLERANCE``
relative away from the oracle: a silently wrong reference makes the row's
own ``abs_err``/``rel_err`` meaningless.  A nonzero exit status fails every
row.  Rows that did not fail are measured against the oracle with the
comparison the command itself uses.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath

#: Largest relative distance between a row's reference and the oracle.
REF_TOLERANCE = 1e-9

#: Working precision of the oracle, in decimal digits.
ORACLE_DPS = 30

CSV_HEADER = "sigma,t,x,re_value,im_value,re_ref,im_ref,abs_err,rel_err,flags"


def zeta_oracle(points: Sequence[tuple[float, float, int]]) -> list[complex]:
    """mpmath's zeta at each (sigma, t, x) point, rounded to complex doubles."""
    values = []
    with mpmath.workdps(ORACLE_DPS):
        for sigma, t, _ in points:
            s = mpmath.mpc(sigma, t) if t else mpmath.mpf(sigma)
            values.append(complex(mpmath.zeta(s)))
    return values


@dataclass(frozen=True)
class Row:
    sigma: float
    t: float
    x: int
    value: Optional[complex]
    reference: Optional[complex]
    flags: tuple[str, ...]


def _cell(text: str) -> Optional[float]:
    return float(text) if text else None


def _pair(re: str, im: str) -> Optional[complex]:
    if not re and not im:
        return None
    return complex(_cell(re) or 0.0, _cell(im) or 0.0)


def parse_csv(text: str) -> list[Row]:
    """Rows of a CLI CSV; raises ValueError when the header or a row is malformed."""
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise ValueError("CSV lacks the expected header or final newline")
    rows = []
    for cells in csv.reader(io.StringIO("\n".join(lines[1:-1]))):
        if len(cells) != 10:
            raise ValueError(f"CSV row has {len(cells)} cells, expected 10: {cells}")
        rows.append(
            Row(
                sigma=float(cells[0]),
                t=float(cells[1]),
                x=int(cells[2]),
                value=_pair(cells[3], cells[4]),
                reference=_pair(cells[5], cells[6]),
                flags=tuple(f for f in cells[9].split(";") if f),
            )
        )
    return rows


@dataclass(frozen=True)
class Verdict:
    """How one row fared: why it failed (None when it did not) and its error."""

    failure: Optional[str]
    rel_err: Optional[float]


def error_against(value: complex, exact: complex, compare: str) -> float:
    """Absolute error of ``value`` against ``exact`` as the command measures it."""
    if compare == "real":
        return abs(value.real - exact.real)
    if compare == "modulus":
        return abs(abs(value) - abs(exact))
    if compare == "complex":
        return abs(value - exact)
    raise ValueError(f"unknown comparison {compare!r}")


def within_envelope(row: Row, exact: complex, compare: str) -> bool:
    """Whether the row's error is inside the paper's bound x^(1/2 - sigma) log x."""
    envelope = row.x ** (0.5 - row.sigma) * math.log(row.x)
    return error_against(row.value, exact, compare) <= envelope


def classify(row: Row, exact: complex, compare: str) -> Verdict:
    """Judge one CSV row against the oracle value ``exact``."""
    if any(f.startswith("error:") for f in row.flags):
        return Verdict("error-flag", None)
    value = row.value
    if value is None or not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return Verdict("non-finite", None)
    ref = row.reference
    if ref is None or not abs(ref - exact) <= REF_TOLERANCE * abs(exact):
        return Verdict("off-oracle", None)
    return Verdict(None, error_against(value, exact, compare) / abs(exact))


@dataclass(frozen=True)
class Accuracy:
    """Row verdicts of one CSV, summarised."""

    rows: int
    failures: dict[str, int]
    median_rel_err: float
    max_rel_err: float

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def passed_share(self) -> float:
        return (self.rows - self.failed) / self.rows


def summarise(verdicts: Sequence[Verdict]) -> Accuracy:
    failures: dict[str, int] = {}
    errors = []
    for v in verdicts:
        if v.failure is None:
            errors.append(v.rel_err)
        else:
            failures[v.failure] = failures.get(v.failure, 0) + 1
    return Accuracy(
        rows=len(verdicts),
        failures=failures,
        median_rel_err=statistics.median(errors) if errors else math.nan,
        max_rel_err=max(errors) if errors else math.nan,
    )
