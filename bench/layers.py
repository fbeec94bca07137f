"""Which eulerprod functions are traced, and the per-layer metrics made from their spans.

The layers are the package modules ``primes``, ``product``, ``specfun``,
``zetaref``, ``experiments`` and ``cli``.  Each wrapper sits on the module
attribute the caller looks up, so a call from ``cli`` to ``scan`` is traced
at ``cli.scan`` and a call from ``product`` to ``e1`` at ``product.e1``.
When a refactor removes a wrapped function its metrics are reported as
absent (``None``), not as zero.

This module imports no eulerprod code at import time: the benchmark's parent
process uses it without loading the package under test.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Optional

from spans import Span, Tracer, self_times

SIEVE = "primes.sieve"
TRUNCATE = "primes.truncate"
SCAN = "experiments.scan"
DECAY = "experiments.error_decay"
CORRECTED = "product.corrected_product"
LOG_RAW = "product.log_raw_product"
E1 = "specfun.e1"
ZETA_REF = "zetaref.zeta_ref"
MAIN = "cli.main"


def _sieve_attrs(attrs, args, kwargs, table) -> None:
    attrs["primes"] = table.count
    # Computed, not measured: the bool mask the sieve allocates for
    # limit >= 2, plus the int64 prime and float64 log tables it returns.
    mask = table.limit + 1 if table.limit >= 2 else 0
    attrs["bytes"] = mask + table.primes.nbytes + table.log_primes.nbytes


def _log_raw_attrs(attrs, args, kwargs, result) -> None:
    table = args[1] if len(args) > 1 else kwargs["table"]
    attrs["terms"] = table.count


def _e1_attrs(attrs, args, kwargs, result) -> None:
    attrs["method"] = result.method.value


def install(tracer: Tracer) -> dict[str, bool]:
    """Wrap every traced function; returns span name -> whether any site was found."""
    from eulerprod import cli, experiments, primes, product

    sites = [
        (cli, "sieve", SIEVE, _sieve_attrs),
        (experiments, "sieve", SIEVE, _sieve_attrs),
        (primes.PrimeTable, "truncate", TRUNCATE, None),
        (cli, "scan", SCAN, None),
        (cli, "error_decay", DECAY, None),
        (cli, "corrected_product", CORRECTED, None),
        (experiments, "corrected_product", CORRECTED, None),
        (product, "log_raw_product", LOG_RAW, _log_raw_attrs),
        (product, "e1", E1, _e1_attrs),
        (product, "zeta_ref", ZETA_REF, None),
    ]
    installed = {MAIN: True}
    for owner, attr, name, on_result in sites:
        found = tracer.wrap(owner, attr, name, on_result)
        installed[name] = installed.get(name, False) or found
    return installed


class Spans:
    """The spans of one traced run, grouped by name."""

    def __init__(self, spans: list[Span], rows: int):
        self.rows = rows
        self.groups: dict[str, list[Span]] = defaultdict(list)
        for s in spans:
            self.groups[s.name].append(s)
        self._self_s = self_times(spans)

    def calls(self, name: str) -> int:
        return len(self.groups[name])

    def busy(self, name: str) -> float:
        return sum(s.duration for s in self.groups[name])

    def self_time(self, *names: str) -> float:
        return sum(self._self_s[s.id] for n in names for s in self.groups[n])

    def total(self, name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in self.groups[name])

    def count(self, name: str, key: str, value=None) -> int:
        """Spans whose attribute ``key`` is set (to ``value``, when given)."""
        return sum(
            1 for s in self.groups[name]
            if key in s.attrs and (value is None or s.attrs[key] == value)
        )


def _ratio(num: float, den: float, scale: float = 1.0) -> Optional[float]:
    return num / den * scale if den else None


# metric -> (span names that must be wrapped for it to exist, how to compute it)
METRICS: dict[str, tuple[tuple[str, ...], Callable[[Spans], Optional[float]]]] = {
    "primes.sieve.busy_s": ((SIEVE,), lambda g: g.busy(SIEVE)),
    "primes.sieve.primes": ((SIEVE,), lambda g: g.total(SIEVE, "primes")),
    "primes.sieve.bytes_computed": ((SIEVE,), lambda g: g.total(SIEVE, "bytes")),
    "primes.truncate.calls": ((TRUNCATE,), lambda g: g.calls(TRUNCATE)),
    "product.log_raw_product.busy_s": ((LOG_RAW,), lambda g: g.busy(LOG_RAW)),
    "product.log_raw_product.calls": ((LOG_RAW,), lambda g: g.calls(LOG_RAW)),
    "product.log_raw_product.prime_terms": ((LOG_RAW,), lambda g: g.total(LOG_RAW, "terms")),
    "product.log_raw_product.ns_per_term": (
        (LOG_RAW,), lambda g: _ratio(g.busy(LOG_RAW), g.total(LOG_RAW, "terms"), 1e9)
    ),
    "product.corrected_product.self_s": ((CORRECTED,), lambda g: g.self_time(CORRECTED)),
    "product.evals_per_row": ((CORRECTED,), lambda g: _ratio(g.calls(CORRECTED), g.rows)),
    "specfun.e1.busy_s": ((E1,), lambda g: g.busy(E1)),
    "specfun.e1.calls": ((E1,), lambda g: g.calls(E1)),
    "specfun.e1.series_calls": ((E1,), lambda g: g.count(E1, "method", "series")),
    "specfun.e1.cf_calls": ((E1,), lambda g: g.count(E1, "method", "continued-fraction")),
    "specfun.e1.errors": ((E1,), lambda g: g.count(E1, "error")),
    "specfun.e1.max_call_s": (
        (E1,), lambda g: max((s.duration for s in g.groups[E1]), default=0.0)
    ),
    "zetaref.zeta_ref.busy_s": ((ZETA_REF,), lambda g: g.busy(ZETA_REF)),
    "zetaref.zeta_ref.calls": ((ZETA_REF,), lambda g: g.calls(ZETA_REF)),
    "experiments.self_s": ((SCAN, DECAY), lambda g: g.self_time(SCAN, DECAY)),
    "cli.main.self_s": ((MAIN,), lambda g: g.self_time(MAIN)),
}

#: Metrics that must repeat exactly between runs of one commit.
EXACT = (
    "primes.sieve.primes",
    "primes.sieve.bytes_computed",
    "primes.truncate.calls",
    "product.log_raw_product.calls",
    "product.log_raw_product.prime_terms",
    "product.evals_per_row",
    "specfun.e1.series_calls",
    "specfun.e1.cf_calls",
    "specfun.e1.errors",
    "zetaref.zeta_ref.calls",
)


def layer_metrics(
    spans: list[Span], installed: dict[str, bool], rows: int
) -> dict[str, Optional[float]]:
    """Per-layer metrics of one traced run that wrote ``rows`` CSV rows.

    A metric is None when none of the functions it is made from exist.
    """
    g = Spans(spans, rows)
    return {
        name: compute(g) if any(installed.get(n, False) for n in needs) else None
        for name, (needs, compute) in METRICS.items()
    }


def top_level_fit(spans: list[Span]) -> tuple[float, float]:
    """Summed duration of the spans directly under cli.main, and cli.main's duration."""
    roots = [s for s in spans if s.name == MAIN]
    if len(roots) != 1:
        raise ValueError(f"expected one {MAIN} span, found {len(roots)}")
    root = roots[0]
    return sum(s.duration for s in spans if s.parent == root.id), root.duration
