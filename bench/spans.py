"""Spans around eulerprod's layers, recorded from outside the package.

The tracer replaces a function at the module attribute where its caller looks
it up (``cli.scan``, ``product.e1``, ...), so ``src/`` stays untouched.  Each
call becomes a span: name, parent, thread, start, end and a few attributes
read from the arguments or the result.  Spans stay in memory; per-layer
metrics are computed from them after the run.

Scans may hand points to a thread pool.  A span opened on a thread with no
open span of its own takes the main thread's innermost open span as parent,
which is the ``scan`` call that submitted it.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    thread: int
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped functions, on any thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args=(), kwargs=None,
             on_result: Optional[Callable] = None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        ``on_result(attrs, args, kwargs, result)`` may add attributes to the
        span; an exception is recorded as attribute ``error`` and re-raised.
        """
        kwargs = kwargs or {}
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span_id = next(self._ids)
        attrs: dict = {}
        stack.append(span_id)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            end = perf_counter()
            stack.pop()
            # list.append is atomic, so pool threads can share the list.
            self.spans.append(
                Span(span_id, parent, name, threading.get_ident(), start, end, attrs)
            )
        if on_result is not None:
            on_result(attrs, args, kwargs, result)
        return result

    def wrap(self, owner, attr: str, name: str,
             on_result: Optional[Callable] = None) -> bool:
        """Replace ``owner.attr`` by a traced version; False when it is gone."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return False

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, on_result)

        setattr(owner, attr, traced)
        return True


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it covered by its children.

    Children that overlap (pool threads) are counted once, so self time is
    never negative.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(children[s.id], s.start, s.end) for s in spans}
