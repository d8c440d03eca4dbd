"""Span recorder for the traced run, and lookup of the library's functions.

The traced run calls each layer's public functions in-process and wraps
every call in a span: (name, start, end, parent).  A layer's self time is
the sum of its spans' durations minus the parts their child spans cover.
Spans live in memory for one traced pass and are folded into per-name
totals at its end.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.items: dict[str, int] = {}  # records a span name handled, where not one per span
        self._stack: list[int] = []

    def count(self, name: str, items: int) -> None:
        self.items[name] = self.items.get(name, 0) + items

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (self seconds, records handled: counted, else one per span)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, tuple[float, int]] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            seconds, count = totals.get(name, (0.0, 0))
            totals[name] = (seconds + (end - start) - children, count + 1)
        return {name: (seconds, self.items.get(name, count)) for name, (seconds, count) in totals.items()}


def span_cost(samples: int = 20000) -> float:
    """Seconds one begin/end pair adds, measured on an empty span."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        tracer.end(tracer.begin("calibrate"))
    return (time.perf_counter() - start) / samples


class Missing(Exception):
    """A public function the traced run needs is gone or renamed."""


def lookup(module: str, *names: str):
    """The named attributes of ``module``; raises :class:`Missing`."""
    try:
        mod = importlib.import_module(module)
        return tuple(getattr(mod, name) for name in names)
    except (ImportError, AttributeError) as exc:
        raise Missing(f"{module}: {exc}") from None
