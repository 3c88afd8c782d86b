"""In-memory spans with parent links, and per-name self time.

A span records its name, the index of the span that was open when it began
(its cause), and its start and end on the tracer's clock. A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Iterator

NAME, PARENT, START, END = range(4)


class Tracer:
    """Collects spans in memory."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, self.clock(), 0])
        self._open.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self._open.pop()][END] = self.clock()

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` with a span around each call."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.end()

        return traced

    def wrap_iter(self, name: str, func: Callable[..., Iterator]) -> Callable[..., Iterator]:
        """Generator ``func`` with a span around each step of its iteration."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            iterator = func(*args, **kwargs)
            while True:
                self.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.end()
                yield item

        return traced


def self_times(spans: list[list]) -> dict[str, dict[str, int]]:
    """Per span name: total self nanoseconds and call count."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    totals: dict[str, dict[str, int]] = {}
    for index, span in enumerate(spans):
        entry = totals.setdefault(span[NAME], {"self_ns": 0, "calls": 0})
        entry["self_ns"] += span[END] - span[START] - child_ns[index]
        entry["calls"] += 1
    return totals
