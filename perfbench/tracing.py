"""Spans around calls into the package, held in memory and written at exit.

A span records its name, start, end and the span that caused it; every
span of one op shares the op's root span as its identifier. A span's self
time is its duration minus the time its child spans cover. Counts, peaks
and plain samples are recorded at the same boundaries.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

_NAME, _START, _END, _PARENT, _OP, _WORK = range(6)


class Tracer:
    """Records a span around each call made through `call`."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._last = -1

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        op = self.spans[self._stack[0]][_OP] if self._stack else len(self.spans)
        index = len(self.spans)
        span = [name, 0.0, 0.0, parent, op, None]
        self.spans.append(span)
        self._stack.append(index)
        span[_START] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[_END] = perf_counter()
            self._stack.pop()
            self._last = index

    def work(self, n: int) -> None:
        """Attach a work count (such as RK4 steps) to the span that just ended."""
        self.spans[self._last][_WORK] = n

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(value, self.peaks.get(name, value))

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def durations(self, name: str, per_work: bool = False) -> list[float]:
        """Durations in seconds of every span with this name, or per unit of work."""
        if per_work:
            return [(s[_END] - s[_START]) / s[_WORK] for s in self.spans
                    if s[_NAME] == name and s[_WORK]]
        return [s[_END] - s[_START] for s in self.spans if s[_NAME] == name]

    def dump(self, path, limit: int) -> None:
        """Write the first `limit` spans with their self time as JSON rows."""
        spans = self.spans[:limit]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[_PARENT] >= 0:
                child_time[s[_PARENT]] += s[_END] - s[_START]
        t0 = spans[0][_START] if spans else 0.0
        rows = [
            [s[_NAME], s[_START] - t0, s[_END] - t0, s[_PARENT], s[_OP],
             s[_END] - s[_START] - child_time[i], s[_WORK]]
            for i, s in enumerate(spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op", "self_s", "work"],
                       "spans": rows}, fh, separators=(",", ":"))


class NullTracer:
    """Same interface, records nothing: the untraced runs use it."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def work(self, n):
        pass

    def count(self, name, n=1):
        pass

    def peak(self, name, value):
        pass

    def sample(self, name, value):
        pass
