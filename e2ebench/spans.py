"""In-memory span recording and per-request self-time accounting.

The benchmark records spans from its own code, around each public call it
makes into the program: name, start, end, parent span and request id. The
spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Iterator


class SpanRecorder:
    """Nested spans as ``[name, start, end, parent_index, request_id]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, rid: int) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), 0.0, parent, rid]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float, rid: int) -> None:
        """Record a closed child of the innermost open span (for work timed
        elsewhere, such as the daemon's server-side repair)."""
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, start, end, parent, rid])


def no_span(name: str, rid: int):
    """The recorder used with tracing off: records nothing."""
    return nullcontext()


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def profiles(spans: list[list], root: str) -> list[dict]:
    """One profile per root span named ``root``.

    Each holds the request id, the root's duration, the self time of every
    layer below it (a span's duration minus the part its children cover,
    summed per name) and ``coverage``: the share of the root's interval that
    its child spans cover.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)

    def child_intervals(i: int) -> list[tuple[float, float]]:
        return [(spans[c][1], spans[c][2]) for c in children.get(i, [])]

    out = []
    for i, (name, start, end, parent, rid) in enumerate(spans):
        if parent != -1 or name != root:
            continue
        self_time: dict[str, float] = {}
        todo = list(children.get(i, []))
        while todo:
            c = todo.pop()
            cname, cstart, cend = spans[c][:3]
            own = (cend - cstart) - covered(child_intervals(c), cstart, cend)
            self_time[cname] = self_time.get(cname, 0.0) + own
            todo.extend(children.get(c, []))
        duration = end - start
        out.append({
            "rid": rid,
            "duration": duration,
            "self": self_time,
            "coverage": covered(child_intervals(i), start, end) / duration if duration > 0 else 0.0,
        })
    return out
