"""Span-based tracing: nested, monotonic-clock spans with wall anchors.

A :class:`Span` is one named interval of work with attributes; spans nest
(each records its parent), so a run decomposes into a tree — ``run`` →
``phase`` → ``topdown``/``bottomup``/``augment``/``grafting``/
``statistics`` for the matching engines, or ``batch`` → ``job`` →
``attempt`` → ``run`` for the service. Durations come from the monotonic
clock (:func:`time.perf_counter`), immune to wall-clock jumps; every span
also carries a wall-clock anchor so exported traces line up with event
logs and other systems.

The tracer keeps one open-span stack per OS thread, so concurrent
instrumented code attributes spans to the thread that opened them. Both
clocks are injectable for deterministic tests.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.errors import TelemetryError


@dataclass
class Span:
    """One named, timed interval in the trace tree.

    ``start``/``end`` are monotonic-clock readings (seconds); ``start_wall``
    is the wall-clock anchor of ``start``. ``end is None`` while the span is
    open. ``attributes`` is free-form structured context (engine name, phase
    number, job id, ...).
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    start_wall: float
    thread: int
    end: Optional[float] = None
    attributes: Dict[str, Any] = field(default_factory=dict)
    pid: Optional[int] = None
    """Originating process id for spans merged from another process
    (mp worker lanes); ``None`` for spans recorded in this process."""

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> float:
        """Elapsed seconds (monotonic); raises while the span is open."""
        if self.end is None:
            raise TelemetryError(f"span {self.name!r} (id {self.span_id}) is still open")
        return self.end - self.start

    def set(self, **attributes: Any) -> "Span":
        """Attach or overwrite attributes after the span was opened."""
        self.attributes.update(attributes)
        return self


class Tracer:
    """Collects a tree of spans with per-thread open-span stacks.

    >>> tracer = Tracer()
    >>> with tracer.span("run", engine="numpy"):
    ...     with tracer.span("phase", phase=1):
    ...         pass
    >>> [s.name for s in tracer.spans]
    ['run', 'phase']
    """

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.perf_counter,
        wall: Callable[[], float] = time.time,
    ) -> None:
        self._clock = clock
        self._wall = wall
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self.spans: List[Span] = []

    # ------------------------------------------------------------------ #
    # span lifecycle
    # ------------------------------------------------------------------ #

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start_span(self, name: str, **attributes: Any) -> Span:
        """Open a span as a child of this thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            span = Span(
                name=name,
                span_id=span_id,
                parent_id=parent,
                start=self._clock(),
                start_wall=self._wall(),
                thread=threading.get_ident(),
                attributes=dict(attributes),
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def end_span(self, span: Span) -> Span:
        """Close ``span`` (and any still-open descendants above it).

        Closing an outer span while inner ones are open is legal — the
        inner spans are closed at the same instant, which keeps the tree
        well-nested even for imperative (non-context-manager) callers like
        the engines' phase sequencing.
        """
        stack = self._stack()
        if span not in stack:
            raise TelemetryError(
                f"span {span.name!r} (id {span.span_id}) is not open on this thread"
            )
        now = self._clock()
        while stack:
            top = stack.pop()
            top.end = now
            if top is span:
                return span
        raise TelemetryError("unreachable: span vanished from its own stack")

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Context-manager form of :meth:`start_span`/:meth:`end_span`."""
        span = self.start_span(name, **attributes)
        try:
            yield span
        finally:
            if span.open:
                self.end_span(span)

    def current(self) -> Optional[Span]:
        """This thread's innermost open span, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def record_closed_span(
        self,
        name: str,
        *,
        start: float,
        end: float,
        start_wall: float = 0.0,
        pid: Optional[int] = None,
        thread: int = 0,
        parent_id: Optional[int] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Append an already-finished span (cross-process merge path).

        Used by the mp master to graft worker-recorded spans into this
        tracer after pool teardown: the span id is allocated from the same
        counter as live spans, so merged and native ids never collide, and
        ``start``/``end`` are trusted as-is — on Linux ``perf_counter`` is
        the system-wide CLOCK_MONOTONIC, so worker readings are directly
        comparable with the master's.
        """
        if end < start:
            raise TelemetryError(
                f"merged span {name!r} ends before it starts ({end} < {start})"
            )
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            span = Span(
                name=name,
                span_id=span_id,
                parent_id=parent_id,
                start=start,
                start_wall=start_wall,
                thread=thread,
                end=end,
                attributes=dict(attributes or {}),
                pid=pid,
            )
            self.spans.append(span)
        return span

    def finish(self) -> None:
        """Close every span still open on this thread (outermost last)."""
        stack = self._stack()
        while stack:
            self.end_span(stack[-1])

    # ------------------------------------------------------------------ #
    # tree queries
    # ------------------------------------------------------------------ #

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def coverage(self, root: Optional[Span] = None) -> float:
        """Fraction of a root span's duration covered by its direct children.

        The acceptance measure for engine traces: with a ``run`` root whose
        children are ``setup`` plus one span per phase, coverage close to
        1.0 means the span tree accounts for (almost) all measured wall
        time. Children are merged as intervals, so overlap is not
        double-counted. A root without children (or with zero duration)
        scores 0.0 (or 1.0 for the degenerate zero-duration root).

        By default the run's top-level span is scored: the longest closed
        root recorded in this process that has children. A run can record
        leaf roots beside it (``reorder_plan`` before it, ``reorder_invert``
        after), and a cold plan can outlast the run, so neither the first
        nor the longest root overall is necessarily the run.
        """
        if root is None:
            roots = [s for s in self.roots() if s.pid is None] or self.roots()
            if not roots:
                return 0.0
            parents = {s.parent_id for s in self.spans}
            closed = [s for s in roots if not s.open]
            runs = [s for s in closed if s.span_id in parents] or closed
            root = max(runs, key=lambda s: s.duration) if runs else roots[0]
        if root.end is None:
            raise TelemetryError(f"span {root.name!r} is still open")
        total = root.duration
        if total <= 0.0:
            return 1.0
        intervals = sorted(
            (child.start, child.end if child.end is not None else root.end)
            for child in self.children(root)
        )
        covered = 0.0
        cursor = root.start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            hi = min(hi, root.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return covered / total

    def lane_coverage(self) -> Dict[int, float]:
        """Self-coverage of each merged worker lane, keyed by pid.

        A lane is the set of closed spans sharing one ``pid``; its window
        runs from the earliest span start to the latest span end, and its
        coverage is the union of span intervals over that window. Worker
        recorders tile their timeline with alternating ``worker_idle`` /
        ``worker_scan`` spans, so a healthy lane scores close to 1.0 — a
        hole means the recorder lost time it cannot account for.
        """
        lanes: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.pid is not None and not span.open:
                lanes.setdefault(span.pid, []).append(span)
        out: Dict[int, float] = {}
        for pid, spans in lanes.items():
            window_lo = min(s.start for s in spans)
            window_hi = max(s.end for s in spans if s.end is not None)
            total = window_hi - window_lo
            if total <= 0.0:
                out[pid] = 1.0
                continue
            covered = 0.0
            cursor = window_lo
            for lo, hi in sorted((s.start, s.end) for s in spans):
                lo = max(lo, cursor)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[pid] = covered / total
        return out

    def merged_coverage(self, root: Optional[Span] = None) -> float:
        """Coverage accounting for merged worker lanes.

        The minimum of the master root's child coverage (:meth:`coverage`)
        and every worker lane's self-coverage (:meth:`lane_coverage`) — an
        mp trace only passes a ``--min-coverage`` gate when *each* process
        timeline is accounted for, not just the master's. Degenerates to
        plain :meth:`coverage` when no worker spans were merged.
        """
        lanes = self.lane_coverage()
        base = self.coverage(root)
        return min([base, *lanes.values()]) if lanes else base
