"""One telemetry session: a tracer plus a metrics registry, with helpers.

:class:`Telemetry` is the object callers hand to the driver
(``ms_bfs_graft(..., telemetry=...)``), the batch executor, and the CLI.
It bundles a :class:`~repro.telemetry.spans.Tracer` and a
:class:`~repro.telemetry.metrics.MetricsRegistry` and adds the engine- and
service-level vocabulary on top — phase spans, step spans, frontier/claim
metrics, job counters — so the instrumented code stays one line per site.

:data:`NULL_TELEMETRY` is the disabled implementation the engines fall back
to when :attr:`GraftOptions.telemetry` is ``None``: every method is a no-op
and ``run_span``/``step`` return one shared reusable context manager, so
the disabled path costs a method call and nothing else (the overhead test
in ``tests/telemetry/test_overhead.py`` bounds it against the kernel
bench).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.telemetry.metrics import (
    BARRIER_WAIT_BUCKETS,
    FRONTIER_BUCKETS,
    PATH_LENGTH_BUCKETS,
    MetricsRegistry,
)
from repro.telemetry.spans import Span, Tracer

ENGINE_STEPS = ("setup", "topdown", "bottomup", "augment", "grafting", "statistics")
"""Span names the engines emit inside each phase (Fig. 6 legend + setup)."""


class _NullContext:
    """Reusable no-op context manager (shared instance, no allocation)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class NullTelemetry:
    """Disabled telemetry: every hook is a no-op.

    Engines do ``tel = options.telemetry or NULL_TELEMETRY`` and call hooks
    unconditionally; this class keeps the disabled path allocation-free.
    """

    __slots__ = ()
    enabled = False

    def run_span(self, engine: str, algorithm: str = "", graph: Any = None) -> _NullContext:
        return _NULL_CONTEXT

    def step(self, name: str) -> _NullContext:
        return _NULL_CONTEXT

    def begin_phase(self, phase: int) -> None:
        return None

    def observe_frontier(self, size: int) -> None:
        return None

    def count_level(self, direction: str, claims: int = 0) -> None:
        return None

    def count_edges(self, edges: int) -> None:
        return None

    def observe_candidates(self, remaining: int) -> None:
        return None

    def finish_run(self, counters: Any = None) -> None:
        return None

    def count_cache(self, hit: bool, total_bytes: int | None = None) -> None:
        return None

    def count_reorder_plan(self, strategy: str) -> None:
        return None

    def count_reorder_cached(self, strategy: str) -> None:
        return None

    def count_reorder_run(self, strategy: str) -> None:
        return None

    def job_span(self, job_id: str, algorithm: str, engine: Optional[str]) -> _NullContext:
        return _NULL_CONTEXT

    def attempt_span(self, job_id: str, attempt: int, engine: str) -> _NullContext:
        return _NULL_CONTEXT

    def count_job(self, status: str) -> None:
        return None

    def count_retry(self) -> None:
        return None

    def count_degradation(self) -> None:
        return None

    def count_request(self, cmd: str, status: str) -> None:
        return None

    def count_updates(self, n: int) -> None:
        return None

    def observe_repair(self, seconds: float) -> None:
        return None

    def count_eviction(self) -> None:
        return None

    def set_sessions(self, n: int) -> None:
        return None

    def superstep_span(self, kind: str, items: int, superstep: int) -> _NullContext:
        return _NULL_CONTEXT

    def barrier_wait(self, kind: str) -> _NullContext:
        return _NULL_CONTEXT

    def request_span(
        self, cmd: str, rid: int, session: Optional[str] = None
    ) -> _NullContext:
        return _NULL_CONTEXT

    def repair_span(self, session: str, rid: int) -> _NullContext:
        return _NULL_CONTEXT

    def count_repair_sweeps(self, n: int) -> None:
        return None

    def count_session_updates(self, session: str, n: int) -> None:
        return None

    def set_snapshot_bytes(self, n: int) -> None:
        return None


NULL_TELEMETRY = NullTelemetry()


class Telemetry(NullTelemetry):
    """A live telemetry session (tracer + metrics + helper vocabulary)."""

    __slots__ = ("tracer", "metrics", "_phase_span")
    enabled = True

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._phase_span: Optional[Span] = None

    # ------------------------------------------------------------------ #
    # engine vocabulary (wired through GraftOptions / the engines)
    # ------------------------------------------------------------------ #

    @contextmanager
    def run_span(
        self, engine: str, algorithm: str = "", graph: Any = None
    ) -> Iterator[Span]:
        """Root span for one engine run; closes any dangling phase span."""
        attributes = {"engine": engine}
        if algorithm:
            attributes["algorithm"] = algorithm
        if graph is not None:
            attributes.update(
                n_x=int(graph.n_x), n_y=int(graph.n_y), nnz=int(graph.nnz)
            )
        span = self.tracer.start_span("run", **attributes)
        try:
            yield span
        finally:
            self._phase_span = None
            if span.open:
                self.tracer.end_span(span)  # also closes an open phase span

    def begin_phase(self, phase: int) -> None:
        """Close the previous phase span (if any) and open the next.

        Called from :meth:`GraftOptions.begin_phase`, so all three engines
        get per-phase spans through the existing seam. The final phase span
        is closed by :meth:`finish_run` or by the run span's exit.
        """
        if self._phase_span is not None and self._phase_span.open:
            self.tracer.end_span(self._phase_span)
        self._phase_span = self.tracer.start_span("phase", phase=int(phase))
        self.metrics.counter(
            "repro_phases_total", "Engine phases executed (paper Fig. 1b)"
        ).inc()

    def step(self, name: str):
        """Span for one engine step (topdown/bottomup/augment/...)."""
        return self.tracer.span(name)

    def observe_frontier(self, size: int) -> None:
        self.metrics.histogram(
            "repro_frontier_size_vertices",
            "BFS frontier size at each level (Fig. 8 trajectories)",
            buckets=FRONTIER_BUCKETS,
        ).observe(int(size))

    def count_level(self, direction: str, claims: int = 0) -> None:
        """One traversal level finished: direction + visited-flag claims."""
        self.metrics.counter(
            "repro_bfs_levels_total",
            "Traversal levels by direction (top-down vs bottom-up)",
            labels={"direction": direction},
        ).inc()
        if claims:
            self.metrics.counter(
                "repro_visited_claims_total",
                "Y vertices claimed via the visited flag (CAS wins)",
            ).inc(int(claims))

    def count_edges(self, edges: int) -> None:
        if edges:
            self.metrics.counter(
                "repro_edges_traversed_total",
                "Adjacency entries examined (the paper's MTEPS numerator)",
            ).inc(int(edges))

    def observe_candidates(self, remaining: int) -> None:
        """Per-level gauge: unvisited-Y candidates left after this level."""
        self.metrics.gauge(
            "repro_candidates_remaining",
            "Unvisited-Y candidates remaining after the last traversal level",
        ).set(int(remaining))

    def finish_run(self, counters: Any = None) -> None:
        """Close the open phase span and mirror the final counters.

        ``counters`` is a :class:`~repro.instrument.counters.Counters`;
        grafts, rebuilds, and augmenting paths only become known at run
        end, so they land in the registry here.
        """
        if self._phase_span is not None and self._phase_span.open:
            self.tracer.end_span(self._phase_span)
        self._phase_span = None
        if counters is None:
            return
        # Mirroring costs one histogram observe per augmenting path; give it
        # its own span so the run's coverage accounts for telemetry time too.
        with self.tracer.span("finalize"):
            self.metrics.counter(
                "repro_grafted_vertices_total",
                "Y vertices re-attached by tree grafting",
            ).inc(int(counters.grafts))
            self.metrics.counter(
                "repro_tree_rebuilds_total",
                "Phases that fell back to destroy-and-rebuild",
            ).inc(int(counters.tree_rebuilds))
            self.metrics.counter(
                "repro_augmentations_total", "Augmenting paths applied"
            ).inc(int(counters.augmentations))
            paths = self.metrics.histogram(
                "repro_augmenting_path_length_edges",
                "Augmenting path lengths in edges (always odd)",
                buckets=PATH_LENGTH_BUCKETS,
            )
            for length in counters.path_lengths:
                paths.observe(length)

    # ------------------------------------------------------------------ #
    # service vocabulary (wired through BatchExecutor)
    # ------------------------------------------------------------------ #

    def job_span(self, job_id: str, algorithm: str, engine: Optional[str]):
        return self.tracer.span(
            "job", job=job_id, algorithm=algorithm, engine=engine or "auto"
        )

    def attempt_span(self, job_id: str, attempt: int, engine: str):
        return self.tracer.span("attempt", job=job_id, attempt=attempt, engine=engine)

    def count_job(self, status: str) -> None:
        self.metrics.counter(
            "repro_jobs_total", "Batch jobs by terminal status",
            labels={"status": status},
        ).inc()
        if status == "timeout":
            self.metrics.counter(
                "repro_job_timeouts_total", "Jobs terminated by deadline expiry"
            ).inc()

    def count_retry(self) -> None:
        self.metrics.counter(
            "repro_job_retries_total", "Attempt retries after transient failures"
        ).inc()

    def count_degradation(self) -> None:
        self.metrics.counter(
            "repro_job_degradations_total",
            "Jobs degraded to the python reference engine",
        ).inc()

    # ------------------------------------------------------------------ #
    # mp-engine vocabulary (wired through repro.parallel.procpool)
    # ------------------------------------------------------------------ #

    def superstep_span(self, kind: str, items: int, superstep: int):
        """Span around one distributed level (scatter → scan → gather)."""
        self.metrics.counter(
            "repro_mp_supersteps_total",
            "Distributed mp supersteps by scan kind",
            labels={"kind": kind},
        ).inc()
        return self.tracer.span(
            "superstep", kind=kind, items=int(items), superstep=int(superstep)
        )

    @contextmanager
    def barrier_wait(self, kind: str) -> Iterator[Span]:
        """Span + histogram for the master's wait at one superstep barrier.

        Measures the time between the last descriptor send and the last
        worker reply — the paper's Section IV scalability analysis is
        exactly about how this grows with worker count, so it gets both a
        span (visible per superstep in the Chrome trace) and a histogram
        (aggregated across the run).
        """
        span = self.tracer.start_span("barrier_wait", kind=kind)
        try:
            yield span
        finally:
            if span.open:
                self.tracer.end_span(span)
            self.metrics.histogram(
                "repro_mp_barrier_wait_seconds",
                "Master wait at the mp superstep barrier (reply gather)",
                buckets=BARRIER_WAIT_BUCKETS,
            ).observe(span.duration)

    # ------------------------------------------------------------------ #
    # online-daemon vocabulary (wired through repro.service.online)
    # ------------------------------------------------------------------ #

    def request_span(self, cmd: str, rid: int, session: Optional[str] = None):
        """Span around one daemon request dispatch, tagged with its rid."""
        attributes = {"cmd": cmd, "rid": int(rid)}
        if session:
            attributes["session"] = session
        return self.tracer.span("request", **attributes)

    def repair_span(self, session: str, rid: int):
        """Span around one batched incremental repair (child of request)."""
        return self.tracer.span("repair", session=session, rid=int(rid))

    def count_repair_sweeps(self, n: int) -> None:
        if n:
            self.metrics.counter(
                "repro_online_repair_sweeps_total",
                "MS-BFS-Graft repair phases run by update requests",
            ).inc(int(n))

    def count_session_updates(self, session: str, n: int) -> None:
        """Per-session update counter (label-cardinality-guarded)."""
        if n:
            self.metrics.counter(
                "repro_online_session_updates_total",
                "Edge updates absorbed, by session",
                labels={"session": session},
            ).inc(int(n))

    def set_snapshot_bytes(self, n: int) -> None:
        self.metrics.gauge(
            "repro_online_snapshot_store_bytes",
            "Bytes held by the snapshot-backing graph cache store",
        ).set(int(n))

    def count_request(self, cmd: str, status: str) -> None:
        """One daemon request finished: ``status`` is ok/error-kind."""
        self.metrics.counter(
            "repro_online_requests_total",
            "Online daemon requests by command and terminal status",
            labels={"cmd": cmd, "status": status},
        ).inc()

    def count_updates(self, n: int) -> None:
        if n:
            self.metrics.counter(
                "repro_online_updates_total",
                "Edge updates (inserts + deletes) absorbed by online sessions",
            ).inc(int(n))

    def observe_repair(self, seconds: float) -> None:
        """Latency of one batched incremental repair (SLO: p99 of this)."""
        self.metrics.histogram(
            "repro_online_repair_seconds",
            "Batched incremental-repair latency per update request",
        ).observe(float(seconds))

    def count_eviction(self) -> None:
        self.metrics.counter(
            "repro_online_session_evictions_total",
            "Sessions evicted by the LRU cap",
        ).inc()

    def set_sessions(self, n: int) -> None:
        self.metrics.gauge(
            "repro_online_sessions", "Resident online sessions"
        ).set(int(n))

    # ------------------------------------------------------------------ #
    # cache vocabulary (wired through repro.cache)
    # ------------------------------------------------------------------ #

    def count_cache(self, hit: bool, total_bytes: int | None = None) -> None:
        """One graph-cache lookup: hit/miss counters plus the store size."""
        name = "repro_cache_hits_total" if hit else "repro_cache_misses_total"
        help_text = (
            "Graph-preparation cache hits (ingest skipped)"
            if hit
            else "Graph-preparation cache misses (graph built and stored)"
        )
        self.metrics.counter(name, help_text).inc()
        if total_bytes is not None:
            self.metrics.gauge(
                "repro_cache_bytes",
                "Total bytes held by the graph-preparation cache store",
            ).set(int(total_bytes))

    # ------------------------------------------------------------------ #
    # reorder vocabulary (wired through the driver + the layout cache)
    # ------------------------------------------------------------------ #

    def count_reorder_plan(self, strategy: str) -> None:
        """An ordering was *computed* (driver inline or layout-cache miss).

        A warm layout cache keeps this at zero — the acceptance check for
        "second run skips the ordering computation" watches exactly this
        counter against :meth:`count_reorder_cached`.
        """
        self.metrics.counter(
            "repro_reorder_plans_total",
            "Reorder plans computed (inline or on layout-cache miss)",
            labels={"strategy": strategy},
        ).inc()

    def count_reorder_cached(self, strategy: str) -> None:
        """A reordered CSR layout was served from the content-addressed cache."""
        self.metrics.counter(
            "repro_reorder_layout_hits_total",
            "Reordered CSR layouts served from the graph cache",
            labels={"strategy": strategy},
        ).inc()

    def count_reorder_run(self, strategy: str) -> None:
        """One matching run executed on a reordered layout."""
        self.metrics.counter(
            "repro_reorder_runs_total",
            "Matching runs executed on a reordered (permuted) layout",
            labels={"strategy": strategy},
        ).inc()
