"""The Algorithm-3 phase loop, shared by the numpy, mp and interleaved engines.

One phase of MS-BFS-Graft grows an alternating BFS forest level by level
(top-down or bottom-up by the direction rule), flips every augmenting path
it found, and then either grafts the renewable Y vertices onto the active
trees or destroys and rebuilds the trees, by the ``|activeX| >
|renewableY| / alpha`` test. :func:`run_phase_loop` owns that control flow
and all of its bookkeeping — phase boundaries (``options.begin_phase``),
:class:`Counters`, the per-step breakdown and telemetry spans, the frontier
log, the cost-model :class:`WorkTrace` and the invariant checks — so every
backend records the same trajectory in the same vocabulary.

A backend supplies only its kernels, as a :class:`PhaseKernels`: how to run
one top-down level, one bottom-up (or grafting) level, and the
augmentation. The forest state those kernels act on is the shared
:class:`ForestState`, so the GRAFT partition (:func:`kernels.graft_partition`)
and the rebuild are common code too.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

import numpy as np

from repro.core import kernels
from repro.core.forest import ForestState
from repro.core.kernels import LevelStats
from repro.core.options import GraftOptions
from repro.graph.csr import BipartiteCSR
from repro.instrument.counters import Counters
from repro.instrument.frontier import FrontierLog
from repro.matching.base import MatchResult, Matching, init_matching
from repro.parallel.trace import WorkTrace
from repro.util.timer import StepTimer


@dataclass
class PhaseKernels:
    """One backend's kernels for the phase loop."""

    topdown: Callable[[np.ndarray], LevelStats]
    """Expand one top-down level from ``frontier`` (X vertices)."""
    bottomup: Callable[[np.ndarray, str], LevelStats]
    """Scan ``rows`` (unvisited or renewable Y) bottom-up; the second
    argument is the region name, ``"bottomup"`` or ``"grafting"``."""
    augment: Callable[[], np.ndarray]
    """Flip every discovered augmenting path; return the path lengths."""
    end_phase: Optional[Callable[[int], None]] = None
    """Called with the phase number after each phase that augmented."""
    tracked_partition: bool = True
    """Whether the kernels keep the state's tree-membership lists exact, so
    the GRAFT partition may run over them instead of both vertex ranges."""


Setup = Callable[[Matching, ForestState, Optional[WorkTrace]], PhaseKernels]


def run_phase_loop(
    graph: BipartiteCSR,
    initial: Matching | None,
    options: GraftOptions,
    tel: Any,
    start: float,
    setup: Setup,
    *,
    algorithm: str | None = None,
    work_trace: bool = True,
    recorder: Any = None,
) -> MatchResult:
    """Run MS-BFS-Graft to a maximum matching on the kernels ``setup`` builds.

    ``setup(matching, state, trace)`` runs inside the ``setup`` step, after
    the working matching and a fresh :class:`ForestState` exist and before
    the first frontier is built. ``work_trace=False`` suppresses the
    cost-model trace even when ``options.emit_trace`` asks for one;
    ``algorithm`` overrides the result's algorithm label. ``recorder``
    (e.g. a :class:`~repro.telemetry.flight.FlightRecorder`) receives one
    ``level`` event per BFS level and one ``augment`` event per phase.
    """
    timer = StepTimer()

    @contextmanager
    def step(name: str) -> Iterator[None]:
        # One interval, charged to both the span and the breakdown.
        with tel.step(name):
            t0 = time.perf_counter()
            yield
            timer.add(name, time.perf_counter() - t0)

    with tel.step("setup"):
        matching = init_matching(graph, initial)
        counters = Counters()
        trace = WorkTrace() if options.emit_trace and work_trace else None
        frontier_log = FrontierLog() if options.record_frontiers else None
        state = ForestState.for_graph(graph)
        backend = setup(matching, state, trace)
        alpha = options.alpha
        deg_x = graph.deg_x
        state.attach_degrees(graph.deg_y)
        frontier = kernels.rebuild_from_unmatched(state, matching)

    def prefer_top_down(frontier: np.ndarray) -> bool:
        if not options.direction_optimizing:
            return True
        if options.direction_strategy == "edge":
            # state.unvisited_deg is the running sum of unvisited-Y degrees,
            # so the switch costs O(|frontier|) instead of an O(n_y) masked
            # sum per level.
            frontier_edges = int(deg_x[frontier].sum())
            return frontier_edges < state.unvisited_deg / alpha
        return frontier.size < state.num_unvisited_y / alpha

    while True:
        counters.phases += 1
        options.begin_phase(counters.phases)
        if frontier_log is not None:
            frontier_log.start_phase()

        # --- Step 1: grow the alternating BFS forest ------------------- #
        while frontier.size:
            if state.num_unvisited_y == 0:
                # No undiscovered Y vertex remains: the frontier cannot make
                # progress or find an augmenting path, so the phase is over.
                frontier = frontier[:0]
                break
            if frontier_log is not None:
                frontier_log.record(int(frontier.size))
            tel.observe_frontier(int(frontier.size))
            counters.bfs_levels += 1
            direction = "topdown" if prefer_top_down(frontier) else "bottomup"
            if recorder is not None:
                recorder.record(
                    "level",
                    phase=counters.phases,
                    level=counters.bfs_levels,
                    direction=direction,
                    frontier=int(frontier.size),
                    unvisited_y=int(state.num_unvisited_y),
                )
            if direction == "topdown":
                counters.topdown_steps += 1
                with step("topdown"):
                    stats = backend.topdown(frontier)
            else:
                counters.bottomup_steps += 1
                with step("bottomup"):
                    stats = backend.bottomup(state.unvisited_candidates(), "bottomup")
            tel.count_level(direction, claims=stats.claims)
            if trace is not None:
                # Only top-down claims are CAS races; bottom-up rows own
                # themselves and write with plain stores.
                trace.add(
                    direction,
                    stats.item_costs,
                    atomics=stats.attempts if direction == "topdown" else 0,
                    queue_appends=int(stats.next_frontier.size),
                )
            counters.edges_traversed += stats.edges
            tel.count_edges(stats.edges)
            tel.observe_candidates(state.num_unvisited_y)
            frontier = stats.next_frontier

        # --- Step 2: augment along the discovered paths ---------------- #
        with step("augment"):
            lengths = backend.augment()
        counters.record_paths(lengths)
        if recorder is not None:
            recorder.record(
                "augment",
                phase=counters.phases,
                paths=int(lengths.size),
                matched=int(matching.cardinality),
            )
        if trace is not None and lengths.size:
            trace.add("augment", lengths.astype(np.float64), memory_pattern="irregular")
        if lengths.size == 0:
            break  # no augmenting path in this phase: maximum reached

        # --- Step 3: rebuild the frontier (GRAFT) ---------------------- #
        with step("statistics"):
            gstats = kernels.graft_partition(state, tracked=backend.tracked_partition)
        if trace is not None:
            trace.add_uniform("statistics", graph.n_x + graph.n_y, 1.0)
        with step("grafting"):
            if options.grafting and gstats.active_x_count > gstats.renewable_y.size / alpha:
                stats = backend.bottomup(gstats.renewable_y, "grafting")
                counters.edges_traversed += stats.edges
                tel.count_edges(stats.edges)
                counters.grafts += stats.claims
                frontier = stats.next_frontier
                if trace is not None:
                    trace.add(
                        "grafting",
                        stats.item_costs,
                        queue_appends=int(stats.next_frontier.size),
                    )
            else:
                counters.tree_rebuilds += 1
                kernels.reset_rows(state, gstats.active_y)
                frontier = kernels.rebuild_from_unmatched(state, matching)
                if trace is not None:
                    trace.add_uniform(
                        "grafting", int(gstats.active_y.size) + int(frontier.size), 1.0
                    )
        if options.check_invariants:
            state.check_invariants(graph, matching)
        if backend.end_phase is not None:
            backend.end_phase(counters.phases)

    tel.finish_run(counters)
    return MatchResult(
        matching=matching,
        algorithm=algorithm or options.algorithm_name,
        counters=counters,
        trace=trace,
        breakdown=dict(timer.totals),
        frontier_log=frontier_log,
        wall_seconds=time.perf_counter() - start,
    )
