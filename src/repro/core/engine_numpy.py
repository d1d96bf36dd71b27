"""Vectorized MS-BFS-Graft engine (parallel semantics + work-trace emission).

This is the engine behind all parallel experiments: it executes the
algorithm with the level-synchronous parallel semantics of the paper's
OpenMP implementation and records one :class:`ParallelRegion` per barrier —
top-down levels, bottom-up levels, the augmentation scan, the grafting
sweep, and the GRAFT statistics pass — which the simulated machine then
schedules onto threads.

Region kinds match the paper's Fig. 6 legend: ``topdown``, ``bottomup``,
``augment``, ``grafting``, ``statistics``. The phase loop itself is
:func:`repro.core.engine_loop.run_phase_loop`; this module supplies the
vectorized kernels of :mod:`repro.core.kernels` to it.
"""

from __future__ import annotations

import time

from repro.core import kernels
from repro.core.engine_loop import PhaseKernels, run_phase_loop
from repro.core.options import GraftOptions
from repro.graph.csr import BipartiteCSR
from repro.matching.base import MatchResult, Matching
from repro.telemetry.session import NULL_TELEMETRY


def run_numpy(
    graph: BipartiteCSR,
    initial: Matching | None,
    options: GraftOptions,
    observer=None,
) -> MatchResult:
    """MS-BFS-Graft with vectorized kernels; emits a work trace.

    ``observer`` optionally attaches a
    :class:`~repro.parallel.shared.BulkAccessObserver` to the forest state,
    so the race detector can audit the kernels' bulk accesses.
    """
    start = time.perf_counter()
    tel = options.telemetry if options.telemetry is not None else NULL_TELEMETRY

    def setup(matching, state, trace) -> PhaseKernels:
        state.observer = observer
        ws = kernels.KernelWorkspace.for_graph(graph)
        ws.want_costs = trace is not None
        return PhaseKernels(
            topdown=lambda frontier: kernels.topdown_level(
                graph, state, matching, frontier, ws
            ),
            bottomup=lambda rows, region: kernels.bottomup_level(
                graph, state, matching, rows, ws, region=region
            ),
            augment=lambda: kernels.augment_all(state, matching)[1],
        )

    with tel.run_span("numpy", algorithm=options.algorithm_name, graph=graph):
        return run_phase_loop(graph, initial, options, tel, start, setup)
