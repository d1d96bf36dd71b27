"""MS-BFS-Graft executed on the interleaved thread simulator.

Every ``parallel for`` of Algorithm 3 runs as simulated threads whose steps
interleave in a seeded random order (:class:`InterleavedSimulator`), with
``visited`` claims going through a simulated compare-and-swap and ``leaf``
updates left racy on purpose — the paper's benign race. Different seeds
reach different (all correct) executions; the race-semantics tests sweep
seeds and assert that the final matching is always maximum and the forest
invariants always hold.

Item programs touch shared state *only* through
:class:`~repro.parallel.atomics.AtomicArray` and
:class:`~repro.parallel.shared.SharedArray` wrappers (lint rule REP001
enforces this), so an attached
:class:`~repro.parallel.shared.RegionMonitor` — e.g. the dynamic race
detector in :mod:`repro.analysis.racecheck` — observes every shared
access with thread/step/region attribution.

The phase loop around the programs is
:func:`repro.core.engine_loop.run_phase_loop`, the one the numpy and mp
engines run; this module supplies each level as one simulated ``parallel
for`` and the augmentation as a serial, path-bounded walk.

This engine exists to *validate concurrency semantics*, not for speed: it
steps a generator per traversed edge, so keep graphs small (tests use a few
hundred vertices).
"""

from __future__ import annotations

import time
from typing import Generator, Iterable, List, Optional

import numpy as np

from repro.core import kernels
from repro.core.engine_loop import PhaseKernels, run_phase_loop
from repro.core.forest import ForestState
from repro.core.options import GraftOptions
from repro.errors import InvariantViolation, ReproError
from repro.graph.csr import BipartiteCSR
from repro.matching._common import adjacency_lists
from repro.matching.base import UNMATCHED, MatchResult, Matching
from repro.parallel.atomics import AtomicArray
from repro.parallel.shared import RegionMonitor, SharedArray
from repro.parallel.simulator import InterleavedSimulator, SimThreadState
from repro.telemetry.session import NULL_TELEMETRY
from repro.util.rng import SeedLike

NON_ATOMIC_VISITED = "non-atomic-visited"
"""Fault-injection switch: replace the CAS ``visited`` claim with a plain
check-then-act store, re-creating exactly the synchronisation bug the
paper's atomic claim prevents (trees stop being vertex-disjoint)."""

KNOWN_FAULTS = frozenset({NON_ATOMIC_VISITED})


def run_interleaved(
    graph: BipartiteCSR,
    initial: Matching | None,
    options: GraftOptions,
    *,
    threads: int = 4,
    seed: SeedLike = 0,
    monitor: Optional[RegionMonitor] = None,
    fault_injection: Iterable[str] = (),
    max_phases: Optional[int] = None,
) -> MatchResult:
    """MS-BFS-Graft under simulated concurrent execution.

    ``monitor`` (optional) observes every shared access and is notified
    after each barrier and phase; ``fault_injection`` enables named
    synchronisation faults (see :data:`KNOWN_FAULTS`); ``max_phases``
    bounds the phase loop so fault-corrupted runs terminate with
    :class:`~repro.errors.ReproError` instead of spinning.
    """
    faults = frozenset(fault_injection)
    unknown = faults - KNOWN_FAULTS
    if unknown:
        raise ReproError(
            f"unknown fault injection(s) {sorted(unknown)}; known: {sorted(KNOWN_FAULTS)}"
        )
    start = time.perf_counter()
    tel = options.telemetry if options.telemetry is not None else NULL_TELEMETRY

    def setup(matching: Matching, state: ForestState, trace) -> PhaseKernels:
        x_ptr, x_adj, y_ptr, y_adj = adjacency_lists(graph)
        sim = InterleavedSimulator(threads, seed, faults=faults)
        mate_x = matching.mate_x
        mate_y = matching.mate_y
        parent, leaf = state.parent, state.leaf
        # Shared-state views for the item programs. Serial code between
        # regions keeps using the raw arrays; programs go through these
        # wrappers so the monitor sees every access.
        visited = AtomicArray(state.visited, name="visited", observer=monitor)
        sh_parent = SharedArray(parent, "parent", monitor)
        sh_root_x = SharedArray(state.root_x, "root_x", monitor)
        sh_root_y = SharedArray(state.root_y, "root_y", monitor)
        sh_leaf = SharedArray(leaf, "leaf", monitor)
        sh_mate_y = SharedArray(mate_y, "mate_y", monitor)
        if monitor is not None:
            monitor.bind(sim=sim, graph=graph, state=state, matching=matching)
        edges = 0
        path_bound = 2 * (graph.n_x + graph.n_y) + 1

        def topdown_program(x: int, ts: SimThreadState) -> Generator[None, None, None]:
            nonlocal edges
            rx = sh_root_x.load(x)
            if rx == UNMATCHED or sh_leaf.load(rx) != UNMATCHED:
                return
            for i in range(x_ptr[x], x_ptr[x + 1]):
                yield  # one interleaving point per scanned edge
                edges += 1
                if sh_leaf.load(rx) != UNMATCHED:
                    break  # racy read — may miss a concurrent leaf write; benign
                y = x_adj[i]
                if visited.load(y):
                    continue  # cheap pre-check before the atomic (Section III-B)
                yield  # check-then-act window: another thread may claim y here
                if NON_ATOMIC_VISITED in sim.faults:
                    # FAULT: plain store instead of CAS — the pre-check load above
                    # and this write no longer form an atomic claim, so two
                    # threads can both "win" y.
                    visited.store(y, 1)
                elif not visited.compare_and_swap(y, 0, 1):
                    continue  # lost the claim race
                # The claim won: this thread owns y's pointers.
                sh_parent.store(y, x)
                sh_root_y.store(y, rx)
                state.count_visit(y)
                mate = sh_mate_y.load(y)
                if mate != UNMATCHED:
                    sh_root_x.store(mate, rx)
                    ts.local["queue"].append(mate)
                else:
                    sh_leaf.store(rx, y)  # benign race: last concurrent writer wins

        def bottomup_program(y: int, ts: SimThreadState) -> Generator[None, None, None]:
            nonlocal edges
            for i in range(y_ptr[y], y_ptr[y + 1]):
                yield
                edges += 1
                x = y_adj[i]
                rx = sh_root_x.load(x)  # racy: may see a concurrently grafted tree
                if rx == UNMATCHED or sh_leaf.load(rx) != UNMATCHED:
                    continue
                # y is owned by this thread: plain store, no atomic needed.
                if not visited.load(y):
                    state.count_visit(y)
                visited.store(y, 1)
                sh_parent.store(y, x)
                sh_root_y.store(y, rx)
                mate = sh_mate_y.load(y)
                if mate != UNMATCHED:
                    sh_root_x.store(mate, rx)
                    ts.local["queue"].append(mate)
                else:
                    sh_leaf.store(rx, y)
                break

        def run_region(items: np.ndarray, program) -> kernels.LevelStats:
            """One ``parallel for`` over ``items``, as the phase loop's level."""
            unvisited_before = state.num_unvisited_y
            edges_before = edges
            thread_states = sim.parallel_for(
                items,
                program,
                on_thread_start=lambda ts: ts.local.__setitem__("queue", []),
            )
            merged: List[int] = []
            for ts in thread_states:
                merged.extend(ts.local["queue"])
            if monitor is not None:
                monitor.after_barrier()
            claims = unvisited_before - state.num_unvisited_y
            return kernels.LevelStats(
                next_frontier=np.asarray(merged, dtype=np.int64),
                item_costs=kernels._NO_COSTS,
                edges=edges - edges_before,
                claims=claims,
                attempts=claims,
                endpoints=0,
            )

        def augment() -> np.ndarray:
            # Serial, path-bounded: a fault-corrupted forest raises instead
            # of looping (paths are vertex-disjoint; order is irrelevant).
            lengths: List[int] = []
            for x0 in np.flatnonzero((mate_x == UNMATCHED) & (leaf != UNMATCHED)):
                y = int(leaf[x0])
                length = 0
                while True:
                    if length > path_bound:
                        raise InvariantViolation(
                            f"augmenting path from root {int(x0)} exceeds {path_bound} "
                            f"edges; parent/mate pointers form a cycle"
                        )
                    x = int(parent[y])
                    prev_mate = int(mate_x[x])
                    mate_x[x] = y
                    mate_y[y] = x
                    length += 1
                    if prev_mate == UNMATCHED:
                        break
                    y = prev_mate
                    length += 1
                lengths.append(length)
            return np.asarray(lengths, dtype=np.int64)

        def end_phase(phase: int) -> None:
            if monitor is not None:
                monitor.after_phase()
            if max_phases is not None and phase >= max_phases:
                raise ReproError(
                    f"phase limit {max_phases} exceeded; the run is not converging "
                    f"(possible state corruption from fault injection)"
                )

        return PhaseKernels(
            topdown=lambda frontier: run_region(frontier, topdown_program),
            bottomup=lambda rows, region: run_region(rows, bottomup_program),
            augment=augment,
            end_phase=end_phase,
            # The item programs do not maintain the tree-membership lists.
            tracked_partition=False,
        )

    with tel.run_span("interleaved", algorithm=options.algorithm_name, graph=graph):
        return run_phase_loop(
            graph, initial, options, tel, start, setup,
            algorithm=options.algorithm_name + "-interleaved",
            work_trace=False,
        )
