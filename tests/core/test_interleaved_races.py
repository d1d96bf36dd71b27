"""Race-semantics validation on the interleaved simulator.

The paper's two concurrency claims (Section III-B):

1. atomic ``visited`` claims keep the alternating trees vertex-disjoint
   under any interleaving;
2. the concurrent ``leaf[root]`` updates are a *benign* race — whatever
   thread writes last, the tree keeps exactly one augmenting path and the
   final matching is still maximum.

These tests sweep schedule seeds and thread counts and assert both claims,
plus that contended CAS failures actually occur (i.e. the tests exercise
real races, not accidental serial schedules).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import reference_maximum

from repro.core.driver import ms_bfs_graft
from repro.core.engine_interleaved import run_interleaved
from repro.core.options import GraftOptions
from repro.graph.generators import (
    complete_bipartite,
    planted_matching,
    random_bipartite,
    surplus_core_bipartite,
)
from repro.matching.greedy import greedy_matching
from repro.matching.verify import verify_maximum
from repro.parallel.atomics import AtomicArray
from repro.parallel.simulator import InterleavedSimulator


class TestMaximumUnderInterleaving:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("threads", [2, 4, 7])
    def test_always_maximum(self, seed, threads):
        graph = random_bipartite(25, 25, 110, seed=42)
        expected = reference_maximum(graph)
        result = ms_bfs_graft(
            graph, engine="interleaved", threads=threads, seed=seed,
            check_invariants=True,
        )
        assert result.cardinality == expected
        verify_maximum(graph, result.matching)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_seed_sweep_on_contended_graph(self, seed):
        # Complete bipartite: every claim is contended by every thread.
        graph = complete_bipartite(10, 8)
        result = ms_bfs_graft(graph, engine="interleaved", threads=5, seed=seed)
        assert result.cardinality == 8
        verify_maximum(graph, result.matching)

    def test_surplus_core_with_grafting(self):
        graph = surplus_core_bipartite(30, 20, seed=3)
        init = greedy_matching(graph, shuffle=True, seed=1).matching
        for seed in range(5):
            result = ms_bfs_graft(
                graph, init, engine="interleaved", threads=4, seed=seed,
                check_invariants=True,
            )
            assert result.cardinality == 30
            verify_maximum(graph, result.matching)


class TestRacesActuallyHappen:
    def test_cas_contention_observed(self):
        """On a contended graph, some CAS attempts must fail across seeds."""
        graph = complete_bipartite(12, 6)

        def run_and_count(seed):
            from repro.core.forest import ForestState

            state = ForestState.for_graph(graph)
            atomic = AtomicArray(state.visited)
            # Drive one top-down level manually through the simulator.
            sim = InterleavedSimulator(6, seed)
            x_ptr, x_adj = graph.x_ptr, graph.x_adj
            frontier = list(range(graph.n_x))
            for x in frontier:
                state.root_x[x] = x

            def program(x, ts):
                for i in range(x_ptr[x], x_ptr[x + 1]):
                    yield
                    y = int(x_adj[i])
                    if atomic.load(y):
                        continue
                    yield  # check-then-act window, as in the real engine
                    if not atomic.compare_and_swap(y, 0, 1):
                        continue
                    state.parent[y] = x

            sim.parallel_for(frontier, program)
            return atomic.cas_failures

        failures = [run_and_count(seed) for seed in range(10)]
        assert any(f > 0 for f in failures), "no CAS contention observed in 10 seeds"

    def test_claim_winners_vary_with_schedule(self):
        """Different interleavings assign different parents (real races)."""
        graph = complete_bipartite(8, 8)
        parents = set()
        for seed in range(12):
            result = ms_bfs_graft(graph, engine="interleaved", threads=4, seed=seed)
            parents.add(tuple(result.matching.mate_y.tolist()))
        assert len(parents) > 1, "all schedules produced identical matchings"

    def test_all_schedules_same_cardinality(self):
        graph = planted_matching(20, extra_edges=60, seed=5)
        cards = {
            ms_bfs_graft(graph, engine="interleaved", threads=3, seed=s).cardinality
            for s in range(12)
        }
        assert cards == {20}


class TestRunInterleavedDirect:
    def test_options_respected(self):
        graph = random_bipartite(15, 15, 50, seed=6)
        options = GraftOptions(grafting=False, direction_optimizing=False)
        result = run_interleaved(graph, None, options, threads=3, seed=0)
        assert result.algorithm == "ms-bfs-interleaved"
        verify_maximum(graph, result.matching)

    def test_single_thread_matches_parallel_cardinality(self):
        graph = random_bipartite(18, 18, 70, seed=7)
        one = run_interleaved(graph, None, GraftOptions(), threads=1, seed=0)
        many = run_interleaved(graph, None, GraftOptions(), threads=6, seed=0)
        assert one.cardinality == many.cardinality
