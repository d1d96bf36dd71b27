"""Distributed MS-BFS-Graft: correctness across rank counts + BSP sanity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import EXPECTED_MAXIMUM, SMALL_GRAPHS, reference_maximum

from repro.core.driver import ms_bfs_graft
from repro.distributed import (
    BSPCostModel,
    ClusterSpec,
    distributed_ms_bfs_graft,
)
from repro.graph.generators import random_bipartite, surplus_core_bipartite
from repro.matching.greedy import greedy_matching
from repro.matching.karp_sipser import karp_sipser
from repro.matching.verify import verify_maximum


@pytest.mark.parametrize("ranks", [1, 2, 4, 7])
class TestCorrectnessAcrossRanks:
    def test_zoo_maximum(self, ranks, zoo_graph):
        name, graph = zoo_graph
        result = distributed_ms_bfs_graft(graph, ranks=ranks)
        verify_maximum(graph, result.matching)
        if name in EXPECTED_MAXIMUM:
            assert result.cardinality == EXPECTED_MAXIMUM[name]

    def test_with_initial_matching(self, ranks):
        graph = SMALL_GRAPHS["surplus"]
        init = karp_sipser(graph, seed=1).matching
        result = distributed_ms_bfs_graft(graph, init, ranks=ranks)
        verify_maximum(graph, result.matching)

    def test_flag_combinations(self, ranks):
        graph = SMALL_GRAPHS["planted-40"]
        init = greedy_matching(graph, shuffle=True, seed=2).matching
        for g in (True, False):
            for d in (True, False):
                result = distributed_ms_bfs_graft(
                    graph, init, ranks=ranks, grafting=g, direction_optimizing=d
                )
                assert result.cardinality == 40, (g, d)


class TestAgainstSharedMemoryEngine:
    @given(
        n_x=st.integers(2, 25),
        n_y=st.integers(2, 25),
        seed=st.integers(0, 400),
        ranks=st.integers(1, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_same_cardinality(self, n_x, n_y, seed, ranks):
        graph = random_bipartite(n_x, n_y, min(n_x * n_y, 3 * n_x), seed=seed)
        expected = ms_bfs_graft(graph, emit_trace=False).cardinality
        result = distributed_ms_bfs_graft(graph, ranks=ranks)
        assert result.cardinality == expected
        assert result.cardinality == reference_maximum(graph)


class TestBSPAccounting:
    @pytest.fixture(scope="class")
    def run(self):
        graph = surplus_core_bipartite(500, 300, seed=7)
        init = greedy_matching(graph, shuffle=True, seed=1).matching
        return distributed_ms_bfs_graft(graph, init, ranks=4)

    def test_log_populated(self, run):
        assert run.log.num_supersteps > 0
        assert run.log.total_compute > 0

    def test_superstep_labels(self, run):
        labels = run.log.by_label()
        assert any(k.startswith(("topdown", "bottomup")) for k in labels)
        assert "statistics" in labels

    def test_compute_scales_down_with_ranks(self):
        graph = surplus_core_bipartite(2000, 1200, seed=8)
        init = greedy_matching(graph, shuffle=True, seed=1).matching
        r1 = distributed_ms_bfs_graft(graph, init, ranks=1)
        r8 = distributed_ms_bfs_graft(graph, init, ranks=8)
        max_compute_1 = sum(s.max_compute for s in r1.log.steps)
        max_compute_8 = sum(s.max_compute for s in r8.log.steps)
        assert max_compute_8 < max_compute_1

    def test_single_rank_sends_nothing(self):
        graph = surplus_core_bipartite(300, 200, seed=9)
        result = distributed_ms_bfs_graft(graph, ranks=1)
        assert result.log.total_bytes == 0.0

    def test_cost_model_integration(self, run):
        cluster = ClusterSpec(name="test", ranks=4)
        total, comp, comm = BSPCostModel(cluster).decompose(run.log)
        assert total == pytest.approx(comp + comm)
        assert comm > 0  # 4 ranks must communicate

    def test_counters_match_semantics(self, run):
        c = run.counters
        assert c.phases >= 1
        assert c.augmentations == len(c.path_lengths)
        assert all(length % 2 == 1 for length in c.path_lengths)
