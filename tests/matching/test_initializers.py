"""Karp-Sipser (serial + parallel rounds) and greedy initialisers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MatchingError
from repro.graph.builder import from_edges
from repro.graph.generators import (
    chain_graph,
    complete_bipartite,
    crown_graph,
    planted_matching,
    random_bipartite,
)
from repro.matching.base import Matching
from repro.matching.greedy import greedy_matching
from repro.matching.karp_sipser import karp_sipser
from repro.matching.karp_sipser_parallel import karp_sipser_parallel
from repro.matching.verify import is_maximal_matching, is_valid_matching

INITIALIZERS = {
    "greedy": lambda g, seed: greedy_matching(g, shuffle=True, seed=seed),
    "karp-sipser": lambda g, seed: karp_sipser(g, seed=seed),
    "karp-sipser-parallel": lambda g, seed: karp_sipser_parallel(g, seed=seed),
}


@pytest.mark.parametrize("name", sorted(INITIALIZERS))
class TestAllInitializers:
    def test_valid_and_maximal(self, name, zoo_graph):
        gname, graph = zoo_graph
        result = INITIALIZERS[name](graph, 0)
        assert is_valid_matching(graph, result.matching)
        assert is_maximal_matching(graph, result.matching)

    def test_at_least_half_maximum(self, name, zoo_graph):
        from repro.core.driver import ms_bfs_graft

        gname, graph = zoo_graph
        maximal = INITIALIZERS[name](graph, 0).cardinality
        maximum = ms_bfs_graft(graph, emit_trace=False).cardinality
        assert maximal * 2 >= maximum

    def test_deterministic(self, name):
        g = random_bipartite(30, 30, 120, seed=5)
        a = INITIALIZERS[name](g, 7)
        b = INITIALIZERS[name](g, 7)
        assert a.matching == b.matching


class TestKarpSipser:
    def test_degree_one_rule_on_chain(self):
        # The chain's ends are degree-1 so KS matches the path perfectly.
        result = karp_sipser(chain_graph(20))
        assert result.cardinality == 20

    def test_crown_graph(self):
        result = karp_sipser(crown_graph(6), seed=0)
        assert result.cardinality == 6  # KS is exact here (degrees stay >= 2, random works)

    def test_counts_edges(self):
        result = karp_sipser(random_bipartite(20, 20, 80, seed=0))
        assert result.counters.edges_traversed > 0

    def test_respects_initial_matching(self):
        g = complete_bipartite(3, 3)
        init = Matching.from_pairs(3, 3, [(0, 2)])
        result = karp_sipser(g, init)
        assert result.matching.mate_x[0] == 2
        assert result.cardinality == 3

    def test_near_optimal_on_planted(self):
        g = planted_matching(200, extra_edges=300, seed=2)
        result = karp_sipser(g, seed=0)
        assert result.cardinality >= 190


class TestKarpSipserParallel:
    def test_weaker_or_equal_to_serial(self):
        # Round semantics lose some cascades; quality may drop, never by
        # more than half of maximum (maximality holds).
        g = planted_matching(300, extra_edges=900, seed=3)
        par = karp_sipser_parallel(g, seed=0, max_degree_one_rounds=2)
        assert par.cardinality <= karp_sipser(g, seed=0).cardinality
        assert 2 * par.cardinality >= 300

    def test_respects_initial_matching(self):
        g = random_bipartite(30, 30, 120, seed=6)
        init = greedy_matching(g).matching
        for x, _ in init.pairs()[::2]:
            init.unmatch(x)
        result = karp_sipser_parallel(g, init, seed=0)
        for x, y in init.pairs():
            assert result.matching.mate_x[x] == y
        assert is_valid_matching(g, result.matching)
        assert is_maximal_matching(g, result.matching)
        assert result.cardinality > init.cardinality
        g = complete_bipartite(3, 3)
        result = karp_sipser_parallel(g, Matching.from_pairs(3, 3, [(0, 2)]), seed=0)
        assert result.matching.mate_x[0] == 2
        assert result.cardinality == 3

    @pytest.mark.parametrize("defect", ["inconsistent", "out-of-range", "non-edge"])
    def test_rejects_invalid_initial_matching(self, defect):
        g = from_edges(2, 2, [(0, 0), (1, 1)])
        bad = {
            "inconsistent": Matching(2, 2, np.array([0, -1]), np.array([-1, -1])),
            "out-of-range": Matching(2, 2, np.array([2, -1]), np.array([-1, -1])),
            "non-edge": Matching.from_pairs(2, 2, [(0, 1)]),
        }[defect]
        with pytest.raises(MatchingError):
            karp_sipser_parallel(g, bad, seed=0)

    def test_round_cap_zero_still_maximal(self):
        g = random_bipartite(40, 40, 160, seed=1)
        result = karp_sipser_parallel(g, seed=0, max_degree_one_rounds=0)
        assert is_maximal_matching(g, result.matching)

    def test_chain(self):
        result = karp_sipser_parallel(chain_graph(10), seed=0)
        assert is_maximal_matching(chain_graph(10), result.matching)

    @given(st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_valid_for_many_seeds(self, seed):
        g = random_bipartite(25, 20, 100, seed=9)
        result = karp_sipser_parallel(g, seed=seed)
        assert is_valid_matching(g, result.matching)
        assert is_maximal_matching(g, result.matching)


class TestGreedy:
    def test_first_fit(self):
        g = complete_bipartite(2, 2)
        result = greedy_matching(g)
        assert result.matching.mate_x[0] == 0
        assert result.matching.mate_x[1] == 1

    def test_shuffle_changes_result(self):
        g = random_bipartite(50, 50, 300, seed=4)
        a = greedy_matching(g, shuffle=True, seed=1).matching
        b = greedy_matching(g, shuffle=True, seed=2).matching
        assert a != b  # overwhelmingly likely

    def test_empty_graph(self):
        from repro.graph.builder import from_edges

        result = greedy_matching(from_edges(3, 3, []))
        assert result.cardinality == 0


class TestGreedyOrders:
    def test_mindegree_beats_input_on_skewed(self):
        from repro.graph.generators import random_bipartite

        g = random_bipartite(1000, 1000, 3000, seed=1)
        plain = greedy_matching(g, order="input").cardinality
        mindeg = greedy_matching(g, order="mindegree").cardinality
        assert mindeg >= plain

    def test_all_orders_maximal(self, zoo_graph):
        name, graph = zoo_graph
        for order in ("input", "random", "mindegree"):
            result = greedy_matching(graph, order=order, seed=2)
            assert is_maximal_matching(graph, result.matching), order

    def test_unknown_order(self):
        from repro.graph.generators import complete_bipartite

        with pytest.raises(ValueError):
            greedy_matching(complete_bipartite(2, 2), order="maxdegree")

    def test_mindegree_deterministic(self):
        from repro.graph.generators import random_bipartite

        g = random_bipartite(50, 50, 150, seed=3)
        a = greedy_matching(g, order="mindegree").matching
        b = greedy_matching(g, order="mindegree").matching
        assert a == b
