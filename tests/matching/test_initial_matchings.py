"""Engines from arbitrary initial matchings: valid ones reach the maximum,
invalid ones are rejected before any engine state is built.

The online repair warm-starts MS-BFS-Graft from whatever matching survived
a batch, so the engines' contract on ``initial`` is load-bearing: any valid
matching is a legal start (Section II-B of the paper starts from
Karp-Sipser), and :func:`~repro.matching.base.init_matching` refuses
inconsistent mates, out-of-range ids and pairs that are not edges with
:class:`~repro.errors.MatchingError`. Cardinalities are checked against
scipy's Hopcroft-Karp, which shares no code with the engines.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import maximum_bipartite_matching

from repro.core.driver import ms_bfs_graft
from repro.errors import MatchingError
from repro.graph.builder import from_edges
from repro.matching.base import UNMATCHED, Matching, init_matching
from repro.matching.verify import verify_maximum

ENGINES = ("numpy", "python")


@st.composite
def graph_and_valid_matching(draw):
    """A random graph plus a greedy matching built in an adversarial order.

    Hypothesis picks the order in which edges are offered to the greedy
    matcher, and how many of them it may take, so the start ranges from
    empty through blocking maximal matchings (long augmenting paths left)
    to already-maximum ones.
    """
    n_x = draw(st.integers(1, 14))
    n_y = draw(st.integers(1, 14))
    pairs = st.tuples(st.integers(0, n_x - 1), st.integers(0, n_y - 1))
    edges = sorted(draw(st.sets(pairs, max_size=45)))
    order = draw(st.permutations(range(len(edges))))
    budget = draw(st.integers(0, len(edges)))
    matching = Matching.empty(n_x, n_y)
    for i in order[:budget]:
        x, y = edges[i]
        if matching.mate_x[x] == UNMATCHED and matching.mate_y[y] == UNMATCHED:
            matching.match(x, y)
    return from_edges(n_x, n_y, edges), matching


def scipy_cardinality(graph):
    matrix = sp.csr_matrix(
        (np.ones(graph.nnz, dtype=np.int8), graph.x_adj, graph.x_ptr),
        shape=(graph.n_x, graph.n_y),
    )
    mate = maximum_bipartite_matching(matrix, perm_type="column")
    return int(np.count_nonzero(mate != -1))


class TestValidInitialMatchings:
    @given(case=graph_and_valid_matching())
    @settings(max_examples=80, deadline=None)
    def test_engines_reach_scipy_maximum(self, case):
        graph, initial = case
        expected = scipy_cardinality(graph)
        before = initial.copy()
        for engine in ENGINES:
            result = ms_bfs_graft(graph, initial, engine=engine, emit_trace=False)
            assert result.cardinality == expected, engine
            verify_maximum(graph, result.matching)
        assert initial == before  # engines never mutate the caller's start

    @pytest.mark.parametrize("engine", ENGINES)
    def test_blocking_maximal_start(self, engine):
        # A path x0-y0-x1-y1-...: matching (x_{i+1}, y_i) is maximal but
        # leaves x0 and y_last free, so one long augmenting path remains.
        n = 9
        edges = [(i, i) for i in range(n)] + [(i + 1, i) for i in range(n - 1)]
        graph = from_edges(n, n, edges)
        initial = Matching.from_pairs(n, n, [(i + 1, i) for i in range(n - 1)])
        result = ms_bfs_graft(graph, initial, engine=engine, emit_trace=False)
        assert result.cardinality == n == scipy_cardinality(graph)


def _corruptions(graph, matching):
    """Invalid variants of a valid, non-empty matching."""
    x = int(np.flatnonzero(matching.mate_x != UNMATCHED)[0])
    y = int(matching.mate_x[x])
    bad = {}
    m = matching.copy()
    m.mate_y[y] = UNMATCHED  # x -> y but y -> nobody
    bad["one-sided mate"] = m
    m = matching.copy()
    m.mate_x[x] = graph.n_y  # past the last Y id
    bad["out-of-range y"] = m
    m = matching.copy()
    m.mate_y[y] = -2  # below the sentinel
    bad["negative mate"] = m
    non_edges = [
        (a, b) for a in range(graph.n_x) for b in range(graph.n_y)
        if not graph.has_edge(a, b)
        and matching.mate_x[a] == UNMATCHED and matching.mate_y[b] == UNMATCHED
    ]
    if non_edges:
        a, b = non_edges[0]
        m = matching.copy()
        m.match(a, b)  # consistent mates, but (a, b) is not an edge
        bad["non-edge pair"] = m
    return bad


class TestInvalidInitialMatchingsRejected:
    @given(case=graph_and_valid_matching())
    @settings(max_examples=60, deadline=None)
    def test_corruptions_raise(self, case):
        graph, valid = case
        if valid.cardinality == 0:
            return
        for label, bad in _corruptions(graph, valid).items():
            with pytest.raises(MatchingError):
                init_matching(graph, bad)
            for engine in ENGINES:
                with pytest.raises(MatchingError):
                    ms_bfs_graft(graph, bad, engine=engine, emit_trace=False)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_messages(self, engine):
        graph = from_edges(2, 2, [(0, 0), (1, 1)])
        inconsistent = Matching(2, 2, np.array([0, -1]), np.array([-1, -1]))
        with pytest.raises(MatchingError, match="inconsistent"):
            ms_bfs_graft(graph, inconsistent, engine=engine, emit_trace=False)
        non_edge = Matching.from_pairs(2, 2, [(0, 1)])
        with pytest.raises(MatchingError, match="share no edge"):
            ms_bfs_graft(graph, non_edge, engine=engine, emit_trace=False)
