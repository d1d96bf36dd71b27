"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.graph.builder import from_edges
from repro.graph.csr import BipartiteCSR
from repro.graph.generators import (
    chain_graph,
    complete_bipartite,
    crown_graph,
    grid_bipartite,
    planted_matching,
    power_law_bipartite,
    random_bipartite,
    rmat_bipartite,
    surplus_core_bipartite,
)

# --------------------------------------------------------------------- #
# deterministic small-graph zoo
# --------------------------------------------------------------------- #


def paper_figure2_graph() -> BipartiteCSR:
    """The worked example of the paper's Fig. 2.

    6 + 6 vertices; a maximal matching (x3-y1, x4-y2, x5-y4, x6-y5 in the
    figure, 0-indexed here) leaves x1, x2 unmatched, and tree grafting is
    exercised exactly as in the figure's walk-through.
    """
    edges = [
        (0, 1),  # x1-y2 (scanned, not in tree)
        (0, 0),  # x1-y1
        (1, 2),  # x2-y3
        (2, 0), (2, 1), (2, 2),  # x3 adj y1,y2,y3
        (3, 1), (3, 3),  # x4
        (4, 2), (4, 4),  # x5
        (5, 3), (5, 4), (5, 5),  # x6
    ]
    return from_edges(6, 6, edges)


SMALL_GRAPHS = {
    "empty": from_edges(3, 3, []),
    "single-edge": from_edges(1, 1, [(0, 0)]),
    "chain-5": chain_graph(5),
    "crown-5": crown_graph(5),
    "complete-4x3": complete_bipartite(4, 3),
    "fig2": paper_figure2_graph(),
    "planted-40": planted_matching(40, extra_edges=60, seed=11),
    "random-rect": random_bipartite(30, 20, 90, seed=12),
    "grid-6x5": grid_bipartite(6, 5),
    "rmat-7": rmat_bipartite(scale=7, edge_factor=4, seed=13),
    "plaw": power_law_bipartite(60, 40, avg_degree=3, seed=14),
    "surplus": surplus_core_bipartite(40, 25, seed=15),
}

# Known maximum matching cardinalities, cross-checked against networkx in
# tests/integration/test_networkx_agreement.py.
EXPECTED_MAXIMUM = {
    "empty": 0,
    "single-edge": 1,
    "chain-5": 5,
    "crown-5": 5,
    "complete-4x3": 3,
    "fig2": 6,
    "planted-40": 40,
    "surplus": 40,
}


@pytest.fixture(params=sorted(SMALL_GRAPHS))
def zoo_graph(request):
    """Parametrised over the whole small-graph zoo."""
    return request.param, SMALL_GRAPHS[request.param]


@pytest.fixture
def fig2_graph():
    return paper_figure2_graph()


def reference_maximum(graph: BipartiteCSR) -> int:
    """Maximum matching cardinality via networkx (independent oracle)."""
    import networkx as nx
    from networkx.algorithms.bipartite import maximum_matching

    if graph.n_x == 0 or graph.n_y == 0 or graph.nnz == 0:
        return 0
    g = nx.Graph()
    g.add_nodes_from((("x", i) for i in range(graph.n_x)), bipartite=0)
    g.add_nodes_from((("y", j) for j in range(graph.n_y)), bipartite=1)
    g.add_edges_from((("x", x), ("y", y)) for x, y in graph.edges())
    top = {("x", i) for i in range(graph.n_x)}
    match = maximum_matching(g, top_nodes=top)
    return sum(1 for k in match if k[0] == "x")
