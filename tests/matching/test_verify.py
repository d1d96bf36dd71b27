import ast
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import VerificationError
from repro.graph.builder import from_edges
from repro.graph.generators import chain_graph, complete_bipartite, random_bipartite
from repro.matching import verify as verify_module
from repro.matching.base import UNMATCHED, Matching
from repro.matching.verify import (
    _alternating_reachability,
    assert_valid_matching,
    hall_violator,
    is_maximal_matching,
    is_maximum_matching,
    is_valid_matching,
    koenig_vertex_cover,
    verify_maximum,
)

from tests.matching.test_differential import CASES, scipy_mates


@pytest.fixture
def path3():
    # x0 - y0 - x1 - y1: a path with maximum matching 2.
    return from_edges(2, 2, [(0, 0), (1, 0), (1, 1)])


class TestValidity:
    def test_valid(self, path3):
        assert is_valid_matching(path3, Matching.from_pairs(2, 2, [(0, 0), (1, 1)]))

    def test_non_edge_invalid(self, path3):
        assert not is_valid_matching(path3, Matching.from_pairs(2, 2, [(0, 1)]))

    def test_size_mismatch_invalid(self, path3):
        assert not is_valid_matching(path3, Matching.empty(3, 3))

    def test_inconsistent_mates_invalid(self, path3):
        m = Matching.from_pairs(2, 2, [(0, 0)])
        m.mate_y[0] = 1
        assert not is_valid_matching(path3, m)

    def test_assert_raises(self, path3):
        with pytest.raises(VerificationError):
            assert_valid_matching(path3, Matching.from_pairs(2, 2, [(0, 1)]))


class TestMaximality:
    def test_empty_not_maximal(self, path3):
        assert not is_maximal_matching(path3, Matching.empty(2, 2))

    def test_greedy_mistake_is_maximal_not_maximum(self, path3):
        m = Matching.from_pairs(2, 2, [(1, 0)])  # blocks both other edges
        assert is_maximal_matching(path3, m)
        assert not is_maximum_matching(path3, m)

    def test_maximum_is_maximal(self, path3):
        m = Matching.from_pairs(2, 2, [(0, 0), (1, 1)])
        assert is_maximal_matching(path3, m)
        assert is_maximum_matching(path3, m)


class TestMaximum:
    def test_chain_maximum(self):
        g = chain_graph(3)
        m = Matching.from_pairs(3, 3, [(0, 0), (1, 1), (2, 2)])
        assert is_maximum_matching(g, m)

    def test_chain_suboptimal_detected(self):
        g = chain_graph(3)
        # Match the "crossing" edges, leaving x0 and y2 free but connected
        # by an augmenting path.
        m = Matching.from_pairs(3, 3, [(1, 0), (2, 1)])
        assert not is_maximum_matching(g, m)

    def test_invalid_never_maximum(self, path3):
        assert not is_maximum_matching(path3, Matching.from_pairs(2, 2, [(0, 1)]))


class TestKoenig:
    def test_cover_size_equals_cardinality(self):
        g = random_bipartite(25, 20, 100, seed=0)
        from repro.core.driver import ms_bfs_graft

        result = ms_bfs_graft(g, emit_trace=False)
        cx, cy = koenig_vertex_cover(g, result.matching)
        assert cx.size + cy.size == result.cardinality

    def test_rejects_non_maximum(self, path3):
        with pytest.raises(VerificationError):
            koenig_vertex_cover(path3, Matching.from_pairs(2, 2, [(1, 0)]))

    def test_complete_graph_cover(self):
        g = complete_bipartite(3, 5)
        m = Matching.from_pairs(3, 5, [(0, 0), (1, 1), (2, 2)])
        cx, cy = koenig_vertex_cover(g, m)
        assert cx.size + cy.size == 3


class TestVerifyMaximum:
    def test_full_certificate(self):
        g = random_bipartite(30, 30, 120, seed=1)
        from repro.core.driver import ms_bfs_graft

        result = ms_bfs_graft(g, emit_trace=False)
        assert verify_maximum(g, result.matching) == result.cardinality

    def test_rejects_suboptimal(self, path3):
        with pytest.raises(VerificationError):
            verify_maximum(path3, Matching.from_pairs(2, 2, [(1, 0)]))

    def test_rejects_invalid(self, path3):
        with pytest.raises(VerificationError):
            verify_maximum(path3, Matching.from_pairs(2, 2, [(0, 1)]))

    def test_empty_graph(self):
        g = from_edges(2, 2, [])
        assert verify_maximum(g, Matching.empty(2, 2)) == 0


# --------------------------------------------------------------------------- #
# Adversarial inputs: every corruption of a maximum matching must be rejected.
# Maximum matchings come from scipy, so no engine code is involved.
# --------------------------------------------------------------------------- #


def scipy_maximum(graph) -> Matching:
    """A maximum matching computed by scipy's C Hopcroft–Karp."""
    mate_x = scipy_mates(graph)
    mate_y = np.full(graph.n_y, UNMATCHED, dtype=np.int64)
    matched = np.flatnonzero(mate_x != UNMATCHED)
    mate_y[mate_x[matched]] = matched
    return Matching(graph.n_x, graph.n_y, mate_x, mate_y)


@st.composite
def matched_instances(draw):
    """A random graph, a scipy maximum matching of it (with |M| >= 1), and
    one of its matched X vertices."""
    n_x = draw(st.integers(1, 12))
    n_y = draw(st.integers(1, 12))
    nnz = draw(st.integers(1, n_x * n_y))
    graph = random_bipartite(n_x, n_y, nnz, seed=draw(st.integers(0, 10_000)))
    matching = scipy_maximum(graph)
    matched = np.flatnonzero(matching.mate_x != UNMATCHED)
    x = int(matched[draw(st.integers(0, matched.size - 1))])
    return graph, matching, x


def assert_rejected(graph, matching):
    """Invalid or non-maximum: every public certificate refuses it."""
    assert not is_maximum_matching(graph, matching)
    for certify in (verify_maximum, koenig_vertex_cover, hall_violator):
        with pytest.raises(VerificationError):
            certify(graph, matching)


def assert_invalid(graph, matching):
    assert not is_valid_matching(graph, matching)
    with pytest.raises(VerificationError):
        assert_valid_matching(graph, matching)
    assert_rejected(graph, matching)


ADVERSARIAL = settings(max_examples=60, deadline=None)


class TestAdversarial:
    @given(matched_instances(), st.sampled_from(["clear-y", "clear-x", "redirect-y"]))
    @ADVERSARIAL
    def test_inconsistent_mates(self, instance, corruption):
        graph, matching, x = instance
        y = int(matching.mate_x[x])
        if corruption == "clear-y":
            matching.mate_y[y] = UNMATCHED
        elif corruption == "clear-x":
            matching.mate_x[x] = UNMATCHED
        else:  # y points at some other X vertex
            assume(graph.n_x > 1)
            matching.mate_y[y] = (x + 1) % graph.n_x
        assert not matching.is_consistent()
        assert_invalid(graph, matching)

    @given(
        matched_instances(),
        st.sampled_from(["x", "y"]),
        st.one_of(st.integers(-1000, -2), st.integers(0, 1000)),
    )
    @ADVERSARIAL
    def test_out_of_range_mates(self, instance, side, value):
        graph, matching, x = instance
        if side == "x":
            bad = value if value < 0 else graph.n_y + value
            matching.mate_x[x] = bad
        else:
            bad = value if value < 0 else graph.n_x + value
            matching.mate_y[int(matching.mate_x[x])] = bad
        assert not matching.is_consistent()
        assert_invalid(graph, matching)

    @given(matched_instances(), st.data())
    @ADVERSARIAL
    def test_matched_pair_not_an_edge(self, instance, data):
        graph, matching, _ = instance
        present = np.zeros((graph.n_x, graph.n_y), dtype=bool)
        xs, ys = graph.edge_arrays()
        present[xs, ys] = True
        absent = np.argwhere(~present)
        assume(absent.size)
        x, y = (int(v) for v in absent[data.draw(st.integers(0, len(absent) - 1))])
        # Free both endpoints, then match them to each other: the mates stay
        # mutually consistent, but (x, y) is not an edge.
        matching.unmatch(x)
        if matching.mate_y[y] != UNMATCHED:
            matching.unmatch(int(matching.mate_y[y]))
        matching.match(x, y)
        assert matching.is_consistent()
        assert_invalid(graph, matching)

    @given(matched_instances())
    @ADVERSARIAL
    def test_dropped_matched_edge(self, instance):
        graph, matching, x = instance
        verify_maximum(graph, matching)
        matching.unmatch(x)  # the freed edge is itself an augmenting path
        assert is_valid_matching(graph, matching)
        assert_rejected(graph, matching)


# --------------------------------------------------------------------------- #
# The vectorized search against the Python-deque BFS it replaced.
# --------------------------------------------------------------------------- #


def deque_reachability(graph, matching):
    """Reference: queue-driven alternating BFS from every free X vertex."""
    reach_x = np.zeros(graph.n_x, dtype=bool)
    reach_y = np.zeros(graph.n_y, dtype=bool)
    queue = deque()
    for x in matching.unmatched_x():
        reach_x[x] = True
        queue.append(int(x))
    found = False
    while queue:
        x = queue.popleft()
        for y in graph.neighbors_x(x):
            y = int(y)
            if reach_y[y]:
                continue
            reach_y[y] = True
            mate = int(matching.mate_y[y])
            if mate == UNMATCHED:
                found = True
            elif not reach_x[mate]:
                reach_x[mate] = True
                queue.append(mate)
    return reach_x, reach_y, found


@pytest.mark.parametrize(("name", "builder"), CASES, ids=[c[0] for c in CASES])
def test_reach_sets_match_deque_reference(name, builder):
    graph = builder()
    maximum = scipy_maximum(graph)
    partial = maximum.copy()
    for x in np.flatnonzero(partial.mate_x != UNMATCHED)[::2]:
        partial.unmatch(int(x))
    for matching in (maximum, partial):
        got_x, got_y, got_found = _alternating_reachability(graph, matching)
        want_x, want_y, want_found = deque_reachability(graph, matching)
        assert got_x.dtype == want_x.dtype and got_y.dtype == want_y.dtype
        assert np.array_equal(got_x, want_x)
        assert np.array_equal(got_y, want_y)
        assert got_found == want_found
    assert not _alternating_reachability(graph, maximum)[2]


def test_certifier_imports_nothing_from_the_engines():
    """An engine bug must not be able to certify itself."""
    tree = ast.parse(Path(verify_module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in verify.py"
            imported.add(node.module)
    engines = ("repro.core", "repro.matching._common")
    leaked = sorted(m for m in imported if any(m == e or m.startswith(e + ".") for e in engines))
    assert not leaked, f"verify.py imports engine code: {leaked}"
