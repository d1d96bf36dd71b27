import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.builder import from_edges
from repro.graph.csr import INDEX_DTYPE, BipartiteCSR


@pytest.fixture
def small():
    return from_edges(3, 4, [(0, 1), (0, 3), (1, 0), (2, 2), (2, 3)])


class TestBasicProperties:
    def test_counts(self, small):
        assert small.n_x == 3
        assert small.n_y == 4
        assert small.nnz == 5
        assert small.num_vertices == 7
        assert small.num_directed_edges == 10

    def test_degree_vectors(self, small):
        assert np.array_equal(small.degree_x(), [2, 1, 2])
        assert np.array_equal(small.degree_y(), [1, 1, 1, 2])

    def test_single_degree(self, small):
        assert small.degree_x(0) == 2
        assert small.degree_y(3) == 2

    def test_neighbors_sorted(self, small):
        assert np.array_equal(small.neighbors_x(0), [1, 3])
        assert np.array_equal(small.neighbors_y(3), [0, 2])

    def test_has_edge(self, small):
        assert small.has_edge(0, 1)
        assert small.has_edge(2, 2)
        assert not small.has_edge(0, 0)
        assert not small.has_edge(1, 3)

    def test_edges_iteration(self, small):
        assert sorted(small.edges()) == [(0, 1), (0, 3), (1, 0), (2, 2), (2, 3)]

    def test_edge_arrays_match_edges(self, small):
        xs, ys = small.edge_arrays()
        assert sorted(zip(xs.tolist(), ys.tolist())) == sorted(small.edges())

    def test_repr(self, small):
        assert "nnz=5" in repr(small)


class TestImmutability:
    def test_arrays_read_only(self, small):
        with pytest.raises(ValueError):
            small.x_adj[0] = 0

    def test_neighbors_view_read_only(self, small):
        with pytest.raises(ValueError):
            small.neighbors_x(0)[0] = 9


class TestTranspose:
    def test_roundtrip(self, small):
        t = small.transpose()
        assert t.n_x == small.n_y and t.n_y == small.n_x
        assert sorted(t.edges()) == sorted((y, x) for x, y in small.edges())
        assert t.transpose() == small


class TestEquality:
    def test_equal_graphs(self, small):
        other = from_edges(3, 4, [(0, 1), (0, 3), (1, 0), (2, 2), (2, 3)])
        assert small == other

    def test_unequal_graphs(self, small):
        assert small != from_edges(3, 4, [(0, 1)])

    def test_not_implemented_for_other_types(self, small):
        assert small.__eq__(42) is NotImplemented


class TestValidation:
    def test_bad_ptr_shape(self):
        with pytest.raises(GraphError):
            BipartiteCSR(
                2, 2,
                np.array([0, 1]),  # should be length 3
                np.array([0]),
                np.array([0, 1, 1]),
                np.array([0]),
            )

    def test_decreasing_ptr(self):
        with pytest.raises(GraphError):
            BipartiteCSR(
                2, 2,
                np.array([0, 2, 1]),
                np.array([0, 1]),
                np.array([0, 1, 2]),
                np.array([0, 0]),
            )

    def test_out_of_range_target(self):
        with pytest.raises(GraphError):
            BipartiteCSR(
                1, 1,
                np.array([0, 1]),
                np.array([5]),
                np.array([0, 1]),
                np.array([0]),
            )

    def test_mismatched_directions(self):
        # x-side says (0,0); y-side says (0,1) -> inconsistent.
        with pytest.raises(GraphError):
            BipartiteCSR(
                2, 2,
                np.array([0, 1, 1]),
                np.array([0]),
                np.array([0, 0, 1]),
                np.array([1]),
            )

    def test_unsorted_row(self):
        with pytest.raises(GraphError):
            BipartiteCSR(
                1, 2,
                np.array([0, 2]),
                np.array([1, 0]),  # not sorted
                np.array([0, 1, 2]),
                np.array([0, 0]),
            )

    def test_empty_graph_valid(self):
        g = BipartiteCSR(0, 0, np.array([0]), np.array([]), np.array([0]), np.array([]))
        assert g.nnz == 0

    def test_index_dtype(self, small):
        assert small.x_adj.dtype == INDEX_DTYPE
        assert small.y_ptr.dtype == INDEX_DTYPE


def _reference_error(n_x, n_y, x_ptr, x_adj, y_ptr, y_adj):
    """The per-row loop validation, kept as a test oracle for its messages.

    Returns the ``GraphError`` text the row-by-row checks raise first (the
    pointer/range checks are assumed to pass), or ``None`` if the CSR is
    consistent.
    """
    for name, n, ptr, adj in (("x", n_x, x_ptr, x_adj), ("y", n_y, y_ptr, y_adj)):
        for r in range(n):
            row = adj[ptr[r]:ptr[r + 1]]
            if row.shape[0] > 1 and np.any(np.diff(row) <= 0):
                return f"adjacency row of {name}={r} is not strictly increasing"
    xs = np.repeat(np.arange(n_x), np.diff(x_ptr))
    ys2 = np.repeat(np.arange(n_y), np.diff(y_ptr))
    order1 = np.lexsort((x_adj, xs))
    order2 = np.lexsort((ys2, y_adj))
    if not (np.array_equal(xs[order1], y_adj[order2])
            and np.array_equal(x_adj[order1], ys2[order2])):
        return "x-side and y-side adjacency describe different edge sets"
    return None


def _corrupt(graph, side, row, how):
    """Copies of the CSR arrays with one row of ``side`` corrupted."""
    arrays = {"x_ptr": graph.x_ptr.copy(), "x_adj": graph.x_adj.copy(),
              "y_ptr": graph.y_ptr.copy(), "y_adj": graph.y_adj.copy()}
    ptr, adj = arrays[f"{side}_ptr"], arrays[f"{side}_adj"]
    lo, hi = int(ptr[row]), int(ptr[row + 1])
    assert hi - lo >= 2, "corruption needs a row with two entries"
    if how == "swap":
        adj[lo], adj[lo + 1] = adj[lo + 1], adj[lo]
    elif how == "duplicate":
        adj[hi - 1] = adj[hi - 2]
    elif how == "redirect":
        # Still sorted and in range, but the other side does not agree.
        other = graph.n_y if side == "x" else graph.n_x
        free = sorted(set(range(other)) - set(adj[lo:hi].tolist()))
        adj[hi - 1] = free[-1]
        adj[lo:hi] = np.sort(adj[lo:hi])
    return arrays


class TestVectorizedValidation:
    """The masked whole-array checks raise exactly what the row loop raised."""

    @pytest.fixture
    def graph(self):
        # Empty rows at both ends and in the middle on both sides, and rows
        # of length >= 2 at the first and last non-empty positions.
        edges = [(1, 1), (1, 2), (1, 5), (3, 0), (3, 5), (5, 2), (5, 4), (5, 6)]
        return from_edges(7, 8, edges)

    @pytest.mark.parametrize("side, row, how", [
        ("x", 1, "swap"), ("x", 1, "duplicate"), ("x", 5, "swap"),
        ("x", 5, "duplicate"), ("x", 3, "swap"),
        ("y", 2, "swap"), ("y", 2, "duplicate"), ("y", 5, "swap"),
        ("y", 5, "duplicate"),
        ("x", 1, "redirect"), ("x", 5, "redirect"), ("y", 5, "redirect"),
    ])
    def test_same_message_as_row_loop(self, graph, side, row, how):
        arrays = _corrupt(graph, side, row, how)
        expected = _reference_error(graph.n_x, graph.n_y, **arrays)
        assert expected is not None
        with pytest.raises(GraphError) as exc:
            BipartiteCSR(graph.n_x, graph.n_y, **arrays)
        assert str(exc.value) == expected
        if how != "redirect":
            assert str(exc.value) == (
                f"adjacency row of {side}={row} is not strictly increasing"
            )

    def test_x_violation_reported_before_y(self, graph):
        arrays = _corrupt(graph, "y", 2, "swap")
        x_arrays = _corrupt(graph, "x", 5, "duplicate")
        arrays["x_adj"] = x_arrays["x_adj"]
        with pytest.raises(GraphError, match=r"^adjacency row of x=5 "):
            BipartiteCSR(graph.n_x, graph.n_y, **arrays)

    def test_first_offending_row_wins(self, graph):
        arrays = _corrupt(graph, "x", 5, "swap")
        arrays["x_adj"][[2, 1]] = arrays["x_adj"][[1, 2]]  # row 1 too
        with pytest.raises(GraphError, match=r"^adjacency row of x=1 "):
            BipartiteCSR(graph.n_x, graph.n_y, **arrays)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_corruptions_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        n_x, n_y = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        keys = rng.choice(n_x * n_y, size=int(rng.integers(2, n_x * n_y)),
                          replace=False)
        # Edges (0, 0), (0, 1), (1, 0) guarantee a two-entry row per side.
        keys = np.concatenate([keys, [0, 1, n_y]])
        graph = from_edges(n_x, n_y, np.column_stack(np.divmod(keys, n_y)))
        side = "x" if rng.random() < 0.5 else "y"
        deg = graph.deg_x if side == "x" else graph.deg_y
        row = int(rng.choice(np.flatnonzero(deg >= 2)))
        how = ["swap", "duplicate", "redirect"][int(rng.integers(3))]
        if how == "redirect" and deg[row] == (n_y if side == "x" else n_x):
            how = "swap"  # a full row has no free target to redirect to
        arrays = _corrupt(graph, side, row, how)
        expected = _reference_error(n_x, n_y, **arrays)
        with pytest.raises(GraphError) as exc:
            BipartiteCSR(n_x, n_y, **arrays)
        assert str(exc.value) == expected
