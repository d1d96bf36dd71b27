import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.btf import block_triangular_form, structural_rank
from repro.core.driver import ms_bfs_graft
from repro.graph.builder import from_edges, to_scipy_sparse
from repro.graph.generators import planted_matching, random_bipartite


def btf_of(graph):
    result = ms_bfs_graft(graph, emit_trace=False)
    return result.matching, block_triangular_form(graph, result.matching)


class TestPermutations:
    def test_valid_permutations(self):
        g = random_bipartite(15, 12, 60, seed=0)
        _, btf = btf_of(g)
        assert sorted(btf.row_perm.tolist()) == list(range(15))
        assert sorted(btf.col_perm.tolist()) == list(range(12))

    def test_structural_rank(self):
        g = planted_matching(10, extra_edges=5, seed=1)
        m = ms_bfs_graft(g, emit_trace=False).matching
        assert structural_rank(g, m) == 10


class TestSquareBTF:
    def _permuted_dense(self, graph, btf):
        dense = to_scipy_sparse(graph).toarray()
        return dense[np.ix_(btf.row_perm, btf.col_perm)]

    def test_nonzero_diagonal(self):
        g = planted_matching(20, extra_edges=40, seed=2)
        _, btf = btf_of(g)
        permuted = self._permuted_dense(g, btf)
        assert np.all(np.diag(permuted) != 0)

    def test_block_upper_triangular(self):
        g = planted_matching(25, extra_edges=25, seed=3)
        matching, btf = btf_of(g)
        permuted = self._permuted_dense(g, btf)
        bounds = btf.block_boundaries
        # Entries strictly below the diagonal blocks must be zero.
        for bi in range(btf.num_square_blocks):
            lo, hi = bounds[bi], bounds[bi + 1]
            below = permuted[hi:, lo:hi]
            assert not below.any(), f"nonzero below block {bi}"

    def test_triangular_matrix_gives_n_blocks(self):
        # A lower-triangular pattern permuted by BTF: every SCC is a single
        # vertex, so there are n 1x1 blocks.
        n = 8
        edges = [(i, j) for i in range(n) for j in range(i + 1)]
        g = from_edges(n, n, edges)
        _, btf = btf_of(g)
        assert btf.num_square_blocks == n

    def test_fully_coupled_matrix_single_block(self):
        # A cycle pattern: x_i ~ y_i and y_{(i+1) mod n} -> one big SCC.
        n = 6
        edges = [(i, i) for i in range(n)] + [(i, (i + 1) % n) for i in range(n)]
        g = from_edges(n, n, edges)
        _, btf = btf_of(g)
        assert btf.num_square_blocks == 1

    @given(n=st.integers(2, 12), extra=st.integers(0, 30), seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_btf_property_square_full_rank(self, n, extra, seed):
        g = planted_matching(n, extra_edges=extra, seed=seed)
        matching, btf = btf_of(g)
        permuted = self._permuted_dense(g, btf)
        assert np.all(np.diag(permuted) != 0)
        bounds = btf.block_boundaries
        for bi in range(btf.num_square_blocks):
            lo, hi = bounds[bi], bounds[bi + 1]
            assert not permuted[hi:, lo:hi].any()


class TestRectangularBTF:
    def test_wide_matrix(self):
        g = random_bipartite(6, 10, 30, seed=5)
        _, btf = btf_of(g)
        assert sorted(btf.row_perm.tolist()) == list(range(6))
        assert sorted(btf.col_perm.tolist()) == list(range(10))

    def test_isolated_vertices_placed(self):
        g = from_edges(4, 4, [(0, 0)])  # three isolated rows/cols
        _, btf = btf_of(g)
        assert sorted(btf.row_perm.tolist()) == list(range(4))
        assert sorted(btf.col_perm.tolist()) == list(range(4))
