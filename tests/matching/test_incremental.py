"""Incremental matcher: invariant 'always maximum' under random updates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import ms_bfs_graft
from repro.errors import MatchingError
from repro.graph.generators import random_bipartite
from repro.matching.incremental import IncrementalMatcher
from repro.matching.verify import verify_maximum


def recompute_maximum(matcher: IncrementalMatcher) -> int:
    return ms_bfs_graft(matcher.graph(), emit_trace=False).cardinality


class TestBasicOperations:
    def test_empty_start(self):
        m = IncrementalMatcher(3, 3)
        assert m.cardinality == 0

    def test_single_insert_matches(self):
        m = IncrementalMatcher(2, 2)
        assert m.add_edge(0, 1) is True
        assert m.cardinality == 1

    def test_duplicate_insert_noop(self):
        m = IncrementalMatcher(2, 2)
        m.add_edge(0, 1)
        assert m.add_edge(0, 1) is False
        assert m.cardinality == 1

    def test_insert_middle_edge_augments(self):
        # Regression for the subtle case: the new edge sits in the MIDDLE
        # of the augmenting path, both endpoints already matched.
        m = IncrementalMatcher(3, 3)
        m.add_edge(0, 0)  # x0-y0 matched
        m.add_edge(1, 0)  # x1 blocked (y0 taken)
        m.add_edge(2, 1)  # x2-y1 matched
        m.add_edge(2, 2)
        assert m.cardinality == 2
        # New edge (x1, y1): both endpoints matched... x1 free actually.
        # Force the exact scenario: x1 matched to y0 first.
        m2 = IncrementalMatcher(3, 3)
        m2.add_edge(1, 0)  # x1-y0
        m2.add_edge(0, 0)  # x0 blocked
        m2.add_edge(2, 1)  # x2-y1
        m2.add_edge(2, 2)
        assert m2.cardinality == 2
        assert m2.mate_x[1] == 0 and m2.mate_x[2] in (1, 2)
        grew = m2.add_edge(1, 1)  # middle edge of x0-y0-x1-y1-x2-y2
        assert grew is True
        assert m2.cardinality == 3

    def test_remove_unmatched_edge(self):
        m = IncrementalMatcher(2, 2)
        m.add_edge(0, 0)
        m.add_edge(0, 1)  # unmatched extra edge
        assert m.remove_edge(0, 1) is False
        assert m.cardinality == 1

    def test_remove_matched_edge_with_replacement(self):
        m = IncrementalMatcher(1, 2)
        m.add_edge(0, 0)
        m.add_edge(0, 1)
        shrank = m.remove_edge(0, int(m.mate_x[0]))
        assert shrank is False  # rematched through the other edge
        assert m.cardinality == 1

    def test_remove_matched_edge_without_replacement(self):
        m = IncrementalMatcher(1, 1)
        m.add_edge(0, 0)
        assert m.remove_edge(0, 0) is True
        assert m.cardinality == 0

    def test_remove_absent_edge(self):
        m = IncrementalMatcher(2, 2)
        assert m.remove_edge(0, 0) is False

    def test_out_of_range(self):
        m = IncrementalMatcher(2, 2)
        with pytest.raises(MatchingError):
            m.add_edge(5, 0)

    def test_from_graph(self):
        g = random_bipartite(15, 15, 50, seed=0)
        m = IncrementalMatcher.from_graph(g)
        assert m.cardinality == ms_bfs_graft(g, emit_trace=False).cardinality
        assert m.graph() == g


class TestAlwaysMaximumInvariant:
    @given(
        n=st.integers(2, 10),
        seed=st.integers(0, 500),
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 9), st.integers(0, 9)),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_update_sequences(self, n, seed, ops):
        matcher = IncrementalMatcher(n, n)
        rng = np.random.default_rng(seed)
        # Seed with a few random edges.
        for _ in range(n):
            matcher.add_edge(int(rng.integers(n)), int(rng.integers(n)))
        for insert, x, y in ops:
            x, y = x % n, y % n
            if insert:
                matcher.add_edge(x, y)
            else:
                matcher.remove_edge(x, y)
            assert matcher.cardinality == recompute_maximum(matcher)
        verify_maximum(matcher.graph(), matcher.matching())

    def test_build_then_tear_down(self):
        n = 8
        matcher = IncrementalMatcher(n, n)
        for i in range(n):
            matcher.add_edge(i, i)
        assert matcher.cardinality == n
        for i in range(n):
            assert matcher.remove_edge(i, i) is True
        assert matcher.cardinality == 0


class TestPackedVisitedRepairBFS:
    """Regression tests pinning repair across packed visited-word boundaries.

    The repair is a warm-started MS-BFS-Graft run, whose engines track
    visited Y vertices in bit-packed uint64 words (:mod:`repro.core.bitset`).
    These cases pin the semantics that representation must preserve:
    first-visit-wins parenting across shared words, vertices on both sides
    of a 64-bit word boundary, and exact agreement with from-scratch
    recomputation on instances big enough that many Y indices share a word.
    """

    def test_shared_word_first_visit_wins(self):
        # y0 and y1 share packed word 0; reaching y1 from two different x's
        # in the same level must keep the first parent (the dict version's
        # `if y in parent` guard), or the augmenting-path walk corrupts
        # mate_x. A diamond forces the double reach.
        m = IncrementalMatcher(3, 2)
        m.add_edge(0, 0)   # x0-y0 matched
        m.add_edge(1, 0)   # x1 blocked on y0
        m.add_edge(2, 0)   # x2 also blocked on y0
        assert m.cardinality == 1
        grew = m.add_edge(0, 1)  # opens x1(or x2)-y0-x0-y1
        assert grew is True
        assert m.cardinality == 2
        verify_maximum(m.graph(), m.matching())

    def test_word_boundary_vertices(self):
        # Y vertices 63 and 64 land in different packed words; an
        # off-by-one in the word/bit split would either false-positive
        # (path never found) or false-negative (vertex visited twice).
        n = 70
        m = IncrementalMatcher(n, n)
        for i in (62, 63, 64, 65):
            assert m.add_edge(i, i) is True
        # Chain across the boundary: free x61 -> y63 -> mate x63 -> y64
        # -> mate x64 -> free y66, inserted as one batch.
        stats = m.apply_batch([("insert", 61, 63), ("insert", 63, 64),
                               ("insert", 64, 66)])
        assert stats.augmented == 1
        assert m.cardinality == 5
        verify_maximum(m.graph(), m.matching())

    def test_dense_instance_matches_recompute(self):
        # 130 Y vertices -> 3 packed words, heavily shared; every repair
        # must still agree with a from-scratch maximum.
        g = random_bipartite(130, 130, 700, seed=3)
        m = IncrementalMatcher.from_graph(g)
        rng = np.random.default_rng(9)
        for _ in range(25):
            x, y = int(rng.integers(130)), int(rng.integers(130))
            if m.has_edge(x, y):
                m.remove_edge(x, y)
            else:
                m.add_edge(x, y)
        assert m.cardinality == recompute_maximum(m)
        verify_maximum(m.graph(), m.matching())
