"""The vectorized parallel Karp-Sipser is bit-identical to the per-vertex loop.

``_reference_karp_sipser_parallel`` below is the former implementation,
kept verbatim in its logic: it scans rows and draws random proposals one
vertex at a time. The production version does the same rounds with bulk
array operations. On every differential instance, round cap, seed and
start, both must return the same mates, the same counters, and leave a
shared generator in the same state — so cached warm starts and every
pinned trajectory seeded from this initializer stay valid.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.csr import INDEX_DTYPE
from repro.instrument.counters import Counters
from repro.matching.base import Matching, init_matching
from repro.matching.greedy import greedy_matching
from repro.matching.karp_sipser_parallel import _free_target, karp_sipser_parallel
from repro.util.rng import as_rng
from tests.matching.test_differential import CASES

ROUND_CAPS = (None, 0, 1, 2)
SEEDS = (0, 7)


def _reference_karp_sipser_parallel(graph, initial=None, *, seed=0, max_degree_one_rounds=None):
    """The per-vertex implementation: returns ``(matching, counters)``."""
    rng = as_rng(seed)
    matching = init_matching(graph, initial)
    counters = Counters()
    n_x, n_y = graph.n_x, graph.n_y
    x_ptr, x_adj = graph.x_ptr, graph.x_adj
    y_ptr, y_adj = graph.y_ptr, graph.y_adj
    mate_x, mate_y = matching.mate_x, matching.mate_y
    free_x = mate_x == -1
    free_y = mate_y == -1
    src_x = np.repeat(np.arange(n_x, dtype=INDEX_DTYPE), np.diff(x_ptr))
    src_y = np.repeat(np.arange(n_y, dtype=INDEX_DTYPE), np.diff(y_ptr))
    edges = 0

    def residual_degrees():
        nonlocal edges
        deg_x = np.zeros(n_x, dtype=np.int64)
        np.add.at(deg_x, src_x, free_y[x_adj].astype(np.int64))
        deg_y = np.zeros(n_y, dtype=np.int64)
        np.add.at(deg_y, src_y, free_x[y_adj].astype(np.int64))
        deg_x[~free_x] = 0
        deg_y[~free_y] = 0
        edges += graph.num_directed_edges
        return deg_x, deg_y

    def first_free_neighbor(ptr, adj, free, vs):
        out = np.full(vs.shape[0], -1, dtype=INDEX_DTYPE)
        for i, v in enumerate(vs):
            row = adj[ptr[v] : ptr[v + 1]]
            hits = row[free[row]]
            if hits.size:
                out[i] = hits[0]
        return out

    def resolve(proposers, targets):
        if proposers.size == 0:
            return np.empty(0, dtype=np.int64)
        priority = rng.permutation(proposers.shape[0])
        order = np.argsort(targets[priority], kind="stable")
        t_sorted = targets[priority][order]
        keep = np.ones(t_sorted.shape[0], dtype=bool)
        keep[1:] = t_sorted[1:] != t_sorted[:-1]
        return priority[order][keep]

    while True:
        deg_x, deg_y = residual_degrees()
        progressed = False
        rounds = 0
        while True:
            if max_degree_one_rounds is not None and rounds >= max_degree_one_rounds:
                break
            ones_x = np.flatnonzero(free_x & (deg_x == 1))
            ones_y = np.flatnonzero(free_y & (deg_y == 1))
            if ones_x.size == 0 and ones_y.size == 0:
                break
            rounds += 1
            tx = first_free_neighbor(x_ptr, x_adj, free_y, ones_x)
            ty = first_free_neighbor(y_ptr, y_adj, free_x, ones_y)
            edges += int(ones_x.size + ones_y.size)
            px = np.concatenate([ones_x[tx != -1], ty[ty != -1]])
            py = np.concatenate([tx[tx != -1], ones_y[ty != -1]])
            if px.size == 0:
                break
            win = resolve(px, py)
            wx, wy = px[win], py[win]
            _, first = np.unique(wx, return_index=True)
            wx, wy = wx[first], wy[first]
            still = free_x[wx] & free_y[wy]
            wx, wy = wx[still], wy[still]
            if wx.size == 0:
                break
            mate_x[wx] = wy
            mate_y[wy] = wx
            free_x[wx] = False
            free_y[wy] = False
            progressed = True
            deg_x, deg_y = residual_degrees()

        candidates = np.flatnonzero(free_x & (deg_x > 0))
        if candidates.size == 0:
            if not progressed:
                break
            continue
        proposals = np.full(candidates.shape[0], -1, dtype=INDEX_DTYPE)
        for i, x in enumerate(candidates):
            row = x_adj[x_ptr[x] : x_ptr[x + 1]]
            hits = row[free_y[row]]
            edges += int(row.shape[0])
            if hits.size:
                proposals[i] = hits[rng.integers(0, hits.size)]
        valid = proposals != -1
        px, py = candidates[valid], proposals[valid]
        win = resolve(px, py)
        wx, wy = px[win], py[win]
        mate_x[wx] = wy
        mate_y[wy] = wx
        free_x[wx] = False
        free_y[wy] = False
        counters.phases += 1

    counters.edges_traversed = edges
    return matching, counters


def _partial_start(graph) -> Matching:
    """A valid, non-maximal start: a greedy matching with every other pair
    dropped."""
    start = greedy_matching(graph).matching
    for x, _ in start.pairs()[::2]:
        start.unmatch(x)
    return start


@pytest.mark.parametrize(("name", "builder"), CASES, ids=[c[0] for c in CASES])
def test_bit_identical_to_per_vertex_loop(name, builder):
    graph = builder()
    for start in (None, _partial_start(graph)):
        for cap in ROUND_CAPS:
            for seed in SEEDS:
                ref_rng = np.random.default_rng(seed)
                new_rng = np.random.default_rng(seed)
                ref, ref_counters = _reference_karp_sipser_parallel(
                    graph, start, seed=ref_rng, max_degree_one_rounds=cap
                )
                new = karp_sipser_parallel(
                    graph, start, seed=new_rng, max_degree_one_rounds=cap
                )
                label = "empty" if start is None else "partial"
                where = f"{name} start={label} cap={cap} seed={seed}"
                assert np.array_equal(new.matching.mate_x, ref.mate_x), where
                assert np.array_equal(new.matching.mate_y, ref.mate_y), where
                assert new.counters.phases == ref_counters.phases, where
                assert new.counters.edges_traversed == ref_counters.edges_traversed, where
                assert new_rng.bit_generator.state == ref_rng.bit_generator.state, where


def test_free_target_takes_first_free_in_row_order():
    # Degree-1 proposers have exactly one free neighbour, so the sweep above
    # cannot tell "first" from "any"; pin the helper's contract directly.
    ptr = np.array([0, 3, 3, 5, 7])
    adj = np.array([4, 1, 2, 0, 3, 4, 0])
    free = np.array([False, True, True, False, False])
    rows = np.array([0, 1, 2, 3, 0])
    got, scanned = _free_target(ptr, adj, rows, free)
    assert got.tolist() == [1, -1, -1, -1, 1]
    assert scanned == 3 + 0 + 2 + 2 + 3
