"""Matching verification: validity, maximality, and maximum certificates.

A result is certified maximum without trusting the algorithm that produced
it. One level-synchronous alternating search — from every free X vertex,
through the frontier's CSR rows to unvisited Y, then through ``mate_y`` to
the next X frontier, one numpy pass per level — yields the reach sets
``reach_x``/``reach_y``. :func:`verify_maximum` runs it once and derives
every check from the same two arrays:

* validity: the mate arrays are mutual inverses and in range, and every
  matched pair is an edge (one ``searchsorted`` over the graph's row-major
  edge keys);
* Berge: the matching is maximum iff no free Y vertex is reached;
* König: unreached matched X plus reached Y is a vertex cover of size
  ``|M|`` (:func:`koenig_vertex_cover`), and every edge is checked covered;
* Hall: ``S = reach_x`` has deficiency ``|S| - |N(S)| = n_x - |M|``
  (:func:`hall_violator`), with ``N(S)`` read from S's own CSR rows and
  compared against ``reach_y`` rather than taken from the search.

This module imports nothing from the engines (``repro.core``,
``repro.matching._common``), so an engine bug cannot certify itself.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import VerificationError
from repro.graph.csr import BipartiteCSR
from repro.matching.base import UNMATCHED, Matching, pairs_are_edges


def is_valid_matching(graph: BipartiteCSR, matching: Matching) -> bool:
    """Mate arrays are mutually consistent and every pair is a graph edge."""
    if matching.n_x != graph.n_x or matching.n_y != graph.n_y:
        return False
    if not matching.is_consistent():
        return False
    return pairs_are_edges(graph, matching)


def assert_valid_matching(graph: BipartiteCSR, matching: Matching) -> None:
    """Raise :class:`VerificationError` unless the matching is valid."""
    if not is_valid_matching(graph, matching):
        raise VerificationError("matching is structurally invalid for this graph")


def _alternating_reachability(
    graph: BipartiteCSR, matching: Matching
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Level-synchronous BFS over alternating paths from all free X vertices.

    Returns ``(reach_x, reach_y, found_augmenting)`` where the reach arrays
    flag vertices reachable by an alternating path that starts with a free
    X vertex (and hence with an unmatched edge). The search runs to
    completion even after a free Y is reached, so the sets are the full
    closure. Assumes a valid matching.
    """
    x_ptr, x_adj, mate_y = graph.x_ptr, graph.x_adj, matching.mate_y
    reach_x = matching.mate_x == UNMATCHED
    reach_y = np.zeros(graph.n_y, dtype=bool)
    frontier = np.flatnonzero(reach_x)
    while frontier.size:
        starts = x_ptr[frontier]
        lens = x_ptr[frontier + 1] - starts
        # Gather the frontier's CSR rows: position i of row r sits at
        # starts[r] + i, i.e. at (starts[r] - row offset) + global index.
        shift = np.repeat(starts - (np.cumsum(lens) - lens), lens)
        ys = x_adj[shift + np.arange(shift.size)]
        new_y = np.sort(ys[~reach_y[ys]])
        if new_y.size > 1:  # a Y seen from several frontier rows enters once
            new_y = new_y[np.concatenate(([True], new_y[1:] != new_y[:-1]))]
        reach_y[new_y] = True
        # A matched X is reached only through its own mate, so the mates of
        # newly reached Y are all unvisited and distinct.
        mates = mate_y[new_y]
        frontier = mates[mates != UNMATCHED]
        reach_x[frontier] = True
    found = bool(np.any(mate_y[reach_y] == UNMATCHED))
    return reach_x, reach_y, found


def _maximum_reach(
    graph: BipartiteCSR, matching: Matching, what: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Reach sets of a valid matching; raises unless it is maximum."""
    assert_valid_matching(graph, matching)
    reach_x, reach_y, found = _alternating_reachability(graph, matching)
    if found:
        raise VerificationError(f"{what} requested for a non-maximum matching")
    return reach_x, reach_y


def is_maximal_matching(graph: BipartiteCSR, matching: Matching) -> bool:
    """No graph edge has both endpoints free."""
    free_x_entries = np.repeat(matching.mate_x == UNMATCHED, graph.deg_x)
    free_y = matching.mate_y == UNMATCHED
    return not bool(np.any(free_x_entries & free_y[graph.x_adj]))


def is_maximum_matching(graph: BipartiteCSR, matching: Matching) -> bool:
    """Valid and admits no augmenting path (Berge's theorem)."""
    if not is_valid_matching(graph, matching):
        return False
    _, _, found_augmenting = _alternating_reachability(graph, matching)
    return not found_augmenting


def _koenig_cover(
    graph: BipartiteCSR, matching: Matching, reach_x: np.ndarray, reach_y: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """König cover from the reach sets, self-checked for size and coverage."""
    in_cover_x = (matching.mate_x != UNMATCHED) & ~reach_x
    cover_x = np.flatnonzero(in_cover_x)
    cover_y = np.flatnonzero(reach_y)
    cover_size = cover_x.size + cover_y.size
    if cover_size != matching.cardinality:
        raise VerificationError(
            f"König cover size {cover_size} != matching cardinality {matching.cardinality}"
        )
    # Self-check: every edge must be covered.
    if not bool(np.all(np.repeat(in_cover_x, graph.deg_x) | reach_y[graph.x_adj])):
        raise VerificationError("König construction failed to cover all edges")
    return cover_x, cover_y


def _hall_witness(
    graph: BipartiteCSR, matching: Matching, reach_x: np.ndarray, reach_y: np.ndarray
) -> np.ndarray:
    """Hall set ``S = reach_x``, self-checked against the defect identity."""
    s = np.flatnonzero(reach_x)
    # N(S) from S's own CSR rows, independent of the search: it must equal
    # the reached Y (every neighbour of a reached x is reached, and every
    # reached y was entered from some reached x).
    neighborhood = np.zeros(graph.n_y, dtype=bool)
    neighborhood[graph.x_adj[np.repeat(reach_x, graph.deg_x)]] = True
    if not np.array_equal(neighborhood, reach_y):
        raise VerificationError("alternating reachability produced an inconsistent N(S)")
    deficiency = int(s.size) - int(np.count_nonzero(neighborhood))
    expected = graph.n_x - matching.cardinality
    if deficiency != expected:
        raise VerificationError(
            f"Hall defect {deficiency} != n_x - |M| = {expected}"
        )
    return s


def koenig_vertex_cover(
    graph: BipartiteCSR, matching: Matching
) -> Tuple[np.ndarray, np.ndarray]:
    """König cover: ``(cover_x, cover_y)`` index arrays.

    For a *maximum* matching, the König construction — matched X vertices
    not reachable by alternating paths from free X vertices, plus reachable
    Y vertices — is a vertex cover of size exactly ``|M|``. Raises
    :class:`VerificationError` if the input matching is invalid or not
    maximum, or if the construction fails its own size or coverage check.
    """
    reach_x, reach_y = _maximum_reach(graph, matching, "König cover")
    return _koenig_cover(graph, matching, reach_x, reach_y)


def hall_violator(graph: BipartiteCSR, matching: Matching) -> np.ndarray:
    """A deficiency witness: a set ``S`` of X vertices with
    ``|S| - |N(S)| = n_x - |M|``.

    By the defect form of Hall's theorem, the maximum matching misses
    exactly ``max_S (|S| - |N(S)|)`` X vertices; the set of X vertices
    reachable by alternating paths from free X vertices attains the
    maximum. Returns the (possibly empty) witness set as an index array and
    self-checks the defect identity; raises
    :class:`~repro.errors.VerificationError` for invalid or non-maximum
    input.
    """
    reach_x, reach_y = _maximum_reach(graph, matching, "Hall violator")
    return _hall_witness(graph, matching, reach_x, reach_y)


def verify_maximum(graph: BipartiteCSR, matching: Matching) -> int:
    """Full certificate check; returns the certified maximum cardinality.

    Validates the matching, runs the alternating search once, confirms it
    reaches no free Y (Berge), and cross-checks the König cover and Hall
    witness built from the same reach sets. Raises
    :class:`VerificationError` on any failure.
    """
    assert_valid_matching(graph, matching)
    reach_x, reach_y, found = _alternating_reachability(graph, matching)
    if found:
        raise VerificationError("matching admits an augmenting path (not maximum)")
    _koenig_cover(graph, matching, reach_x, reach_y)
    _hall_witness(graph, matching, reach_x, reach_y)
    return matching.cardinality
