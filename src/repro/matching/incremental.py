"""Incremental (dynamic) maximum matching.

Downstream users of BTF/structural-rank pipelines often edit the matrix
pattern a few entries at a time (circuit edits, symbolic factorisation
updates) and need the maximum matching maintained without recomputing it
from scratch. The online matching daemon (:mod:`repro.service.online`)
streams such edits in batches.

:class:`IncrementalMatcher` stores the graph as one sorted ``int64`` array
of row-major edge keys ``x * n_y + y`` (the CSR graph is immutable by
design) plus numpy ``mate_x``/``mate_y`` arrays. :meth:`IncrementalMatcher.
apply_batch` applies a batch of inserts/deletes structurally, in order —
deleting a matched edge unmatches it, so the matching stays valid — and
splices the batch's net changes into the key array. It then repairs
optimality with one warm-started :func:`~repro.core.driver.ms_bfs_graft`
run from the surviving matching. MS-BFS-Graft runs from any valid initial
matching (the paper starts it from Karp-Sipser, Section II-B); here it
starts from a matching that was maximum before the batch, so each phase is
one multi-source BFS that augments a maximal set of vertex-disjoint paths
and a batch of B updates costs ``O(paths + 1)`` phases instead of ``O(B)``
searches — the regime the online augmenting-path literature (PAPERS.md:
*A Tight Bound for Shortest Augmenting Paths on Trees*) studies.

There is no private alternating search here: the repair is the engines'
phase loop, and its last (empty) phase certifies the result maximum by
Berge's theorem. Every public operation keeps the invariant "current
matching is maximum for the current graph", which the differential tests
check against scipy on an independent copy of the edge set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.driver import ms_bfs_graft
from repro.errors import MatchingError
from repro.graph.builder import _from_edge_arrays
from repro.graph.csr import INDEX_DTYPE, BipartiteCSR
from repro.matching.base import UNMATCHED, Matching

INSERT = "insert"
DELETE = "delete"
_OP_ALIASES = {
    INSERT: INSERT, "+": INSERT, "add": INSERT,
    DELETE: DELETE, "-": DELETE, "remove": DELETE, "del": DELETE,
}


@dataclass(frozen=True)
class BatchRepairStats:
    """What one :meth:`IncrementalMatcher.apply_batch` call did.

    ``augmented`` and ``bfs_rounds`` are the repair run's
    ``counters.augmentations`` and ``counters.phases``: one round is one
    MS-BFS-Graft phase (a multi-source BFS sweep), including the final
    empty phase that certifies maximality.
    """

    inserted: int
    deleted: int
    skipped: int
    freed: int
    augmented: int
    bfs_rounds: int
    cardinality: int

    def to_dict(self) -> dict:
        return {
            "inserted": self.inserted, "deleted": self.deleted,
            "skipped": self.skipped, "freed": self.freed,
            "augmented": self.augmented, "bfs_rounds": self.bfs_rounds,
            "cardinality": self.cardinality,
        }


class IncrementalMatcher:
    """Maximum matching maintained under edge insertions and deletions."""

    def __init__(self, n_x: int, n_y: int) -> None:
        if n_x < 0 or n_y < 0:
            raise MatchingError(f"negative vertex counts: ({n_x}, {n_y})")
        self.n_x = n_x
        self.n_y = n_y
        self._keys = np.empty(0, dtype=INDEX_DTYPE)
        self.mate_x = np.full(n_x, UNMATCHED, dtype=INDEX_DTYPE)
        self.mate_y = np.full(n_y, UNMATCHED, dtype=INDEX_DTYPE)

    @classmethod
    def from_graph(cls, graph: BipartiteCSR) -> "IncrementalMatcher":
        """Start from an existing graph (matching computed from scratch)."""
        matcher = cls(graph.n_x, graph.n_y)
        matcher._keys = graph.edge_keys
        matcher._adopt(ms_bfs_graft(graph, emit_trace=False).matching)
        return matcher

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def cardinality(self) -> int:
        return int(np.count_nonzero(self.mate_x != UNMATCHED))

    @property
    def edge_count(self) -> int:
        return int(self._keys.size)

    def has_edge(self, x: int, y: int) -> bool:
        self._check(x, y)
        return bool(self._contains(np.array([x * self.n_y + y]))[0])

    def matching(self) -> Matching:
        """Snapshot of the current matching."""
        return Matching(self.n_x, self.n_y, self.mate_x.copy(), self.mate_y.copy())

    def _edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.divmod(self._keys, max(self.n_y, 1))

    def edge_list(self) -> List[Tuple[int, int]]:
        """Canonical edge list of the current graph, sorted by ``(x, y)``."""
        xs, ys = self._edge_arrays()
        return list(zip(xs.tolist(), ys.tolist()))

    def graph(self) -> BipartiteCSR:
        """Snapshot of the current graph as an immutable (validated) CSR."""
        xs, ys = self._edge_arrays()
        return _from_edge_arrays(self.n_x, self.n_y, xs, ys)

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #

    def add_edge(self, x: int, y: int) -> bool:
        """Insert edge (x, y); returns True if the matching grew."""
        before = self.cardinality
        return self.apply_batch([(INSERT, x, y)]).cardinality > before

    def remove_edge(self, x: int, y: int) -> bool:
        """Delete edge (x, y); returns True if the matching shrank."""
        before = self.cardinality
        return self.apply_batch([(DELETE, x, y)]).cardinality < before

    def apply_batch(
        self,
        updates: Iterable[Sequence],
        *,
        deadline: Optional[object] = None,
    ) -> BatchRepairStats:
        """Apply a batch of updates, then repair optimality once.

        ``updates`` is an iterable of ``(op, x, y)`` with ``op`` one of
        ``"insert"``/``"+"``/``"add"`` or ``"delete"``/``"-"``/``"remove"``/
        ``"del"``. Updates apply *in order*: an insert-then-delete of one
        edge nets out to absent, and an op that finds its edge already
        present (insert) or absent (delete) is counted as skipped. Deleting
        a matched edge unmatches it when that op applies (``freed``). The
        whole batch is checked before anything changes, so a malformed
        entry raises :class:`~repro.errors.MatchingError` with the graph
        untouched.

        ``deadline`` is an optional cooperative :class:`~repro.core.options.
        Deadline`, checked by the repair at every phase boundary. On expiry
        the structural updates are applied and the matching is the valid
        (possibly non-maximum) one the repair started from; callers retrying
        after :class:`~repro.errors.DeadlineExceeded` re-repair with
        :meth:`repair`.
        """
        ops: List[bool] = []
        keys: List[int] = []
        for entry in updates:
            try:
                op_raw, x, y = entry
            except (TypeError, ValueError):
                raise MatchingError(
                    f"batch update must be (op, x, y), got {entry!r}"
                ) from None
            op = _OP_ALIASES.get(str(op_raw).lower())
            if op is None:
                raise MatchingError(
                    f"unknown batch op {op_raw!r}; use 'insert' or 'delete'"
                )
            x, y = int(x), int(y)
            self._check(x, y)
            ops.append(op == INSERT)
            keys.append(x * self.n_y + y)

        present = self._contains(np.asarray(keys, dtype=INDEX_DTYPE))
        inserted = deleted = skipped = freed = 0
        state: Dict[int, bool] = {}
        for is_insert, key, was in zip(ops, keys, present.tolist()):
            if state.get(key, was) == is_insert:
                skipped += 1
                continue
            state[key] = is_insert
            if is_insert:
                inserted += 1
                continue
            deleted += 1
            x, y = divmod(key, self.n_y)
            if self.mate_x[x] == y:
                self.mate_x[x] = UNMATCHED
                self.mate_y[y] = UNMATCHED
                freed += 1

        if state:
            net = np.fromiter(state, dtype=INDEX_DTYPE, count=len(state))
            now = np.fromiter(state.values(), dtype=bool, count=len(state))
            was = self._contains(net)
            drops = net[was & ~now]
            self._keys = np.delete(self._keys, np.searchsorted(self._keys, drops))
            adds = np.sort(net[now & ~was])
            self._keys = np.insert(self._keys, np.searchsorted(self._keys, adds), adds)

        result = ms_bfs_graft(
            self.graph(), self.matching(), emit_trace=False, deadline=deadline
        )
        self._adopt(result.matching)
        return BatchRepairStats(
            inserted=inserted, deleted=deleted, skipped=skipped, freed=freed,
            augmented=result.counters.augmentations,
            bfs_rounds=result.counters.phases,
            cardinality=self.cardinality,
        )

    def repair(self, *, deadline: Optional[object] = None) -> BatchRepairStats:
        """Re-run the repair phase alone (e.g. after a deadline expiry)."""
        return self.apply_batch((), deadline=deadline)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _adopt(self, matching: Matching) -> None:
        self.mate_x, self.mate_y = matching.mate_x, matching.mate_y

    def _contains(self, keys: np.ndarray) -> np.ndarray:
        """Membership of each edge key in the sorted key array."""
        pos = np.searchsorted(self._keys, keys)
        hit = pos < self._keys.size
        hit[hit] = self._keys[pos[hit]] == keys[hit]
        return hit

    def _check(self, x: int, y: int) -> None:
        if not (0 <= x < self.n_x and 0 <= y < self.n_y):
            raise MatchingError(f"edge ({x}, {y}) out of range")
