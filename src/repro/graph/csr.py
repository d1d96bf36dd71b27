"""Compressed-sparse-row bipartite graph.

A :class:`BipartiteCSR` stores an undirected bipartite graph
``G = (X ∪ Y, E)`` with ``|X| = n_x`` and ``|Y| = n_y``. X vertices are
numbered ``0 .. n_x-1`` and Y vertices ``0 .. n_y-1`` in their own index
spaces (algorithms never mix the two spaces, which keeps every hot array a
flat numpy vector).

Both adjacency directions are stored:

* ``x_ptr`` / ``x_adj`` — for each x, the sorted Y neighbours (top-down BFS),
* ``y_ptr`` / ``y_adj`` — for each y, the sorted X neighbours (bottom-up BFS
  and tree grafting).

Following the paper (Section IV-B) the edge count ``m`` reported in
experiment tables is the number of *directed* edges, ``2 * nnz``.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.errors import GraphError

INDEX_DTYPE = np.int64
"""Dtype used for all adjacency and pointer arrays."""


class BipartiteCSR:
    """Immutable CSR bipartite graph.

    Instances are normally built with :mod:`repro.graph.builder` or a
    generator from :mod:`repro.graph.generators`; the constructor takes
    ready-made CSR arrays and (by default) validates their consistency.
    """

    __slots__ = (
        "n_x", "n_y", "x_ptr", "x_adj", "y_ptr", "y_adj", "_adj_lists",
        "_deg_x", "_deg_y", "_edge_keys",
    )

    def __init__(
        self,
        n_x: int,
        n_y: int,
        x_ptr: np.ndarray,
        x_adj: np.ndarray,
        y_ptr: np.ndarray,
        y_adj: np.ndarray,
        *,
        validate: bool = True,
    ) -> None:
        self.n_x = int(n_x)
        self.n_y = int(n_y)
        self.x_ptr = np.ascontiguousarray(x_ptr, dtype=INDEX_DTYPE)
        self.x_adj = np.ascontiguousarray(x_adj, dtype=INDEX_DTYPE)
        self.y_ptr = np.ascontiguousarray(y_ptr, dtype=INDEX_DTYPE)
        self.y_adj = np.ascontiguousarray(y_adj, dtype=INDEX_DTYPE)
        self._adj_lists = None  # lazy cache used by repro.matching._common
        self._deg_x = None  # lazy degree-vector caches (deg_x/deg_y props)
        self._deg_y = None
        self._edge_keys = None
        # Freeze the arrays: algorithms share graphs across runs and threads,
        # so accidental mutation would be a hard-to-find bug.
        for arr in (self.x_ptr, self.x_adj, self.y_ptr, self.y_adj):
            arr.setflags(write=False)
        if validate:
            self._validate()

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    @property
    def nnz(self) -> int:
        """Number of undirected edges (nonzeros of the biadjacency matrix)."""
        return int(self.x_adj.shape[0])

    @property
    def num_vertices(self) -> int:
        """``n = n_x + n_y``."""
        return self.n_x + self.n_y

    @property
    def num_directed_edges(self) -> int:
        """``m = 2 * nnz`` — the paper's edge count convention."""
        return 2 * self.nnz

    @property
    def deg_x(self) -> np.ndarray:
        """Cached, read-only X degree vector.

        Every engine run (and the cache's precompute step) needs the full
        degree vectors for the direction cost model; computing ``np.diff``
        once per graph instead of once per run keeps that off the hot path.
        """
        if self._deg_x is None:
            deg = np.diff(self.x_ptr)
            deg.setflags(write=False)
            self._deg_x = deg
        return self._deg_x

    @property
    def deg_y(self) -> np.ndarray:
        """Cached, read-only Y degree vector (see :attr:`deg_x`)."""
        if self._deg_y is None:
            deg = np.diff(self.y_ptr)
            deg.setflags(write=False)
            self._deg_y = deg
        return self._deg_y

    @property
    def edge_keys(self) -> np.ndarray:
        """Cached, read-only row-major edge keys ``x * n_y + y``.

        CSR rows are sorted, so the keys are strictly increasing and one
        ``searchsorted`` answers edge membership for a whole batch of pairs.
        """
        if self._edge_keys is None:
            xs = np.repeat(np.arange(self.n_x, dtype=INDEX_DTYPE), self.deg_x)
            keys = xs * np.int64(self.n_y) + self.x_adj
            keys.setflags(write=False)
            self._edge_keys = keys
        return self._edge_keys

    def degree_x(self, x: int | None = None) -> np.ndarray | int:
        """Degree of X vertex ``x``, or the full degree vector if ``None``."""
        if x is None:
            return self.deg_x
        return int(self.x_ptr[x + 1] - self.x_ptr[x])

    def degree_y(self, y: int | None = None) -> np.ndarray | int:
        """Degree of Y vertex ``y``, or the full degree vector if ``None``."""
        if y is None:
            return self.deg_y
        return int(self.y_ptr[y + 1] - self.y_ptr[y])

    def neighbors_x(self, x: int) -> np.ndarray:
        """Read-only view of the Y neighbours of X vertex ``x``."""
        return self.x_adj[self.x_ptr[x] : self.x_ptr[x + 1]]

    def neighbors_y(self, y: int) -> np.ndarray:
        """Read-only view of the X neighbours of Y vertex ``y``."""
        return self.y_adj[self.y_ptr[y] : self.y_ptr[y + 1]]

    def has_edge(self, x: int, y: int) -> bool:
        """Membership test via binary search on the sorted adjacency row."""
        row = self.neighbors_x(x)
        pos = int(np.searchsorted(row, y))
        return pos < row.shape[0] and int(row[pos]) == y

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate undirected edges as ``(x, y)`` pairs in CSR order."""
        for x in range(self.n_x):
            for y in self.neighbors_x(x):
                yield x, int(y)

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the edge list as parallel ``(xs, ys)`` arrays (copies)."""
        xs = np.repeat(np.arange(self.n_x, dtype=INDEX_DTYPE), np.diff(self.x_ptr))
        return xs, self.x_adj.copy()

    # ------------------------------------------------------------------ #
    # invariants
    # ------------------------------------------------------------------ #

    def _validate(self) -> None:
        if self.n_x < 0 or self.n_y < 0:
            raise GraphError(f"negative vertex counts: n_x={self.n_x}, n_y={self.n_y}")
        if self.x_ptr.shape != (self.n_x + 1,):
            raise GraphError(f"x_ptr has shape {self.x_ptr.shape}, expected ({self.n_x + 1},)")
        if self.y_ptr.shape != (self.n_y + 1,):
            raise GraphError(f"y_ptr has shape {self.y_ptr.shape}, expected ({self.n_y + 1},)")
        for name, ptr, adj in (("x", self.x_ptr, self.x_adj), ("y", self.y_ptr, self.y_adj)):
            if ptr[0] != 0 or ptr[-1] != adj.shape[0]:
                raise GraphError(f"{name}_ptr endpoints inconsistent with {name}_adj length")
            if np.any(np.diff(ptr) < 0):
                raise GraphError(f"{name}_ptr is not non-decreasing")
        if self.x_adj.shape[0] != self.y_adj.shape[0]:
            raise GraphError(
                "x_adj and y_adj disagree on edge count: "
                f"{self.x_adj.shape[0]} != {self.y_adj.shape[0]}"
            )
        if self.x_adj.size and (self.x_adj.min() < 0 or self.x_adj.max() >= self.n_y):
            raise GraphError("x_adj contains out-of-range Y indices")
        if self.y_adj.size and (self.y_adj.min() < 0 or self.y_adj.max() >= self.n_x):
            raise GraphError("y_adj contains out-of-range X indices")
        for name, ptr, adj in (("x", self.x_ptr, self.x_adj), ("y", self.y_ptr, self.y_adj)):
            row = _first_unsorted_row(ptr, adj)
            if row is not None:
                raise GraphError(f"adjacency row of {name}={row} is not strictly increasing")
        # The two directions must describe the same edge set: compare the
        # row-major keys x * n_y + y built from each side. The x-side keys
        # are already sorted (rows checked strictly increasing above).
        ys = np.repeat(np.arange(self.n_y, dtype=INDEX_DTYPE), self.deg_y)
        y_side = np.sort(self.y_adj * np.int64(self.n_y) + ys)
        if not np.array_equal(self.edge_keys, y_side):
            raise GraphError("x-side and y-side adjacency describe different edge sets")

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #

    def transpose(self) -> "BipartiteCSR":
        """Swap the roles of X and Y (rows and columns)."""
        return BipartiteCSR(
            self.n_y, self.n_x, self.y_ptr, self.y_adj, self.x_ptr, self.x_adj, validate=False
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteCSR):
            return NotImplemented
        return (
            self.n_x == other.n_x
            and self.n_y == other.n_y
            and np.array_equal(self.x_ptr, other.x_ptr)
            and np.array_equal(self.x_adj, other.x_adj)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def __repr__(self) -> str:
        return (
            f"BipartiteCSR(n_x={self.n_x}, n_y={self.n_y}, nnz={self.nnz}, "
            f"m={self.num_directed_edges})"
        )


def _first_unsorted_row(ptr: np.ndarray, adj: np.ndarray) -> int | None:
    """First row whose adjacency is not strictly increasing, or ``None``.

    One ``np.diff(adj) <= 0`` over the whole adjacency array; comparisons
    that straddle a row start (``adj[ptr[r] - 1]`` vs ``adj[ptr[r]]``) are
    masked out, and ``searchsorted`` maps the first remaining violation back
    to its row (``side="right"`` skips over empty rows sharing that start).
    """
    bad = np.diff(adj) <= 0
    starts = ptr[1:-1]
    bad[starts[(starts > 0) & (starts < adj.shape[0])] - 1] = False
    hits = np.flatnonzero(bad)
    if not hits.size:
        return None
    return int(np.searchsorted(ptr, hits[0], side="right")) - 1
