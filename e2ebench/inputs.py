"""Seeded benchmark inputs and the scipy oracle.

Every generator here belongs to the benchmark, not to the program: a change
to ``repro.graph.generators`` must not change what the benchmark measures.
Each returns ``(n_x, n_y, xs, ys)`` with distinct ``(x, y)`` pairs sorted
row-major. The oracle is scipy's C Hopcroft-Karp
(``maximum_bipartite_matching``), which shares no code with the engines.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

MESH_COUNT = 3
MESH_SIDE = (125, 155)
MESH_AREA = 140 * 140
"""btf-mesh draws each mesh's row count from ``MESH_SIDE`` and sets the
column count so every mesh has about ``MESH_AREA`` cells: the seed varies
the shape, the work per solve stays comparable."""

ONLINE_N = 2048
ONLINE_DEGREE = 4
ONLINE_BATCH = 32
"""online-edits: vertices per side, edges per vertex, and the inserts (and
deletes) carried by each ``update``."""


def _dedupe(n_x: int, n_y: int, xs: np.ndarray, ys: np.ndarray):
    keys = np.unique(xs.astype(np.int64) * n_y + ys.astype(np.int64))
    return n_x, n_y, keys // n_y, keys % n_y


def rmat(scale: int, edge_factor: int, rng: np.random.Generator):
    """Graph500 R-MAT (a, b, c = 0.57, 0.19, 0.19), duplicates dropped."""
    n = 1 << scale
    m = edge_factor * n
    xs = np.zeros(m, dtype=np.int64)
    ys = np.zeros(m, dtype=np.int64)
    for level in range(scale):
        r = rng.random(m)
        bit = 1 << (scale - 1 - level)
        xs += bit * (r >= 0.38)
        ys += bit * (((r >= 0.57) & (r < 0.76)) | (r >= 0.95))
    return _dedupe(n, n, xs, ys)


def erdos_renyi(n_x: int, n_y: int, nnz: int, rng: np.random.Generator):
    """Exactly ``nnz`` distinct uniformly random edges."""
    keys = np.empty(0, dtype=np.int64)
    while keys.size < nnz:
        draw = rng.integers(0, n_x * n_y, size=nnz - keys.size + nnz // 8 + 16)
        keys = np.union1d(keys, draw)
    keys = np.sort(rng.choice(keys, size=nnz, replace=False))
    return n_x, n_y, keys // n_y, keys % n_y


def _power_law(count: int, mean: float, exponent: float, d_max: int,
               rng: np.random.Generator) -> np.ndarray:
    """Bounded discrete power-law degrees rescaled to about ``mean``."""
    g = 1.0 - exponent
    deg = np.floor((1.0 + rng.random(count) * (d_max ** g - 1.0)) ** (1.0 / g))
    deg = np.maximum(1, np.round(deg * (mean / deg.mean())))
    return np.minimum(deg, d_max).astype(np.int64)


def skewed(n: int, mean: float, exponent: float, rng: np.random.Generator):
    """Power-law rows, columns concentrated by ``rank = n * u**2``."""
    deg = _power_law(n, mean, exponent, n // 2, rng)
    xs = np.repeat(np.arange(n), deg)
    ranks = np.minimum((n * rng.random(xs.size) ** 2).astype(np.int64), n - 1)
    return _dedupe(n, n, xs, rng.permutation(n)[ranks])


def surplus_core(n_core: int, surplus: int, rng: np.random.Generator):
    """Web-like "networks": a perfectly matchable core (planted matching
    plus 3 random edges per row) and ``surplus`` extra rows whose
    power-law-many edges all land in the core, so they stay unmatched."""
    xs = [np.arange(n_core), rng.integers(0, n_core, size=3 * n_core)]
    ys = [rng.permutation(n_core), rng.integers(0, n_core, size=3 * n_core)]
    deg = _power_law(surplus, 3.0, 2.0, n_core // 4, rng)
    xs.append(np.repeat(np.arange(n_core, n_core + surplus), deg))
    ys.append(rng.integers(0, n_core, size=int(deg.sum())))
    return _dedupe(n_core + surplus, n_core, np.concatenate(xs), np.concatenate(ys))


def road(n: int, rng: np.random.Generator):
    """Road-like: 95% of the diagonal, a chain, short-range extras to an
    average degree of 2.5 — long augmenting paths."""
    idx = np.arange(n)
    keep = rng.random(n) < 0.95
    extra = int(2.5 * n) - int(keep.sum()) - (n - 1)
    ex = rng.integers(0, n, size=extra)
    ey = np.clip(ex + rng.integers(-64, 65, size=extra), 0, n - 1)
    xs = np.concatenate([idx[keep], idx[:-1], ex])
    ys = np.concatenate([idx[keep], idx[1:], ey])
    return _dedupe(n, n, xs, ys)


def mesh(rows: int, cols: int):
    """9-point stencil operator of a ``rows x cols`` grid, natural numbering."""
    n = rows * cols
    idx = np.arange(n)
    r, c = idx // cols, idx % cols
    xs, ys = [], []
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            ok = (r + dr >= 0) & (r + dr < rows) & (c + dc >= 0) & (c + dc < cols)
            xs.append(idx[ok])
            ys.append((r[ok] + dr) * cols + c[ok] + dc)
    return _dedupe(n, n, np.concatenate(xs), np.concatenate(ys))


def offline_graphs(seed: int, tiny: bool = False, instance: int = 0) -> list[tuple[str, tuple]]:
    """Instance ``instance`` of the five seeded cold-solve inputs
    (``tiny`` shrinks them for the benchmark's own tests)."""
    rng = np.random.default_rng([seed, 1, instance])
    k = 1 / 32 if tiny else 1.0
    n = int(16384 * k)
    return [
        ("rmat", rmat(9 if tiny else 14, 16, rng)),
        ("er", erdos_renyi(n, n, 6 * n, rng)),
        ("skewed", skewed(n, 6.0, 2.1, rng)),
        ("networks", surplus_core(int(14000 * k), int(8400 * k), rng)),
        ("road", road(int(24000 * k), rng)),
    ]


def mesh_graphs(seed: int, tiny: bool = False) -> list[tuple[str, tuple]]:
    """Three seeded meshes of about equal area and seed-drawn shape."""
    rng = np.random.default_rng([seed, 2])
    lo, hi = (10, 16) if tiny else MESH_SIDE
    area = 13 * 13 if tiny else MESH_AREA
    out = []
    for _ in range(MESH_COUNT):
        rows = int(rng.integers(lo, hi + 1))
        cols = int(round(area / rows))
        out.append((f"mesh{rows}x{cols}", mesh(rows, cols)))
    return out


def write_matrix_market(graph: tuple, path: Path) -> int:
    """Write a pattern MatrixMarket file; returns its size in bytes."""
    n_x, n_y, xs, ys = graph
    body = np.empty(2 * xs.size, dtype=np.int64)
    body[0::2], body[1::2] = xs + 1, ys + 1
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern general\n")
        fh.write(f"{n_x} {n_y} {xs.size}\n")
        fh.write(("%d %d\n" * xs.size) % tuple(body.tolist()))
    return path.stat().st_size


def oracle(graph: tuple) -> tuple[int, float]:
    """Maximum matching cardinality by scipy, and the seconds the matching
    call alone took (the native-code yardstick)."""
    n_x, n_y, xs, ys = graph
    a = csr_matrix((np.ones(xs.size, dtype=np.int8), (xs, ys)), shape=(n_x, n_y))
    t0 = time.perf_counter()
    mate = maximum_bipartite_matching(a, perm_type="column")
    seconds = time.perf_counter() - t0
    return int(np.count_nonzero(mate >= 0)), seconds


class EditStream:
    """The online-edits session: a seeded random graph and its endless
    stream of ``update`` batches, each deleting ``batch`` present edges and
    inserting ``batch`` absent ones (the edge count stays fixed).

    The benchmark keeps its own copy of the edge set here; the same
    ``(seed, stream)`` always yields the same graph and batches.
    """

    def __init__(self, seed: int, stream: int, tiny: bool = False) -> None:
        self.rng = np.random.default_rng([seed, 3, stream])
        self.n = 128 if tiny else ONLINE_N
        self.batch = 8 if tiny else ONLINE_BATCH
        _, _, xs, ys = erdos_renyi(self.n, self.n, ONLINE_DEGREE * self.n, self.rng)
        self.edges = list(zip(xs.tolist(), ys.tolist()))
        self.where = {e: i for i, e in enumerate(self.edges)}

    def initial_edges(self) -> list[tuple[int, int]]:
        return list(self.edges)

    def next_batch(self) -> tuple[list, list]:
        """Apply one batch to the benchmark's copy; returns (inserts, deletes)."""
        picks = self.rng.choice(len(self.edges), size=self.batch, replace=False)
        deletes = [self.edges[i] for i in picks]
        inserts: set[tuple[int, int]] = set()
        while len(inserts) < self.batch:
            e = (int(self.rng.integers(self.n)), int(self.rng.integers(self.n)))
            if e not in self.where:
                inserts.add(e)
        for e in deletes:
            self._remove(e)
        for e in sorted(inserts):
            self.where[e] = len(self.edges)
            self.edges.append(e)
        return sorted(inserts), deletes

    def _remove(self, e: tuple[int, int]) -> None:
        i = self.where.pop(e)
        last = self.edges.pop()
        if i < len(self.edges):
            self.edges[i] = last
            self.where[last] = i

    def graph(self) -> tuple:
        xs, ys = (np.array(v, dtype=np.int64) for v in zip(*self.edges))
        return self.n, self.n, xs, ys
