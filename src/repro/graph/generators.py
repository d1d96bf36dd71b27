"""Synthetic bipartite graph generators.

The paper evaluates on three classes of graphs (Table II):

1. **scientific computing & road networks** — near-regular, low-degree,
   matching number close to 1 (``kkt_power``, ``hugetrace``, ``road_usa``,
   ``delaunay``): reproduced here by :func:`grid_bipartite`,
   :func:`road_like` and :func:`planted_matching`;
2. **scale-free** — skewed degrees, moderate matching number
   (``amazon0312``, ``cit-Patents``, ``copapersDBLP``, RMAT): reproduced by
   :func:`rmat_bipartite`, :func:`power_law_bipartite` and
   :func:`community_bipartite`;
3. **web & wiki networks** — very skewed, rectangular-ish, low matching
   number (``wikipedia``, ``web-Google``, ``wb-edu``): reproduced by
   :func:`power_law_bipartite` with many degree-0/1 rows (see
   :mod:`repro.bench.suite`).

All generators are deterministic given a seed and return
:class:`~repro.graph.csr.BipartiteCSR`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.builder import _from_edge_arrays
from repro.graph.csr import INDEX_DTYPE, BipartiteCSR
from repro.util.rng import SeedLike, as_rng


def _sample_distinct_edges(
    n_x: int, n_y: int, nnz: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``nnz`` distinct (x, y) pairs uniformly at random.

    Uses rejection-free sampling when the requested density is high (sample
    the key space without replacement) and oversample-and-unique otherwise.
    """
    total = n_x * n_y
    if nnz > total:
        raise GraphError(f"cannot place {nnz} distinct edges in a {n_x}x{n_y} bipartite graph")
    if total <= 4 * nnz or total < 1 << 20:
        keys = rng.choice(total, size=nnz, replace=False)
    else:
        keys = np.unique(rng.integers(0, total, size=int(nnz * 1.2) + 16))
        while keys.shape[0] < nnz:
            extra = rng.integers(0, total, size=nnz)
            keys = np.unique(np.concatenate([keys, extra]))
        keys = rng.permutation(keys)[:nnz]
    xs = (keys // n_y).astype(INDEX_DTYPE)
    ys = (keys % n_y).astype(INDEX_DTYPE)
    return xs, ys


def random_bipartite(n_x: int, n_y: int, nnz: int, seed: SeedLike = None) -> BipartiteCSR:
    """Erdős–Rényi style ``G(n_x, n_y, m)``: exactly ``nnz`` distinct edges."""
    rng = as_rng(seed)
    xs, ys = _sample_distinct_edges(n_x, n_y, nnz, rng)
    return _from_edge_arrays(n_x, n_y, xs, ys, validate=False)


def random_bipartite_gnp(n_x: int, n_y: int, p: float, seed: SeedLike = None) -> BipartiteCSR:
    """Erdős–Rényi ``G(n_x, n_y, p)``: each edge present independently."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {p}")
    rng = as_rng(seed)
    nnz = rng.binomial(n_x * n_y, p)
    return random_bipartite(n_x, n_y, int(nnz), rng)


def rmat_bipartite(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: SeedLike = None,
) -> BipartiteCSR:
    """RMAT generator with Graph500 default parameters.

    Generates ``edge_factor * 2**scale`` edge samples in a ``2**scale`` square
    biadjacency matrix by recursive quadrant selection, then deduplicates —
    the same construction the paper uses for its RMAT instance (Section
    IV-B). ``d = 1 - a - b - c``.
    """
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise GraphError(f"RMAT probabilities must be non-negative: a={a} b={b} c={c} d={d}")
    n = 1 << scale
    m = edge_factor * n
    rng = as_rng(seed)
    rows = np.zeros(m, dtype=INDEX_DTYPE)
    cols = np.zeros(m, dtype=INDEX_DTYPE)
    for level in range(scale):
        r = rng.random(m)
        # Quadrant thresholds: [a, a+b, a+b+c, 1].
        go_down = r >= a + b  # row bit set (quadrants c, d)
        go_right = (r >= a) & (r < a + b) | (r >= a + b + c)  # col bit (b, d)
        bit = INDEX_DTYPE(1 << (scale - 1 - level))
        rows += bit * go_down
        cols += bit * go_right
    return _from_edge_arrays(n, n, rows, cols, validate=False)


def grid_bipartite(rows: int, cols: int, *, stencil: int = 5) -> BipartiteCSR:
    """Bipartite graph of a ``rows x cols`` grid operator (scientific class).

    X vertex ``i`` = matrix row ``i``, Y vertex ``j`` = matrix column ``j``;
    edges follow a 5- or 9-point stencil including the diagonal, which gives
    structural full rank (perfect matching exists) — the ``kkt_power`` /
    ``hugetrace`` class stand-in.
    """
    if stencil not in (5, 9):
        raise GraphError(f"stencil must be 5 or 9, got {stencil}")
    n = rows * cols
    idx = np.arange(n, dtype=INDEX_DTYPE)
    r = idx // cols
    c = idx % cols
    offsets = [(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)]
    if stencil == 9:
        offsets += [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    xs_parts = []
    ys_parts = []
    for dr, dc in offsets:
        rr = r + dr
        cc = c + dc
        ok = (rr >= 0) & (rr < rows) & (cc >= 0) & (cc < cols)
        xs_parts.append(idx[ok])
        ys_parts.append((rr[ok] * cols + cc[ok]).astype(INDEX_DTYPE))
    xs = np.concatenate(xs_parts)
    ys = np.concatenate(ys_parts)
    return _from_edge_arrays(n, n, xs, ys, validate=False)


def road_like(
    n: int,
    *,
    avg_degree: float = 2.5,
    diagonal_fraction: float = 0.92,
    seed: SeedLike = None,
) -> BipartiteCSR:
    """Road-network-like square instance: very low degree, long paths.

    Starts from a near-1D chain structure (like a road skeleton), keeps a
    ``diagonal_fraction`` of the (i, i) entries, and adds random short-range
    off-diagonals up to the target average degree. Long augmenting paths and
    a matching number below 1 emulate ``road_usa``/``road_central``.
    """
    if n < 2:
        raise GraphError("road_like needs n >= 2")
    rng = as_rng(seed)
    idx = np.arange(n, dtype=INDEX_DTYPE)
    keep = rng.random(n) < diagonal_fraction
    xs_parts = [idx[keep]]
    ys_parts = [idx[keep]]
    # Chain edges (i, i+1) emulate road segments.
    xs_parts.append(idx[:-1])
    ys_parts.append(idx[1:])
    extra = max(0, int(avg_degree * n) - int(keep.sum()) - (n - 1))
    if extra:
        ex = rng.integers(0, n, size=extra).astype(INDEX_DTYPE)
        # Short-range connections, as in near-planar road graphs.
        span = rng.integers(-64, 65, size=extra)
        ey = np.clip(ex + span, 0, n - 1).astype(INDEX_DTYPE)
        xs_parts.append(ex)
        ys_parts.append(ey)
    xs = np.concatenate(xs_parts)
    ys = np.concatenate(ys_parts)
    return _from_edge_arrays(n, n, xs, ys, validate=False)


def _power_law_degrees(
    count: int, avg_degree: float, exponent: float, rng: np.random.Generator, d_max: int
) -> np.ndarray:
    """Sample a bounded discrete power-law degree sequence with given mean.

    Degrees are drawn from ``P(d) ∝ d^-exponent`` on ``[1, d_max]`` via
    inverse-CDF sampling, then rescaled (by random add/remove) to hit the
    requested average exactly in expectation.
    """
    u = rng.random(count)
    if abs(exponent - 1.0) < 1e-9:
        deg = np.exp(u * np.log(d_max))
    else:
        g = 1.0 - exponent
        deg = (1.0 + u * (d_max**g - 1.0)) ** (1.0 / g)
    deg = np.floor(deg).astype(np.int64)
    # Scale multiplicatively towards the target mean, keeping min degree 1.
    current = deg.mean()
    if current > 0:
        deg = np.maximum(1, np.round(deg * (avg_degree / current)).astype(np.int64))
    return np.minimum(deg, d_max)


def power_law_bipartite(
    n_x: int,
    n_y: int,
    avg_degree: float = 8.0,
    exponent: float = 2.1,
    *,
    isolated_fraction: float = 0.0,
    column_skew: float = 2.0,
    seed: SeedLike = None,
) -> BipartiteCSR:
    """Power-law bipartite graph (scale-free / web class stand-in).

    Row degrees follow a bounded power law. Each edge's column endpoint has
    rank ``floor(n_y * u**column_skew)`` over a hidden random permutation of
    Y (``u`` uniform), so column degrees are skewed too: ``column_skew=1``
    is uniform, larger values concentrate mass on few columns.
    ``isolated_fraction`` of the X vertices get degree 0, which (together
    with ``n_x != n_y``) drives the matching number down — the
    ``wikipedia`` / ``wb-edu`` regime.
    """
    if column_skew < 1.0:
        raise GraphError(f"column_skew must be >= 1, got {column_skew}")
    rng = as_rng(seed)
    deg = _power_law_degrees(n_x, avg_degree, exponent, rng, d_max=max(4, n_y // 2))
    if isolated_fraction > 0:
        iso = rng.random(n_x) < isolated_fraction
        deg[iso] = 0
    total = int(deg.sum())
    xs = np.repeat(np.arange(n_x, dtype=INDEX_DTYPE), deg)
    ranks = np.minimum(
        (n_y * rng.random(total) ** column_skew).astype(INDEX_DTYPE), n_y - 1
    )
    perm = rng.permutation(n_y).astype(INDEX_DTYPE)
    ys = perm[ranks]
    return _from_edge_arrays(n_x, n_y, xs, ys, validate=False)


def community_bipartite(
    communities: int,
    community_size: int,
    *,
    intra_degree: float = 10.0,
    inter_degree: float = 1.0,
    seed: SeedLike = None,
) -> BipartiteCSR:
    """Clustered bipartite graph (``copapersDBLP`` / collaboration stand-in).

    X and Y are split into ``communities`` aligned blocks; each X vertex
    draws ``intra_degree`` endpoints inside its own block and
    ``inter_degree`` endpoints anywhere.
    """
    n = communities * community_size
    rng = as_rng(seed)
    intra = rng.poisson(intra_degree, size=n)
    inter = rng.poisson(inter_degree, size=n)
    xs_parts = []
    ys_parts = []
    idx = np.arange(n, dtype=INDEX_DTYPE)
    block = idx // community_size
    xs_parts.append(np.repeat(idx, intra))
    base = np.repeat(block * community_size, intra)
    ys_parts.append(base + rng.integers(0, community_size, size=int(intra.sum())))
    xs_parts.append(np.repeat(idx, inter))
    ys_parts.append(rng.integers(0, n, size=int(inter.sum())).astype(INDEX_DTYPE))
    xs = np.concatenate(xs_parts).astype(INDEX_DTYPE)
    ys = np.concatenate(ys_parts).astype(INDEX_DTYPE)
    return _from_edge_arrays(n, n, xs, ys, validate=False)


def planted_matching(
    n: int, extra_edges: int = 0, seed: SeedLike = None, *, shuffle: bool = True
) -> BipartiteCSR:
    """Square graph with a planted perfect matching plus random extra edges.

    The planted matching is a random permutation (or the identity when
    ``shuffle=False``), so the graph always has matching number exactly 1.0.
    Heavily used in tests: any maximum matching algorithm must find ``n``.
    """
    rng = as_rng(seed)
    perm = rng.permutation(n).astype(INDEX_DTYPE) if shuffle else np.arange(n, dtype=INDEX_DTYPE)
    xs_parts = [np.arange(n, dtype=INDEX_DTYPE)]
    ys_parts = [perm]
    if extra_edges:
        xs_parts.append(rng.integers(0, n, size=extra_edges).astype(INDEX_DTYPE))
        ys_parts.append(rng.integers(0, n, size=extra_edges).astype(INDEX_DTYPE))
    return _from_edge_arrays(
        n, n, np.concatenate(xs_parts), np.concatenate(ys_parts), validate=False
    )


def surplus_core_bipartite(
    n_core: int,
    surplus: int,
    *,
    core_degree: float = 4.0,
    surplus_degree: float = 3.0,
    exponent: float = 2.0,
    seed: SeedLike = None,
) -> BipartiteCSR:
    """Web/wiki-like instance: a matchable core plus surplus X vertices.

    The Y side has ``n_core`` vertices; the X side has ``n_core + surplus``.
    The first ``n_core`` X vertices form a *core* with a planted perfect
    matching plus ER extra edges (always perfectly matchable); the
    ``surplus`` X vertices attach power-law-many edges into core Y vertices
    and can never all be matched (the Y side saturates), yet their
    alternating search trees reach deep into the core.

    This is the structure behind the paper's class-3 behaviour: the maximum
    matching leaves many X vertices unmatched, and multi-source algorithms
    without grafting rebuild each of those vertices' giant failed trees in
    every phase (Section I: "MS algorithms cannot discard search trees
    failing to discover augmenting paths and have to reconstruct them many
    times"). Matching fraction = 2*n_core / (2*n_core + surplus).
    """
    if n_core < 1 or surplus < 0:
        raise GraphError(f"invalid sizes: n_core={n_core}, surplus={surplus}")
    rng = as_rng(seed)
    n_x = n_core + surplus
    perm = rng.permutation(n_core).astype(INDEX_DTYPE)
    xs_parts = [np.arange(n_core, dtype=INDEX_DTYPE)]
    ys_parts = [perm]
    extra = max(0, int((core_degree - 1.0) * n_core))
    if extra:
        xs_parts.append(rng.integers(0, n_core, size=extra).astype(INDEX_DTYPE))
        ys_parts.append(rng.integers(0, n_core, size=extra).astype(INDEX_DTYPE))
    if surplus:
        deg = _power_law_degrees(surplus, surplus_degree, exponent, rng, d_max=max(4, n_core // 4))
        xs_parts.append(
            np.repeat(np.arange(n_core, n_x, dtype=INDEX_DTYPE), deg)
        )
        ys_parts.append(rng.integers(0, n_core, size=int(deg.sum())).astype(INDEX_DTYPE))
    return _from_edge_arrays(
        n_x, n_core, np.concatenate(xs_parts), np.concatenate(ys_parts), validate=False
    )


def chain_graph(k: int) -> BipartiteCSR:
    """Path ``x_0 - y_0 - x_1 - y_1 - ... - x_{k-1} - y_{k-1}``.

    The canonical long-augmenting-path stress case: a greedy matching that
    picks alternating edges forces augmenting paths of length Θ(k).
    """
    if k < 1:
        raise GraphError("chain_graph needs k >= 1")
    xs = np.concatenate([np.arange(k), np.arange(1, k)]).astype(INDEX_DTYPE)
    ys = np.concatenate([np.arange(k), np.arange(k - 1)]).astype(INDEX_DTYPE)
    return _from_edge_arrays(k, k, xs, ys, validate=False)


def complete_bipartite(n_x: int, n_y: int) -> BipartiteCSR:
    """Complete bipartite graph ``K_{n_x, n_y}``."""
    xs = np.repeat(np.arange(n_x, dtype=INDEX_DTYPE), n_y)
    ys = np.tile(np.arange(n_y, dtype=INDEX_DTYPE), n_x)
    return _from_edge_arrays(n_x, n_y, xs, ys, validate=False)


def crown_graph(n: int) -> BipartiteCSR:
    """``K_{n,n}`` minus the identity matching.

    Has a perfect matching for ``n >= 2`` but no edge ``(i, i)`` — a classic
    adversarial case for greedy initialisers.
    """
    if n < 2:
        raise GraphError("crown_graph needs n >= 2")
    xs = np.repeat(np.arange(n, dtype=INDEX_DTYPE), n - 1)
    ys = np.concatenate(
        [np.delete(np.arange(n, dtype=INDEX_DTYPE), i) for i in range(n)]
    )
    return _from_edge_arrays(n, n, xs, ys, validate=False)
