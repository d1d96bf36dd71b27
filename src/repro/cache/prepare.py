"""Prepared-graph model and the builders the cache wraps.

A *prepared graph* is everything the engines need to start matching
without touching the ingest pipeline again: the validated CSR (both
orientations), the degree vectors, and — per initialiser seed — the
Karp-Sipser warm-start matching the experiment suite begins from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

from repro.graph.csr import BipartiteCSR

PREPARED_ARRAYS = ("x_ptr", "x_adj", "y_ptr", "y_adj", "deg_x", "deg_y")
"""Array names persisted for every cache entry, in meta.json order."""

LAYOUT_ARRAYS = PREPARED_ARRAYS + ("x_perm", "y_perm")
"""Array names persisted for derived layout entries: the permuted CSR
plus the permutation pair needed to map matchings back to the parent
graph's numbering."""


@dataclass
class PreparedGraph:
    """One prepared graph, whether freshly built or cache-loaded."""

    graph: BipartiteCSR
    key: str
    from_cache: bool
    """True iff this was a cache hit (the build step was skipped)."""
    source: str = ""
    """Human-readable provenance (``suite:rmat scale=1.0`` or a file path)."""
    entry_dir: Path | None = None
    """Backing cache entry, when the graph went through a store."""
    warm_seeds: tuple[int, ...] = field(default_factory=tuple)
    """Initialiser seeds with a persisted Karp-Sipser warm start."""
    reorder_plan: "object | None" = None
    """:class:`repro.graph.reorder.ReorderPlan` when ``graph`` is a derived
    reordered layout (its matchings live in permuted coordinates and must
    be mapped back through this plan); ``None`` for original layouts."""


def build_suite_graph(name: str, scale: float) -> BipartiteCSR:
    """Build one experiment-suite graph (the cache-miss path)."""
    from repro.bench.suite import get_suite_graph

    return get_suite_graph(name, scale=scale).graph


def build_graph_file(path: Union[str, Path], fmt: str) -> BipartiteCSR:
    """Read an on-disk graph by format name (the cache-miss path).

    Mirrors the batch service's reader table, including suffix-based
    ``auto`` resolution, so cached and uncached loads agree bit-for-bit.
    """
    from repro.service.jobs import _read_graph_file

    graph = _read_graph_file(Path(path), fmt)
    # SNAP reads may return a LabelledGraph; the cache stores the graph only.
    return getattr(graph, "graph", graph)


def resolve_format(path: Union[str, Path], fmt: str) -> str:
    """Resolve ``auto`` to a concrete format name (it participates in the
    cache key, so two byte-identical files read by different parsers get
    distinct entries)."""
    if fmt != "auto":
        return fmt
    suffix = Path(path).suffix.lstrip(".").lower()
    return {
        "mtx": "mtx", "gr": "dimacs", "dimacs": "dimacs", "max": "dimacs",
        "txt": "snap", "snap": "snap", "edges": "snap", "npz": "npz",
    }.get(suffix, "mtx")


def warm_start_matching(graph: BipartiteCSR, seed: int):
    """The suite's Karp-Sipser-parallel warm start (see
    :func:`repro.bench.runner.suite_initializer`)."""
    from repro.bench.runner import suite_initializer

    return suite_initializer(graph, seed=seed)
