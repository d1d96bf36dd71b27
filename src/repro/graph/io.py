"""Matrix Market I/O for bipartite graphs.

The paper's real-world instances come from the University of Florida sparse
matrix collection, distributed in Matrix Market coordinate format. This
module implements the subset of the format needed to ingest those files
offline: ``matrix coordinate`` with ``pattern | real | integer`` fields and
``general | symmetric`` symmetry, plus a writer for round-tripping.

The header and size line are read in Python; the entry body goes through
numpy's C text parser in one call, which reads only the two index columns.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import TextIO, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.builder import _from_edge_arrays
from repro.graph.csr import INDEX_DTYPE, BipartiteCSR

_HEADER_PREFIX = "%%MatrixMarket"
_SUPPORTED_FIELDS = {"pattern", "real", "integer", "complex"}
_SUPPORTED_SYMMETRY = {"general", "symmetric", "skew-symmetric"}
_LOADTXT_NO_DATA = r"(loadtxt: input contained no data|Input line \d+ contained no data)"
"""The two ``np.loadtxt`` warnings a valid body can raise (empty body;
comment or blank lines counted against ``max_rows``)."""


def read_matrix_market(source: Union[str, Path, TextIO]) -> BipartiteCSR:
    """Read a Matrix Market file as a bipartite graph (rows = X, cols = Y).

    Values are ignored — only the sparsity pattern matters for matching.
    ``symmetric`` (and ``skew-symmetric``) storage is expanded to both
    triangles, as the collection stores only the lower triangle.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return read_matrix_market(fh)
    header = source.readline()
    if not header.startswith(_HEADER_PREFIX):
        raise GraphFormatError(f"not a MatrixMarket file (header: {header[:40]!r})")
    parts = header.strip().split()
    if len(parts) < 5:
        raise GraphFormatError(f"malformed MatrixMarket header: {header.strip()!r}")
    _, obj, fmt, field, symmetry = parts[0], parts[1], parts[2], parts[3].lower(), parts[4].lower()
    if obj.lower() != "matrix" or fmt.lower() != "coordinate":
        raise GraphFormatError(f"only 'matrix coordinate' is supported, got '{obj} {fmt}'")
    if field not in _SUPPORTED_FIELDS:
        raise GraphFormatError(f"unsupported field type {field!r}")
    if symmetry not in _SUPPORTED_SYMMETRY:
        raise GraphFormatError(f"unsupported symmetry {symmetry!r}")

    size_line = None
    for line in source:
        stripped = line.strip()
        if stripped and not stripped.startswith("%"):
            size_line = stripped
            break
    if size_line is None:
        raise GraphFormatError("missing size line")
    try:
        n_rows, n_cols, nnz = (int(tok) for tok in size_line.split()[:3])
    except ValueError as exc:
        raise GraphFormatError(f"malformed size line: {size_line!r}") from exc
    if n_rows < 0 or n_cols < 0 or nnz < 0:
        raise GraphFormatError(f"negative sizes in size line: {size_line!r}")
    if nnz > n_rows * n_cols:
        raise GraphFormatError(
            f"declared {nnz} entries exceed the {n_rows}x{n_cols} matrix capacity"
        )

    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", _LOADTXT_NO_DATA, UserWarning)
            # One row past the declared count is enough to detect excess.
            body = np.loadtxt(
                source, dtype=INDEX_DTYPE, comments="%", usecols=(0, 1), ndmin=2,
                max_rows=nnz + 1,
            )
    except ValueError as exc:
        raise GraphFormatError(f"malformed entry line: {exc}") from exc
    if body.shape[0] > nnz:
        raise GraphFormatError(f"more than the declared {nnz} entries")
    if body.shape[0] != nnz:
        raise GraphFormatError(f"declared {nnz} entries but found {body.shape[0]}")
    rows = body[:, 0] - 1  # 1-based on disk
    cols = body[:, 1] - 1
    if nnz and (
        rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols
    ):
        raise GraphFormatError("entry indices out of declared range")

    if symmetry in ("symmetric", "skew-symmetric"):
        if n_rows != n_cols:
            raise GraphFormatError("symmetric matrix must be square")
        off = rows != cols
        rows, cols = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
    return _from_edge_arrays(n_rows, n_cols, rows, cols, validate=False)


_WRITE_CHUNK_EDGES = 1 << 16
"""Edges per write in :func:`write_matrix_market`; bounds peak text buffering."""


def write_matrix_market(
    graph: BipartiteCSR,
    target: Union[str, Path, TextIO],
    *,
    chunk_edges: int = _WRITE_CHUNK_EDGES,
) -> None:
    """Write the graph's biadjacency pattern in MatrixMarket coordinate form.

    The edge body is streamed ``chunk_edges`` entries at a time, so writing
    a multi-GB file never buffers a second text copy of the whole edge list
    in memory (only one chunk's worth).
    """
    if chunk_edges <= 0:
        raise GraphFormatError(f"chunk_edges must be positive, got {chunk_edges}")
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            write_matrix_market(graph, fh, chunk_edges=chunk_edges)
        return
    target.write("%%MatrixMarket matrix coordinate pattern general\n")
    target.write("% written by repro.graph.io\n")
    target.write(f"{graph.n_x} {graph.n_y} {graph.nnz}\n")
    xs, ys = graph.edge_arrays()
    for start in range(0, len(xs), chunk_edges):
        chunk_x = xs[start:start + chunk_edges]
        chunk_y = ys[start:start + chunk_edges]
        target.write(
            "".join(f"{x + 1} {y + 1}\n" for x, y in zip(chunk_x, chunk_y))
        )
