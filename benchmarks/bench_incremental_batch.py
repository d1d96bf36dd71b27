"""Batched vs per-edge incremental repair: the online daemon's core win.

Per-edge repair (``add_edge``/``remove_edge``) pays one warm-started
MS-BFS-Graft run, and one CSR snapshot, per update; batched repair
(``apply_batch``) applies the whole batch structurally and then runs one
warm-started MS-BFS-Graft, whose ``O(paths + 1)`` phases each augment a
maximal set of disjoint paths. On a 1k-update batch the repair count
collapses from ~1000 runs to one run of a handful of phases, which is the
latency headroom the online daemon's p99 SLO lives on.

The smoke target certifies both paths agree and records the speedup at a
small scale on every bench run; the ``slow`` target rewrites the committed
``benchmarks/BENCH_incremental.json`` record at full scale and enforces
the >= 5x acceptance bar. Refresh with::

    PYTHONPATH=src python -m pytest benchmarks/bench_incremental_batch.py -m slow
"""

import json
import os
import platform
import time

import numpy as np
import pytest
from conftest import emit

from repro.core.driver import ms_bfs_graft
from repro.matching.incremental import IncrementalMatcher
from repro.matching.verify import verify_maximum

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_incremental.json")


def build_workload(n, base_edges, batch_size, seed):
    rng = np.random.default_rng(seed)
    base = sorted(
        {(int(rng.integers(0, n)), int(rng.integers(0, n)))
         for _ in range(base_edges)}
    )
    batch = []
    for _ in range(batch_size):
        op = "delete" if rng.random() < 0.3 else "insert"
        batch.append((op, int(rng.integers(0, n)), int(rng.integers(0, n))))
    return base, batch


def fresh_matcher(n, base):
    m = IncrementalMatcher(n, n)
    m.apply_batch([("insert", x, y) for x, y in base])
    return m


def run_incremental_bench(n=1000, base_edges=4000, batch_size=1000,
                          seed=0, repeats=3):
    """Time one batch applied per-edge vs batched; returns the record."""
    base, batch = build_workload(n, base_edges, batch_size, seed)

    per_edge_times, batched_times = [], []
    per_edge_cardinality = batched_cardinality = None
    batched_stats = None
    for _ in range(repeats):
        m = fresh_matcher(n, base)
        start = time.perf_counter()
        for op, x, y in batch:
            if op == "insert":
                m.add_edge(x, y)
            else:
                m.remove_edge(x, y)
        per_edge_times.append(time.perf_counter() - start)
        per_edge_cardinality = m.cardinality

        m = fresh_matcher(n, base)
        start = time.perf_counter()
        stats = m.apply_batch(batch)
        batched_times.append(time.perf_counter() - start)
        batched_cardinality = stats.cardinality
        batched_stats = stats

    # Both repair paths must land on the same (maximum) cardinality,
    # certified against a from-scratch run.
    assert per_edge_cardinality == batched_cardinality
    graph = m.graph()
    verify_maximum(graph, m.matching())
    assert ms_bfs_graft(graph, emit_trace=False).cardinality == batched_cardinality

    per_edge = min(per_edge_times)
    batched = min(batched_times)
    return {
        "schema_version": 1,
        "benchmark": "incremental batched vs per-edge repair",
        "graph": {"n_x": n, "n_y": n, "base_edges": len(base)},
        "batch": {
            "size": batch_size,
            "inserted": batched_stats.inserted,
            "deleted": batched_stats.deleted,
            "skipped": batched_stats.skipped,
        },
        "seed": seed,
        "repeats": repeats,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "per_edge": {
            "best_seconds": per_edge,
            "bfs_rounds": batch_size,  # at least one repair per update
        },
        "batched": {
            "best_seconds": batched,
            "bfs_rounds": batched_stats.bfs_rounds,
            "augmented": batched_stats.augmented,
        },
        "cardinality": batched_cardinality,
        "speedup": per_edge / batched if batched > 0 else float("inf"),
    }


def render(doc):
    g, b = doc["graph"], doc["batch"]
    return "\n".join([
        f"graph   : {g['n_x']}x{g['n_y']}, {g['base_edges']} base edges",
        f"batch   : {b['size']} updates ({b['inserted']} inserts, "
        f"{b['deleted']} deletes, {b['skipped']} skipped)",
        f"per-edge: {doc['per_edge']['best_seconds'] * 1e3:9.3f} ms "
        f"({doc['per_edge']['bfs_rounds']} BFS sweeps)",
        f"batched : {doc['batched']['best_seconds'] * 1e3:9.3f} ms "
        f"({doc['batched']['bfs_rounds']} BFS sweeps, "
        f"{doc['batched']['augmented']} augmentations)",
        f"speedup : {doc['speedup']:.1f}x   |M| = {doc['cardinality']}",
    ])


def test_batched_repair_smoke(benchmark):
    # Small enough that the per-edge loop (one engine run per update)
    # stays quick, large enough that batching's win is far above noise.
    doc = benchmark.pedantic(
        run_incremental_bench,
        kwargs={"n": 300, "base_edges": 1200, "batch_size": 400, "repeats": 2},
        rounds=1, iterations=1,
    )
    emit("Incremental repair: batched vs per-edge (smoke)", render(doc))
    assert doc["batched"]["bfs_rounds"] < doc["per_edge"]["bfs_rounds"]
    assert doc["speedup"] > 2.0


@pytest.mark.slow
def test_batched_repair_baseline(benchmark):
    doc = benchmark.pedantic(
        run_incremental_bench,
        kwargs={"n": 1000, "base_edges": 4000, "batch_size": 1000,
                "repeats": 3},
        rounds=1, iterations=1,
    )
    emit("Incremental repair: batched vs per-edge (baseline)", render(doc))
    with open(BASELINE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    # Acceptance bar: batched repair beats per-edge by >= 5x on 1k batches.
    assert doc["speedup"] >= 5.0
