"""Stress/conformance suite for the process-parallel shared-memory backend.

Covers the hard guarantees ``engine="mp"`` makes beyond "same cardinality":
bit-identical phase trajectories for every worker count, permutation
metamorphism, clean degradation signals on worker death and deadline
expiry, and — via an autouse fixture — that no test leaves a shared-memory
segment behind in ``/dev/shm``, crashes included.
"""

from __future__ import annotations

import glob
import os
import signal
import time

import numpy as np
import pytest

from repro.core.driver import ms_bfs_graft
from repro.core.options import Deadline, GraftOptions
from repro.errors import DeadlineExceeded, ReproError, WorkerCrashed
from repro.graph.generators import (
    planted_matching,
    random_bipartite,
    rmat_bipartite,
)
from repro.graph.permute import permute
from repro.matching.base import UNMATCHED, Matching
from repro.matching.verify import verify_maximum
from repro.parallel.procpool import (
    ProcPool,
    _build_layout,
    _chunk_bounds,
    run_mp,
)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _segments() -> list:
    """Shared-memory segments visible to this test run (ours + anonymous)."""
    return sorted(glob.glob("/dev/shm/repro_mp_*") + glob.glob("/dev/shm/psm_*"))


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test must leave /dev/shm exactly as it found it.

    This is the leak-check the robustness satellite asks for: worker death,
    deadline expiry, and plain completion all funnel through
    ``ProcPool.close``, whose single ``unlink`` is the only thing standing
    between a crash and an orphaned segment surviving the process.
    """
    if not os.path.isdir("/dev/shm"):
        yield  # no tmpfs view to scan; SharedMemory itself still works
        return
    before = _segments()
    yield
    leaked = [s for s in _segments() if s not in before]
    assert not leaked, f"leaked shared-memory segments: {leaked}"


def options(**kwargs) -> GraftOptions:
    kwargs.setdefault("emit_trace", False)
    return GraftOptions(**kwargs)


def signature(result) -> tuple:
    """The determinism contract: trajectory, not just the cardinality."""
    c = result.counters
    return (
        result.cardinality, c.phases, c.bfs_levels, c.edges_traversed,
        c.augmentations, c.grafts, c.tree_rebuilds,
        c.topdown_steps, c.bottomup_steps,
    )


GRAPH = rmat_bipartite(scale=8, edge_factor=8, seed=5)


class TestUnits:
    def test_chunk_bounds_cover_contiguously(self):
        for n in (0, 1, 5, 7, 64, 100):
            for workers in (1, 2, 3, 4, 7):
                bounds = _chunk_bounds(n, workers)
                assert len(bounds) == workers
                flat = [i for lo, hi in bounds for i in range(lo, hi)]
                assert flat == list(range(n))  # contiguous, in order, exact

    def test_layout_is_eight_byte_aligned_and_disjoint(self):
        layout, total = _build_layout(GRAPH, workers=3)
        cursor = 0
        for name, offset, count, dtype in layout:
            assert offset == cursor, f"{name} overlaps or leaves a gap"
            assert offset % 8 == 0
            cursor = offset + count * np.dtype(dtype).itemsize
        assert cursor == total

    def test_worker_count_validated(self):
        with pytest.raises(ReproError, match="worker count"):
            ProcPool(GRAPH, workers=0)


class TestPoolLifecycle:
    def test_context_manager_unlinks(self):
        with ProcPool(GRAPH, workers=2) as pool:
            name = pool.segment_name
            assert name.startswith("repro_mp_")
            assert os.path.exists(f"/dev/shm/{name}")
            assert len(pool.worker_pids()) == 2
        assert not os.path.exists(f"/dev/shm/{name}")

    def test_close_is_idempotent(self):
        pool = ProcPool(GRAPH, workers=2)
        pool.close()
        pool.close()
        with pytest.raises(ReproError, match="closed"):
            pool.topdown_superstep(np.arange(4, dtype=np.int64))

    def test_injected_pool_is_reused_not_closed(self):
        with ProcPool(GRAPH, workers=2) as pool:
            r1 = run_mp(GRAPH, None, options(), pool=pool, min_level_items=0)
            # The pool survived the first run and serves a second one.
            r2 = run_mp(GRAPH, None, options(), pool=pool, min_level_items=0)
        assert signature(r1) == signature(r2)

    def test_injected_pool_graph_mismatch_rejected(self):
        other = random_bipartite(10, 10, 20, seed=1)
        with ProcPool(GRAPH, workers=2) as pool:
            with pytest.raises(ReproError, match="ProcPool"):
                run_mp(other, None, options(), pool=pool)


class TestDeterminism:
    """Same graph + seed + worker count => identical trajectory, 3 runs;
    and the trajectory is also invariant across worker counts (it must be:
    every count reproduces the numpy engine's level sequence exactly)."""

    def test_three_repeats_identical_per_worker_count(self):
        for workers in (1, 2, 4):
            sigs = {
                signature(
                    run_mp(GRAPH, None, options(), workers=workers,
                           min_level_items=0)
                )
                for _ in range(3)
            }
            assert len(sigs) == 1, f"workers={workers} not run-deterministic"

    def test_trajectory_matches_numpy_engine(self):
        reference = signature(ms_bfs_graft(GRAPH, engine="numpy", emit_trace=False))
        for workers in (1, 2, 4):
            got = signature(
                run_mp(GRAPH, None, options(), workers=workers, min_level_items=0)
            )
            assert got == reference, f"workers={workers} diverged from numpy"

    def test_master_local_threshold_does_not_change_result(self):
        # Levels below min_level_items run on the master; the split point
        # must be invisible in the result.
        a = signature(run_mp(GRAPH, None, options(), workers=2, min_level_items=0))
        b = signature(run_mp(GRAPH, None, options(), workers=2, min_level_items=10**9))
        assert a == b

    def test_permutation_metamorphic(self):
        # Relabelling vertices never changes the matching number, and the
        # original mp matching mapped through the permutation
        # (mate_new[x_perm[x]] = y_perm[mate_old[x]]) must certify as a
        # maximum matching of the permuted graph.
        base = run_mp(GRAPH, None, options(), workers=2, min_level_items=0)
        permuted, x_perm, y_perm = permute(GRAPH, seed=42)
        perm_result = run_mp(permuted, None, options(), workers=2, min_level_items=0)
        assert perm_result.cardinality == base.cardinality
        verify_maximum(permuted, perm_result.matching)
        mate_old_x = base.matching.mate_x
        mate_old_y = base.matching.mate_y
        mapped_x = np.full(GRAPH.n_x, UNMATCHED, dtype=mate_old_x.dtype)
        mapped_y = np.full(GRAPH.n_y, UNMATCHED, dtype=mate_old_y.dtype)
        for x in np.flatnonzero(mate_old_x != UNMATCHED):
            nx, ny = int(x_perm[x]), int(y_perm[mate_old_x[x]])
            mapped_x[nx] = ny
            mapped_y[ny] = nx
        verify_maximum(
            permuted,
            Matching(GRAPH.n_x, GRAPH.n_y, mapped_x, mapped_y),
        )


class TestConformance:
    @pytest.mark.parametrize("shape", [
        (0, 0, 0), (5, 0, 0), (0, 7, 0), (3, 3, 0),
    ])
    def test_degenerate_graphs(self, shape):
        n_x, n_y, nnz = shape
        g = random_bipartite(n_x, n_y, nnz, seed=0)
        r = run_mp(g, None, options(), workers=2)
        assert r.cardinality == 0

    def test_initial_matching_respected(self):
        g = planted_matching(30, extra_edges=40, seed=7)
        warm = ms_bfs_graft(g, engine="numpy", emit_trace=False).matching
        r = run_mp(g, warm, options(), workers=2, min_level_items=0)
        assert r.cardinality == 30
        verify_maximum(g, r.matching)

    def test_telemetry_and_trace_flow_through(self):
        from repro.telemetry import Telemetry

        tel = Telemetry()
        phases = []
        r = run_mp(
            GRAPH, None,
            options(telemetry=tel, phase_hook=phases.append),
            workers=2, min_level_items=0,
        )
        assert phases == list(range(1, r.counters.phases + 1))
        spans = [s for s in tel.tracer.spans if not s.open]
        assert any(s.name == "run" for s in spans)


class TestRobustness:
    def test_worker_death_raises_worker_crashed(self):
        with ProcPool(GRAPH, workers=2) as pool:
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                try:
                    pool.topdown_superstep(
                        np.arange(min(64, GRAPH.n_x), dtype=np.int64)
                    )
                except WorkerCrashed:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("killed worker never surfaced as WorkerCrashed")
        # fixture asserts the segment was still unlinked

    def test_worker_death_mid_run_cleans_up(self):
        class KillFirstWorker:
            """Phase hook that SIGKILLs a worker after the first phase."""

            def __init__(self, pool):
                self.pool = pool
                self.killed = False

            def __call__(self, phase):
                if not self.killed and phase >= 2:
                    os.kill(self.pool.worker_pids()[0], signal.SIGKILL)
                    self.killed = True

        pool = ProcPool(GRAPH, workers=2)
        hook = KillFirstWorker(pool)
        try:
            # Depending on timing the death surfaces on the send (broken
            # pipe) or the recv (EOF); both must be WorkerCrashed.
            with pytest.raises(WorkerCrashed, match="mp worker"):
                run_mp(GRAPH, None, options(phase_hook=hook),
                       pool=pool, min_level_items=0)
            assert hook.killed
        finally:
            pool.close()

    def test_deadline_expiry_mid_phase(self):
        # Injected clock: expires right after the first phase boundary, no
        # real waiting. The internally created pool must still be torn down.
        ticks = iter([0.0] + [10.0] * 50)
        deadline = Deadline(0.5, clock=lambda: next(ticks))
        with pytest.raises(DeadlineExceeded):
            run_mp(GRAPH, None, options(deadline=deadline),
                   workers=2, min_level_items=0)

    def test_service_degrades_mp_to_numpy(self, monkeypatch, tmp_path):
        # The executor's chain for mp is ["mp", "numpy", "python"]; a pool
        # that keeps crashing must land the job on numpy, flagged degraded.
        import repro.core.driver as driver_mod
        from repro.service import events as ev
        from repro.service.events import read_events
        from repro.service.checkpoint import RunDirectory
        from repro.service.executor import BatchExecutor, ManualClock
        from repro.service.jobs import JobSpec
        from repro.service.retry import RetryPolicy

        def crashing_run_mp(*args, **kwargs):
            raise WorkerCrashed("mp worker 0 (pid 123) died mid-superstep")

        monkeypatch.setattr(driver_mod, "run_mp", crashing_run_mp)
        ex = BatchExecutor(
            tmp_path / "run",
            retry=RetryPolicy(max_attempts=2, base_delay=0.01, jitter=0.0),
            clock=ManualClock(),
        )
        job = JobSpec(job_id="mpjob", graph={"suite": "rmat", "scale": 0.05},
                      engine="mp")
        [out] = ex.run_batch([job])
        assert out.status == "done"
        assert out.degraded and out.engine_used == "numpy"
        degraded = [e for e in read_events(RunDirectory(tmp_path / "run").events_path)
                    if e["event"] == ev.JOB_DEGRADED]
        assert degraded and degraded[0]["from_engine"] == "mp"
        assert degraded[0]["to_engine"] == "numpy"


@pytest.mark.slow
class TestStressScale:
    def test_rmat12_all_worker_counts_agree(self):
        g = rmat_bipartite(scale=12, edge_factor=8, seed=17)
        reference = signature(ms_bfs_graft(g, engine="numpy", emit_trace=False))
        for workers in (1, 2, 4):
            got = signature(
                run_mp(g, None, options(), workers=workers, min_level_items=0)
            )
            assert got == reference
