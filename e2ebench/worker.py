"""One program lifetime of a benchmark run: set up, then serve timed requests.

``run.py`` starts this file as ``python3 worker.py SPEC OUT`` in a fresh
process, with the program's ``src`` on ``PYTHONPATH`` and the run's own
directory under ``.e2ebench/`` as the working directory. It calls only the
public functions the CLI and the daemon call, records what each request
returned, and writes everything to ``OUT`` as JSON. It checks nothing against the oracle: that
happens in ``run.py``, outside this process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.apps import block_triangular_form, dulmage_mendelsohn
from repro.bench.runner import run_algorithm, suite_initializer
from repro.cache import GraphCache
from repro.core.driver import choose_engine, ms_bfs_graft
from repro.errors import ServiceError
from repro.graph.io import read_matrix_market
from repro.graph.reorder import apply_plan, plan_reorder
from repro.matching.verify import verify_maximum
from repro.service.online import OnlineClient
from repro.telemetry import Telemetry

import inputs
from spans import SpanRecorder, no_span

_PROBE_RNG = np.random.default_rng(0)
_PROBE_PERM = _PROBE_RNG.permutation(1 << 18)
_PROBE_KEYS = _PROBE_RNG.integers(0, 1 << 18, size=1 << 18)


def host_probe() -> float:
    """Seconds this process takes for a fixed piece of work like the
    program's own: interpreter set, dict and list operations, and numpy
    gathers, counts and sorts over a few MB. The best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        seen: set[int] = set()
        where: dict[int, int] = {}
        queue: list[int] = []
        for i in range(20000):
            k = (i * 7919) % 10007
            if k not in seen:
                seen.add(k)
                where[k] = i
                queue.append(k)
            else:
                queue.append(where[k] & 1023)
        hops = _PROBE_PERM[_PROBE_PERM[_PROBE_KEYS]]
        np.bincount(hops & 4095)
        np.sort(hops[: 1 << 16])
        best = min(best, time.perf_counter() - t0)
    return best


def _driver_record(result, initial=None) -> dict:
    """Cardinality plus the counts and step breakdown the engine returned."""
    counts = {k: v for k, v in vars(result.counters).items() if isinstance(v, int)}
    record = {"cardinality": result.cardinality, "counters": counts,
              "breakdown": dict(result.breakdown)}
    if initial is not None:
        record["initial"] = initial.cardinality
    return record


class Lifetime:
    """State of one worker process; ``run_<workload>`` methods fill it."""

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.seed = int(spec["seed"])
        self.paths = [Path(p) for p in spec["inputs"]]
        self.rec = SpanRecorder() if spec["trace"] else None
        self.setup_s = 0.0
        self.setup_records: list[dict] = []
        self.requests: list[dict] = []
        self.out: dict = {}

    # -- shared loop ------------------------------------------------------ #

    def setup_span(self):
        return self.rec.span if self.rec is not None else no_span

    def serve(self, request, n_inputs: int, prepare=None) -> None:
        """Closed loop: issue requests until the lifetime's time share is
        spent and ``min_requests`` were made. Requests cycle through the
        inputs, continuing where the previous lifetime stopped. In a traced
        run every other round of the inputs is traced, so the run also
        measures the tracing overhead.

        ``request(arg, span, rid)`` gets the input index as ``arg``, or what
        ``prepare(index)`` made from it before the timer started."""
        spec = self.spec
        probe = host_probe()
        t_start = time.perf_counter()
        while (time.perf_counter() - t_start < spec["budget_s"]
               or len(self.requests) < spec["min_requests"]):
            rid = len(self.requests)
            k = (spec["start_index"] + rid) % n_inputs
            traced = self.rec is not None and (spec["start_index"] + rid) // n_inputs % 2 == 0
            span = self.rec.span if traced else no_span
            arg = k if prepare is None else prepare(k)
            post = None
            t0 = time.perf_counter()
            try:
                with span("request", rid):
                    record, post = request(arg, span, rid)
            except Exception as exc:  # a failed request is counted, the run goes on
                record = {"error": f"{type(exc).__name__}: {exc}"}
            record.update(input=k, rid=rid, latency=time.perf_counter() - t0, traced=traced)
            if post is not None:
                record.update(post())
            record["probe_before"], probe = probe, host_probe()
            record["probe"] = probe
            if spec.get("corrupt") and rid == 0 and "cardinality" in record:
                record["cardinality"] += 1
            self.requests.append(record)

    def warm_up(self, request) -> None:
        """The untimed warm-up solve of input 0; its duration is set-up."""
        t0 = time.perf_counter()
        with self.setup_span()("setup", -1):
            record, post = request(0, self.setup_span(), -1)
        self.setup_s = time.perf_counter() - t0
        if post is not None:
            record.update(post())
        self.setup_records.append(dict(record, input=0))

    def note_dispatch(self, k: int, decision, kind: str = "dispatch") -> dict:
        """Keep the dispatch decision made for input ``k``."""
        self.out.setdefault(kind, {})[k] = {
            "engine": decision.engine, "reason": decision.reason,
            "reorder": decision.reorder, "reorder_reason": decision.reorder_reason}
        return {}

    # -- workloads -------------------------------------------------------- #

    def run_cold_solve(self) -> None:
        seed = self.seed

        def request(k, span, rid):
            with span("graph.io", rid):
                g = read_matrix_market(self.paths[k])
            if span is no_span:
                result = run_algorithm("ms-bfs-graft", g, seed=seed)
                record = {}
            else:
                with span("matching.karp_sipser_parallel", rid):
                    initial = suite_initializer(g, seed=seed)
                with span("core.driver", rid):
                    result = ms_bfs_graft(g, initial)
                record = _driver_record(result, initial)
            with span("matching.verify", rid):
                record["cardinality"] = verify_maximum(g, result.matching)
            return record, lambda: self.note_dispatch(k, choose_engine(g))

        self.warm_up(request)
        self.serve(request, len(self.paths))
        self.out["peak_rss_mb"] = _peak_rss_mb(os.getpid())
        if self.rec is not None and self.spec["lifetime"] == self.spec["lifetimes"] - 1:
            self.cache_round()

    def cache_round(self) -> None:
        """The cached, reordered path of ``run --cache-dir D --reorder
        auto``, traced once after a traced cold-solve lifetime: warm a fresh
        cache with every input (root span ``cache-setup``), then serve one
        pass of cache-hit requests (root spans ``cache-request``)."""
        seed, span = self.seed, self.rec.span
        cache = GraphCache(Path(f"cache-{self.spec['lifetime']}"))
        strategies: list[str] = []
        with span("cache-setup", -1):
            for path in self.paths:
                with span("cache.store", -1):
                    prepared = cache.prepare_file(path)
                with span("core.driver", -1):
                    decision = choose_engine(prepared.graph, reorder="auto", workers=1)
                self.note_dispatch(len(strategies), decision, "dispatch_auto")
                strategies.append(decision.reorder)
                with span("cache.store", -1):
                    cache.warm_start(prepared, seed)
                if decision.reorder == "none":
                    continue
                with span("graph.reorder", -1):
                    apply_plan(prepared.graph, plan_reorder(prepared.graph, decision.reorder))
                with span("cache.store", -1):
                    cache.prepare_layout(prepared, decision.reorder)

        hits = lookups = 0
        self.out["cache_records"] = []
        for k, (path, strategy) in enumerate(zip(self.paths, strategies)):
            plan = layout = None
            with span("cache-request", k):
                with span("cache.store", k):
                    prepared = cache.prepare_file(path)
                    hits += int(prepared.from_cache)
                    initial = cache.warm_start(prepared, seed)
                    if strategy != "none":
                        entry = cache.prepare_layout(prepared, strategy)
                        plan, layout = entry.reorder_plan, entry.graph
                        hits += int(entry.from_cache)
                lookups += 1 if strategy == "none" else 2
                with span("core.driver", k):
                    result = run_algorithm("ms-bfs-graft", prepared.graph, initial, seed=seed,
                                           reorder=strategy, reorder_plan=plan,
                                           reorder_layout=layout)
                with span("matching.verify", k):
                    cardinality = verify_maximum(prepared.graph, result.matching)
            self.out["cache_records"].append({"input": k, "cardinality": cardinality})
        self.out["cache"] = {"hits": hits, "lookups": lookups}

    def run_btf_mesh(self) -> None:
        def request(k, span, rid):
            with span("graph.io", rid):
                g = read_matrix_market(self.paths[k])
            with span("core.driver", rid):
                result = ms_bfs_graft(g, emit_trace=False)
            with span("matching.verify", rid):
                cardinality = verify_maximum(g, result.matching)
            with span("apps", rid):
                dm = dulmage_mendelsohn(g, result.matching)
                btf = block_triangular_form(g, result.matching)
            record = _driver_record(result) if span is not no_span else {}
            record["cardinality"] = cardinality

            def check() -> dict:
                perms = (np.array_equal(np.sort(btf.row_perm), np.arange(g.n_x))
                         and np.array_equal(np.sort(btf.col_perm), np.arange(g.n_y)))
                dm_rank = dm.horizontal_x.size + dm.square_x.size + dm.vertical_y.size
                self.note_dispatch(k, choose_engine(g, emit_trace=False))
                return {"dm_rank": int(dm_rank), "perms_ok": bool(perms)}

            return record, check

        self.warm_up(request)
        self.serve(request, len(self.paths))
        if self.rec is not None and self.spec["lifetime"] == self.spec["lifetimes"] - 1:
            self.out["telemetry"] = self.telemetry_overhead()
        self.out["peak_rss_mb"] = _peak_rss_mb(os.getpid())

    def telemetry_overhead(self) -> dict:
        """``ms_bfs_graft`` on the first mesh without, then with, a live
        ``Telemetry()`` session."""
        plain = traced = 0.0
        for path in self.paths[:1]:
            g = read_matrix_market(path)
            t0 = time.perf_counter()
            ms_bfs_graft(g, emit_trace=False)
            t1 = time.perf_counter()
            ms_bfs_graft(g, emit_trace=False, telemetry=Telemetry())
            plain += t1 - t0
            traced += time.perf_counter() - t1
        return {"plain_s": plain, "telemetry_s": traced}

    def run_online_edits(self) -> None:
        """One daemon, ``sessions`` sessions, updates sent round-robin."""
        count = self.spec["sessions"]
        streams = [inputs.EditStream(self.seed, self.spec["lifetime"] * count + s,
                                     self.spec["tiny"]) for s in range(count)]
        socket_path = "daemon.sock"
        with open(f"daemon-{self.spec['lifetime']}.log", "wb") as log:
            t0 = time.perf_counter()
            daemon = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--socket", socket_path],
                stdout=subprocess.DEVNULL, stderr=log)
        try:
            client = self._connect(socket_path, daemon)
            with client:
                creates = []
                for s, stream in enumerate(streams):
                    t1 = time.perf_counter()
                    created = client.create(f"s{s}", stream.n, stream.n, stream.initial_edges())
                    creates.append(time.perf_counter() - t1)
                    self.setup_records.append({"input": s, "cardinality": created["cardinality"]})
                self.setup_s = time.perf_counter() - t0
                self.out["create_s"] = creates

                def request(job, span, rid):
                    s, (inserts, deletes) = job
                    with span("service.online", rid):
                        t1 = time.perf_counter()
                        reply = client.update(f"s{s}", inserts, deletes)
                        t2 = time.perf_counter()
                        if span is not no_span:
                            repair = min(float(reply["repair_seconds"]), t2 - t1)
                            mid = t1 + (t2 - t1 - repair) / 2
                            self.rec.add("matching.incremental", mid, mid + repair, rid)
                    return {"cardinality": reply["cardinality"],
                            "repair_s": reply["repair_seconds"],
                            "bfs_rounds": reply["bfs_rounds"],
                            "augmented": reply["augmented"],
                            "edits": len(inserts) + len(deletes)}, None

                self.serve(request, count, prepare=lambda s: (s, streams[s].next_batch()))
                self.out["final"] = []
                for s in range(count):
                    try:
                        final = client.match(f"s{s}", verify=True)
                        self.out["final"].append({"cardinality": final["cardinality"],
                                                  "verified": bool(final.get("verified"))})
                    except Exception as exc:  # reported as a failed check
                        self.out["final"].append({"error": f"{type(exc).__name__}: {exc}"})
                self.out["peak_rss_mb"] = _peak_rss_mb(daemon.pid)
                try:
                    client.shutdown_server()
                except ServiceError as exc:
                    # The daemon can exit before its reply to `shutdown` is
                    # written; teardown only, so it is noted, not failed.
                    self.out["teardown"] = f"{type(exc).__name__}: {exc}"
            daemon.wait(timeout=30)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

    @staticmethod
    def _connect(socket_path: str, daemon: subprocess.Popen) -> OnlineClient:
        deadline = time.perf_counter() + 60
        while True:
            try:
                return OnlineClient(socket_path)
            except (FileNotFoundError, ConnectionRefusedError):
                if daemon.poll() is not None:
                    raise RuntimeError(f"daemon exited with code {daemon.returncode}") from None
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.002)


def _peak_rss_mb(pid: int) -> float:
    """Peak resident memory of a live process since its ``exec``, from
    ``/proc`` (``ru_maxrss`` would also count the forking parent's pages)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("VmHWM missing from /proc status")


def main() -> None:
    spec_path, out_path = sys.argv[1], sys.argv[2]
    # One CPU for this process and the daemon it may start (children inherit
    # the mask), so the probe times the CPU the program runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    life = Lifetime(spec)
    getattr(life, "run_" + spec["workload"].replace("-", "_"))()
    life.out.update(setup_s=life.setup_s, setup_records=life.setup_records,
                    requests=life.requests,
                    spans=life.rec.spans if life.rec is not None else [])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(life.out, fh)


if __name__ == "__main__":
    main()
