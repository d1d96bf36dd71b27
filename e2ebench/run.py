"""End-to-end certified-matching benchmark.

    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark generates its inputs from
``--seed``, computes the scipy oracle, then runs the program in
``LIFETIMES`` fresh worker processes in turn (``worker.py``), each of which
sets up and then serves timed requests for its share of ``--seconds``.
Every answer is checked against the oracle here. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
``metrics`` listed in ``BENCHMARK.json`` (end-to-end ones with ``--trace
0``, per-layer ones with ``--trace 1``). The lines before it and the
record under ``.e2ebench/results/`` hold sample counts, the run context and
(traced) the raw spans. Workloads and metrics are described in
``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.stats import beta

import inputs
from spans import profiles

WORKLOADS = ("cold-solve", "btf-mesh", "online-edits")
LIFETIMES = {"cold-solve": 3, "btf-mesh": 3, "online-edits": 2}
"""Worker processes per run, each with its own set-up (``setup_s`` is their
median). Offline lifetimes serve the same inputs, so every input is timed
several times per run; online-edits lifetimes stream distinct updates."""
COLD_INSTANCES = 4
"""Seeded instances of each cold-solve input family per run. One
Erdos-Renyi or road instance can cost twice what another does to certify,
so the mix holds four of each."""
ONLINE_MIN_UPDATES = 100
"""online-edits issues at least this many ``update`` RPCs per run, so ten
samples lie beyond p90."""
ONLINE_SESSIONS = 16
"""Sessions per daemon lifetime (the daemon's default cap), each its own
seeded graph and edit stream.
Repair cost per update clusters by the number of BFS sweeps, and the share
of updates in each cluster differs from graph to graph, so a run samples
many graphs to keep its median from following one graph's clusters."""
PROBE_REF_S = 0.006
"""Seconds ``worker.host_probe`` takes on the reference host (a quiet
2.1 GHz Xeon vCPU). End-to-end times are reported at that host speed (see
``request_times``)."""
RUN_DEADLINE_S = 170.0
LAYERS = ("graph.io", "cache.store", "graph.reorder", "matching.karp_sipser_parallel",
          "core.driver", "matching.verify", "apps", "matching.incremental",
          "service.online")
STEPS = ("topdown", "bottomup", "augment", "statistics", "grafting")
COUNTERS = ("phases", "edges_traversed", "augmentations", "grafts",
            "tree_rebuilds", "topdown_steps", "bottomup_steps")

HERE = Path(__file__).resolve().parent


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# --------------------------------------------------------------------------- #
# inputs and oracle
# --------------------------------------------------------------------------- #

def prepare_inputs(workload: str, seed: int, tiny: bool, trace: bool,
                   work: Path) -> list[dict]:
    """Write the run's seeded input files, served by every lifetime, and
    compute their oracle answers (three times in a traced run, which reports
    scipy's median time as a yardstick)."""
    if workload == "online-edits":
        return []
    if workload == "btf-mesh":
        graphs = inputs.mesh_graphs(seed, tiny)
    else:
        graphs = [(f"{name}-{j}", graph) for j in range(COLD_INSTANCES)
                  for name, graph in inputs.offline_graphs(seed, tiny, instance=j)]
    infos = []
    for name, graph in graphs:
        path = work / f"{name}.mtx"
        size = inputs.write_matrix_market(graph, path)
        answers = [inputs.oracle(graph) for _ in range(3 if trace else 1)]
        infos.append({"name": name, "path": str(path), "n_x": graph[0],
                      "n_y": graph[1], "nnz": int(graph[2].size), "bytes": size,
                      "oracle": answers[0][0],
                      "scipy_s": statistics.median(a[1] for a in answers)})
    return infos


# --------------------------------------------------------------------------- #
# workers
# --------------------------------------------------------------------------- #

def run_lifetimes(args, bench: list[dict], work: Path, src: Path,
                  t_start: float) -> list[dict]:
    """Run the worker processes one after another; a crashed or timed-out
    worker yields ``{"error": ...}`` in place of its result. Every record
    is tagged with its lifetime ``life``. Each lifetime serves its share of
    ``--seconds``; offline ones cycle through the inputs where the previous
    one stopped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    lifetimes, start_index = [], 0
    for j in range(args.lifetimes):
        spec = {"workload": args.workload, "seed": args.seed, "trace": bool(args.trace),
                "lifetime": j, "lifetimes": args.lifetimes, "tiny": args.tiny,
                "inputs": [i["path"] for i in bench],
                "budget_s": args.seconds / args.lifetimes,
                "min_requests": -(-ONLINE_MIN_UPDATES // args.lifetimes)
                if args.workload == "online-edits" else 1,
                "start_index": start_index, "sessions": ONLINE_SESSIONS,
                "corrupt": args.inject_wrong_answer and j == 0}
        spec_path, out_path = work / f"spec-{j}.json", work / f"result-{j}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        log_path = work / f"worker-{j}.log"
        timeout = RUN_DEADLINE_S - (time.perf_counter() - t_start)
        if timeout < 1.0:
            lifetimes.append({"error": "run deadline passed before this lifetime"})
            continue
        with open(log_path, "wb") as log:
            # Its own process group, so a kill also reaches the daemon it starts.
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(spec_path), str(out_path)],
                cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                try:  # the worker, or a daemon it left behind
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if code != 0 or not out_path.is_file():
            tail = log_path.read_text(errors="replace")[-2000:]
            print(f"e2ebench: worker {j} failed (exit {code}):\n{tail}", file=sys.stderr)
            lifetimes.append({"error": f"worker exit {code}"})
            continue
        result = json.loads(out_path.read_text(encoding="utf-8"))
        for r in result["setup_records"] + result["requests"]:
            r["life"] = j
        lifetimes.append(result)
        start_index += len(result["requests"])
    return lifetimes


# --------------------------------------------------------------------------- #
# correctness
# --------------------------------------------------------------------------- #

def check_offline(infos: list[dict], life: dict) -> list[str]:
    """One message per wrong answer of one lifetime."""
    problems = []
    for r in life["setup_records"] + life["requests"] + life.get("cache_records", []):
        expected = infos[r["input"]]["oracle"]
        if "error" in r:
            problems.append(f"input {r['input']}: {r['error']}")
        elif r["cardinality"] != expected:
            problems.append(
                f"input {r['input']}: cardinality {r['cardinality']} != oracle {expected}")
        elif "dm_rank" in r and (r["dm_rank"] != expected or not r["perms_ok"]):
            problems.append(f"input {r['input']}: DM/BTF inconsistent with oracle {expected}")
    return problems


def check_online(seed: int, tiny: bool, j: int, sessions: int, life: dict,
                 scipy_times: list) -> list[str]:
    """Replay lifetime ``j``'s edit streams on the benchmark's own edge sets
    and compare every reported cardinality with scipy's."""
    streams = [inputs.EditStream(seed, j * sessions + s, tiny) for s in range(sessions)]
    expected = [inputs.oracle(stream.graph())[0] for stream in streams]
    problems = []
    for r in life["setup_records"]:
        if r["cardinality"] != expected[r["input"]]:
            problems.append(f"create s{r['input']}: cardinality != oracle {expected[r['input']]}")
    for i, r in enumerate(life["requests"]):
        s = r["input"]
        streams[s].next_batch()
        expected[s], seconds = inputs.oracle(streams[s].graph())
        scipy_times.append(seconds)
        if "error" in r:
            problems.append(f"update {i}: {r['error']}")
        elif r["cardinality"] != expected[s]:
            problems.append(f"update {i}: cardinality {r['cardinality']} != oracle {expected[s]}")
    for s, final in enumerate(life["final"]):
        if final.get("cardinality") != expected[s] or not final.get("verified"):
            problems.append(f"final match verify=true on s{s}: {final}")
    return problems


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #

def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of quantile ``q`` (0-1): a Beta-weighted mean
    of the order statistics rather than one or two of them, which keeps it
    from jumping between the clusters a mix of inputs (or of repair rounds)
    forms."""
    n = len(values)
    edges = np.arange(n + 1) / n
    mass = np.diff(beta.cdf(edges, (n + 1) * q, (n + 1) * (1 - q)))
    return float(mass @ np.sort(values))


def host_scale(life: dict) -> float:
    """The factor that turns one lifetime's measured times into times on the
    reference host: ``PROBE_REF_S`` over its median probe time."""
    return PROBE_REF_S / statistics.median(r["probe"] for r in life["requests"])


def request_times(workload: str, bench: list[dict],
                  lives: list[dict]) -> list[tuple[float, float, int]]:
    """``(time, measured time, edges)`` of each distinct untraced request.

    A request's time is its latency scaled to the reference host by the
    probes timed just before and just after it: ``PROBE_REF_S`` over their
    mean. A distinct request is one input of the offline mix, which every
    lifetime serves several times (its times are the medians over those
    repeats), or one update of the online stream."""
    repeats: dict[tuple, list[tuple[float, float]]] = {}
    edits: dict[tuple, int] = {}
    for j, life in enumerate(lives):
        for r in life["requests"]:
            if r["traced"] or "error" in r:
                continue
            if workload == "online-edits":
                key, edits[key] = (j, r["rid"]), r["edits"]
            else:
                key, edits[key] = (r["input"],), bench[r["input"]]["nnz"]
            probe = (r["probe_before"] + r["probe"]) / 2
            repeats.setdefault(key, []).append(
                (r["latency"] * PROBE_REF_S / probe, r["latency"]))
    return [(statistics.median(t for t, _ in reps), statistics.median(m for _, m in reps),
             edits[key]) for key, reps in repeats.items()]


def end_to_end(workload: str, bench: list[dict],
               lives: list[dict]) -> tuple[dict, dict, dict]:
    """End-to-end values, the number of distinct requests (or lifetimes)
    each rests on, and the same values from measured (unscaled) times."""
    reqs = request_times(workload, bench, lives)
    values, measured = {}, {}
    for out, col in ((values, 0), (measured, 1)):
        times = [r[col] for r in reqs]
        busy = sum(times)
        out["solves_per_s"] = len(times) / busy
        out["updates_per_s"] = sum(r[2] for r in reqs) / busy
        out["latency_p50_s"] = hd_quantile(times, 0.5)
        out["latency_p90_s"] = hd_quantile(times, 0.9)
    peak = statistics.median(life["peak_rss_mb"] for life in lives)
    values["peak_rss_mb"] = measured["peak_rss_mb"] = peak
    values["setup_s"] = statistics.median(life["setup_s"] * host_scale(life) for life in lives)
    measured["setup_s"] = statistics.median(life["setup_s"] for life in lives)
    counts = {name: len(reqs) for name in values}
    counts["peak_rss_mb"] = counts["setup_s"] = len(lives)
    return values, counts, measured


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer(workload: str, bench: list[dict], lives: list[dict],
              scipy_online: list) -> dict:
    """Per-layer values from the traced requests, and from cold-solve's
    cache round (``Lifetime.cache_round``) for the cache and reorder layers."""
    reqs = [r for life in lives for r in life["requests"] if "error" not in r]
    traced = [r for r in reqs if r["traced"]]
    profs = [p for life in lives for p in profiles(life["spans"], "request")]
    n = len(profs)
    total = sum(p["duration"] for p in profs)
    own = {layer: sum(p["self"].get(layer, 0.0) for p in profs) for layer in LAYERS}
    v: dict[str, float] = {}
    for layer in LAYERS:
        v[f"{layer}.busy_s"] = _ratio(own[layer], n)
        v[f"{layer}.share"] = _ratio(own[layer], total)
    v["bench.span_coverage"] = statistics.median(p["coverage"] for p in profs)
    v["bench.host_probe_s"] = statistics.median(r["probe"] for r in reqs)

    def info(r: dict) -> dict:
        return bench[r["input"]]

    read_bytes = sum(info(r)["bytes"] for r in traced) if bench else 0
    v["graph.io.mb_per_s"] = _ratio(read_bytes / 1e6, own["graph.io"])

    cached = [p for life in lives for p in profiles(life["spans"], "cache-request")]
    warming = [p for life in lives for p in profiles(life["spans"], "cache-setup")]
    store = sum(p["self"].get("cache.store", 0.0) for p in cached)
    v["cache.store.busy_s"] = _ratio(store, len(cached))
    v["cache.store.share"] = _ratio(store, sum(p["duration"] for p in cached))
    hits = sum(life.get("cache", {}).get("hits", 0) for life in lives)
    lookups = sum(life.get("cache", {}).get("lookups", 0) for life in lives)
    v["cache.store.hit_ratio"] = _ratio(hits, lookups)
    for name, layer in (("cache.store.setup_s", "cache.store"),
                        ("graph.reorder.plan_s", "graph.reorder")):
        v[name] = _ratio(sum(p["self"].get(layer, 0.0) for p in warming), len(warming))

    driven = [r for r in traced if "counters" in r]
    initialised = [r for r in driven if "initial" in r]
    v["matching.karp_sipser_parallel.deficit"] = _ratio(
        sum(info(r)["oracle"] - r["initial"] for r in initialised), len(initialised))
    for c in COUNTERS:
        v[f"core.driver.{c}"] = _ratio(sum(r["counters"][c] for r in driven), len(driven))
    edges = sum(r["counters"]["edges_traversed"] for r in driven)
    v["core.driver.edges_per_augmentation"] = _ratio(
        edges, sum(r["counters"]["augmentations"] for r in driven))
    v["core.driver.teps"] = _ratio(edges, own["core.driver"])
    for step in STEPS:
        v[f"core.driver.step.{step}_s"] = _ratio(
            sum(r["breakdown"].get(step, 0.0) for r in driven), len(driven))

    if workload == "online-edits":
        v["matching.incremental.repair_p50_s"] = statistics.median(r["repair_s"] for r in reqs)
        v["matching.incremental.bfs_rounds"] = statistics.fmean(r["bfs_rounds"] for r in reqs)
        v["matching.incremental.augmented"] = statistics.fmean(r["augmented"] for r in reqs)
        v["matching.incremental.create_s"] = statistics.median(
            t for life in lives for t in life["create_s"])
        v["service.online.overhead_p50_s"] = statistics.median(
            r["latency"] - r["repair_s"] for r in reqs)
        v["ref.scipy.match_s"] = statistics.median(scipy_online)
        v["core.driver.vs_scipy"] = 0.0
    else:
        for name in ("repair_p50_s", "bfs_rounds", "augmented", "create_s"):
            v[f"matching.incremental.{name}"] = 0.0
        v["service.online.overhead_p50_s"] = 0.0
        v["ref.scipy.match_s"] = statistics.fmean(i["scipy_s"] for i in bench)
        v["core.driver.vs_scipy"] = _ratio(
            own["core.driver"], sum(info(r)["scipy_s"] for r in traced))

    tel = [life["telemetry"] for life in lives if "telemetry" in life]
    v["telemetry.overhead_frac"] = (
        _ratio(sum(t["telemetry_s"] for t in tel), sum(t["plain_s"] for t in tel)) - 1.0
        if tel else 0.0)

    def medians(flag: bool) -> dict[int, float]:
        by_input: dict[int, list[float]] = {}
        for r in reqs:
            if r["traced"] == flag:
                by_input.setdefault(r["input"], []).append(r["latency"])
        return {k: statistics.median(x) for k, x in by_input.items()}

    on, off = medians(True), medians(False)
    both = sorted(set(on) & set(off))
    v["bench.trace_overhead_frac"] = (
        _ratio(sum(on[k] for k in both), sum(off[k] for k in both)) - 1.0 if both else 0.0)
    return v


# --------------------------------------------------------------------------- #
# main
# --------------------------------------------------------------------------- #

def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="miniature inputs, for the benchmark's own tests")
    ap.add_argument("--inject-wrong-answer", action="store_true",
                    help="report a wrong cardinality once, to test the checker")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    args.lifetimes = LIFETIMES[args.workload]
    # A terminated run unwinds like an error, so the worker's process group
    # (and any daemon in it) is killed and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    t_start = time.perf_counter()
    root = HERE.parent
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"e2ebench: the program's source {src / 'repro'} is missing", file=sys.stderr)
        return 2
    work = root / ".e2ebench" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = prepare_inputs(args.workload, args.seed, args.tiny, bool(args.trace), work)
        lives = run_lifetimes(args, bench, work, src, t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems: list[str] = []
    attempted = 0
    scipy_online: list[float] = []
    for j, life in enumerate(lives):
        if "error" in life:
            attempted += 1
            problems.append(f"lifetime {j}: {life['error']}")
            continue
        attempted += (len(life["setup_records"]) + len(life["requests"])
                      + len(life.get("cache_records", [])))
        if args.workload == "online-edits":
            attempted += len(life["final"])  # the closing `match verify=true`
            problems += check_online(args.seed, args.tiny, j, ONLINE_SESSIONS, life,
                                     scipy_online)
        else:
            problems += check_offline(bench, life)
    ok_lives = [life for life in lives if "error" not in life]

    kind = "per_layer" if args.trace else "end_to_end"
    units = metric_units(kind)
    values: dict[str, float] = {}
    counts: dict[str, int] = {}
    measured: dict[str, float] = {}
    try:
        if args.trace:
            values = per_layer(args.workload, bench, ok_lives, scipy_online)
        else:
            values, counts, measured = end_to_end(args.workload, bench, ok_lives)
    except (statistics.StatisticsError, ValueError, ZeroDivisionError, KeyError) as exc:
        problems.append(f"metrics unavailable: {type(exc).__name__}: {exc}")
    if values and set(values) != set(units):
        problems.append(f"metrics not computed: {sorted(set(units) - set(values))}; "
                        f"not in BENCHMARK.json: {sorted(set(values) - set(units))}")
    correct = not problems
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "lifetimes": args.lifetimes, "tiny": args.tiny,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "inputs": [{k: i[k] for k in ("name", "n_x", "n_y", "nnz", "bytes", "oracle")}
                   for i in bench],
        "dispatch": {k: d for life in ok_lives for k, d in life.get("dispatch", {}).items()},
        "dispatch_auto": {k: d for life in ok_lives
                          for k, d in life.get("dispatch_auto", {}).items()},
        "setup_s": [life["setup_s"] for life in ok_lives],
    }
    failed = len(problems)
    attempted = max(attempted, failed, 1)
    record = {"context": context, "problems": problems, "attempted": attempted,
              "failed": failed, "metrics": metrics, "samples": counts, "measured": measured,
              "requests": [life["requests"] for life in ok_lives]}
    if args.trace:
        record["spans"] = [life["spans"] for life in ok_lives]
    results = root / ".e2ebench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record), encoding="utf-8")

    print(f"# e2ebench {args.workload} seed={args.seed} trace={args.trace} "
          f"lifetimes={args.lifetimes} nproc={context['nproc']} python={context['python']} "
          f"numpy={context['numpy']} scipy={context['scipy']}")
    for i in context["inputs"]:
        print(f"# input {i['name']}: n_x={i['n_x']} n_y={i['n_y']} nnz={i['nnz']} "
              f"bytes={i['bytes']} oracle={i['oracle']}")
    for label, key in (("dispatch", "dispatch"), ("dispatch --reorder auto", "dispatch_auto")):
        for i, d in sorted(context[key].items(), key=lambda kv: int(kv[0])):
            print(f"# {label} {i}: engine={d['engine']} reorder={d['reorder']} "
                  f"({d['reorder_reason']})")
    for name, m in metrics.items():
        n = f" (n={counts[name]})" if name in counts else ""
        print(f"# {name} = {m['value']:.6g} {m['unit']}{n}")
    if measured:
        probe = statistics.median(r["probe"] for life in ok_lives for r in life["requests"])
        print(f"# times above are at the reference host speed; host probe median = "
              f"{probe * 1e3:.4g} ms (reference {PROBE_REF_S * 1e3:g} ms); measured: "
              + ", ".join(f"{k} = {v:.6g}" for k, v in measured.items() if k != "peak_rss_mb"))
    print(f"# failed_frac = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for p in problems[:20]:
        print(f"# FAILED {p}")
    for life in ok_lives:
        if "teardown" in life:
            print(f"# note: daemon shutdown reply lost ({life['teardown']})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
