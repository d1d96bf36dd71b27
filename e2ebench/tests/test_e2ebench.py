"""Tests of the benchmark itself, on miniature inputs.

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
from spans import SpanRecorder, covered, profiles  # noqa: E402

WORKLOADS = ("cold-solve", "btf-mesh", "online-edits")


def _spec(kind: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def _run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(cwd / "e2ebench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload: str, trace: int) -> None:
    code, lines = _run("--workload", workload, "--seed", "3", "--seconds", "0.6",
                       "--trace", str(trace), "--tiny")
    result = json.loads(lines[-1])
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = _spec("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    if trace and workload == "cold-solve":  # the cache round hits the warmed cache
        assert result["metrics"]["cache.store.hit_ratio"]["value"] == 1.0
        assert result["metrics"]["cache.store.setup_s"]["value"] > 0


@pytest.mark.parametrize("workload", ["cold-solve", "online-edits"])
def test_wrong_answer_is_counted_as_failure(workload: str) -> None:
    code, lines = _run("--workload", workload, "--seed", "3", "--seconds", "0.3",
                       "--tiny", "--inject-wrong-answer")
    result = json.loads(lines[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _run("--workload", "cold-solve", "--seed", "1", "--seconds", "1",
                       cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_inputs_are_seeded() -> None:
    a = inputs.offline_graphs(5, tiny=True)
    b = inputs.offline_graphs(5, tiny=True)
    c = inputs.offline_graphs(6, tiny=True)
    for (_, ga), (_, gb) in zip(a, b):
        assert (ga[2] == gb[2]).all() and (ga[3] == gb[3]).all()
    assert any(ga[2].size != gc[2].size or (ga[2] != gc[2]).any()
               for (_, ga), (_, gc) in zip(a, c))


def test_edit_stream_keeps_edge_count_and_never_overlaps() -> None:
    stream = inputs.EditStream(1, 0, tiny=True)
    before = set(stream.initial_edges())
    for _ in range(20):
        inserts, deletes = stream.next_batch()
        assert not set(inserts) & before and set(deletes) <= before
        assert len(inserts) == len(deletes) == stream.batch
        before = (before - set(deletes)) | set(inserts)
        assert before == set(stream.edges)


def test_self_time_and_coverage() -> None:
    spans = [
        ["request", 0.0, 10.0, -1, 7],
        ["core.driver", 1.0, 5.0, 0, 7],
        ["graph.io", 2.0, 3.0, 1, 7],
        ["matching.verify", 6.0, 9.0, 0, 7],
        ["setup", 20.0, 21.0, -1, -1],
    ]
    (p,) = profiles(spans, "request")
    assert p["rid"] == 7 and p["duration"] == 10.0
    assert p["self"] == {"core.driver": 3.0, "graph.io": 1.0, "matching.verify": 3.0}
    assert p["coverage"] == pytest.approx(0.7)
    assert covered([(0, 2), (1, 3), (5, 6)], 0.5, 5.5) == pytest.approx(3.0)


def test_recorder_nests_spans() -> None:
    rec = SpanRecorder()
    with rec.span("request", 1):
        with rec.span("core.driver", 1):
            pass
        rec.add("matching.incremental", 0.0, 0.0, 1)
    assert [s[3] for s in rec.spans] == [-1, 0, 0]
    assert all(s[2] >= s[1] for s in rec.spans[:2])


def test_request_times_scale_by_probes_and_take_median_repeats() -> None:
    ref = run.PROBE_REF_S
    life = {"requests": [
        {"input": 0, "rid": 0, "traced": False, "latency": 1.0,
         "probe_before": ref, "probe": ref},
        {"input": 0, "rid": 2, "traced": False, "latency": 3.0,
         "probe_before": 2 * ref, "probe": 2 * ref},
        {"input": 0, "rid": 4, "traced": False, "latency": 9.0,
         "probe_before": ref, "probe": ref},
        {"input": 1, "rid": 1, "traced": True, "latency": 5.0,
         "probe_before": ref, "probe": ref},
    ]}
    bench = [{"nnz": 10}, {"nnz": 20}]
    # A twice-slower host (probe 2x) halves the 3 s repeat to 1.5 s.
    assert run.request_times("cold-solve", bench, [life]) == [(pytest.approx(1.5), 3.0, 10)]
    values, counts, measured = run.end_to_end(
        "cold-solve", bench, [dict(life, peak_rss_mb=1.0, setup_s=2.0)])
    assert values["solves_per_s"] == pytest.approx(1 / 1.5)
    assert values["updates_per_s"] == pytest.approx(10 / 1.5)
    assert measured["solves_per_s"] == pytest.approx(1 / 3.0)
    # set-up is scaled by the lifetime's median probe (ref here)
    assert values["setup_s"] == pytest.approx(2.0)
    assert counts["solves_per_s"] == 1 and counts["setup_s"] == 1
