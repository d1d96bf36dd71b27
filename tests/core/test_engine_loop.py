"""The shared phase loop gives numpy, mp and interleaved one instrumentation shape."""

from repro.core.driver import ms_bfs_graft
from repro.graph.generators import random_bipartite
from repro.telemetry.session import ENGINE_STEPS, Telemetry

LOOP_ENGINES = {
    "numpy": {},
    "mp": {"workers": 2, "mp_min_level_items": 0},
    "interleaved": {},
}


def test_engines_share_step_spans_breakdown_and_frontier_log():
    graph = random_bipartite(160, 150, 520, seed=11)
    steps, results = {}, {}
    for engine, kwargs in LOOP_ENGINES.items():
        tel = Telemetry()
        results[engine] = ms_bfs_graft(
            graph, engine=engine, telemetry=tel, record_frontiers=True, **kwargs
        )
        steps[engine] = [s.name for s in tel.tracer.spans if s.name in ENGINE_STEPS]

    # Every step of Algorithm 3 ran on this graph, so equal sets compare the
    # whole vocabulary, not a common subset.
    for engine in LOOP_ENGINES:
        assert set(steps[engine]) == set(ENGINE_STEPS), engine
        assert set(results[engine].breakdown) == set(ENGINE_STEPS) - {"setup"}, engine
        log = results[engine].frontier_log
        assert log is not None, engine
        assert len(log.phases) == results[engine].counters.phases, engine
        assert sum(map(len, log.phases)) == results[engine].counters.bfs_levels, engine

    # numpy and mp share one trajectory: same span stream, counters and log.
    assert steps["numpy"] == steps["mp"]
    assert results["numpy"].counters == results["mp"].counters
    assert results["numpy"].frontier_log.phases == results["mp"].frontier_log.phases
