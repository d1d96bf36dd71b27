import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BenchmarkError, MachineConfigError
from repro.parallel.cost_model import CostModel
from repro.parallel.machine import LAPTOP, MIRASOL
from repro.parallel.trace import WorkTrace


def flat_trace(levels=10, items=1000, cost=10.0):
    t = WorkTrace()
    for _ in range(levels):
        t.add("topdown", np.full(items, cost))
    return t


class TestBasicSimulation:
    def test_serial_time_is_work_times_unit(self):
        t = flat_trace(levels=1, items=100, cost=1.0)
        sim = CostModel(MIRASOL).simulate(t, 1)
        assert sim.seconds == pytest.approx(100 * MIRASOL.unit_cost_ns * 1e-9)

    def test_parallel_faster_than_serial_for_big_work(self):
        t = flat_trace()
        model = CostModel(MIRASOL)
        assert model.simulate(t, 40).seconds < model.simulate(t, 1).seconds

    def test_speedup_helper(self):
        t = flat_trace()
        assert CostModel(MIRASOL).speedup(t, 10) > 3.0

    def test_empty_trace(self):
        sim = CostModel(MIRASOL).simulate(WorkTrace(), 4)
        assert sim.seconds == 0.0

    def test_thread_bound_checked(self):
        with pytest.raises(MachineConfigError):
            CostModel(MIRASOL).simulate(flat_trace(), 200)

    def test_scaling_curve(self):
        curve = CostModel(LAPTOP).scaling_curve(flat_trace(), [1, 2, 4])
        assert set(curve) == {1, 2, 4}
        assert curve[4] < curve[1]


class TestCostComponents:
    def test_barriers_accumulate_per_region(self):
        shallow = flat_trace(levels=1, items=4000)
        deep = WorkTrace()
        for _ in range(100):
            deep.add("topdown", np.full(40, 10.0))
        model = CostModel(MIRASOL)
        # Same total work, very different barrier counts.
        assert deep.total_work == shallow.total_work
        assert (
            model.simulate(deep, 40).barrier_seconds
            > model.simulate(shallow, 40).barrier_seconds
        )

    def test_irregular_pattern_costs_more(self):
        t1 = WorkTrace()
        t1.add("a", np.full(100, 5.0))
        t2 = WorkTrace()
        t2.add("a", np.full(100, 5.0), memory_pattern="irregular")
        model = CostModel(MIRASOL)
        assert (
            model.simulate(t2, 1).seconds
            == pytest.approx(model.simulate(t1, 1).seconds * MIRASOL.irregular_access_factor)
        )

    def test_sequential_region_ignores_threads(self):
        t = WorkTrace()
        t.add("a", np.full(100, 5.0), sequential=True)
        model = CostModel(MIRASOL)
        assert model.simulate(t, 40).seconds == pytest.approx(model.simulate(t, 1).seconds)

    def test_queue_appends_amortised(self):
        heavy = WorkTrace()
        heavy.add("a", np.full(10, 1.0), atomics=100000)
        amortised = WorkTrace()
        amortised.add("a", np.full(10, 1.0), queue_appends=100000)
        model = CostModel(MIRASOL)
        assert model.simulate(amortised, 8).seconds < model.simulate(heavy, 8).seconds

    def test_dynamic_schedule_balances_skew(self):
        skew = np.array([1000.0] + [1.0] * 999)
        static = WorkTrace()
        static.add("a", skew)
        dynamic = WorkTrace()
        dynamic.add("a", skew, schedule="dynamic")
        model = CostModel(MIRASOL)
        assert model.simulate(dynamic, 8).seconds <= model.simulate(static, 8).seconds

    def test_small_region_uses_light_barrier(self):
        tiny = WorkTrace()
        tiny.add("a", np.array([1.0]))  # one item: effective threads = 1
        sim = CostModel(MIRASOL).simulate(tiny, 40)
        assert sim.barrier_seconds == 0.0

    def test_breakdown_fractions_sum_to_one(self):
        t = WorkTrace()
        t.add("topdown", np.full(100, 3.0))
        t.add("augment", np.full(10, 5.0), memory_pattern="irregular")
        sim = CostModel(MIRASOL).simulate(t, 20)
        assert sum(sim.breakdown_fractions().values()) == pytest.approx(1.0)


class TestMonotonicityProperties:
    @given(threads=st.integers(1, 80))
    @settings(max_examples=30, deadline=None)
    def test_time_positive(self, threads):
        sim = CostModel(MIRASOL).simulate(flat_trace(), threads)
        assert sim.seconds > 0

    @given(
        items=st.integers(1, 2000),
        cost=st.floats(0.5, 50),
        threads=st.integers(2, 80),
    )
    @settings(max_examples=40, deadline=None)
    def test_speedup_bounded_by_capacity(self, items, cost, threads):
        t = WorkTrace()
        t.add("a", np.full(items, cost))
        model = CostModel(MIRASOL)
        speedup = model.speedup(t, threads)
        assert speedup <= MIRASOL.compute_capacity(threads) + 1e-6


class TestRunnerIntegration:
    def test_simulated_seconds_requires_trace(self):
        from repro.bench.runner import simulated_seconds
        from repro.graph.generators import random_bipartite
        from repro.matching.ss_bfs import ss_bfs

        g = random_bipartite(10, 10, 30, seed=0)
        result = ss_bfs(g)  # ss-bfs emits no trace
        with pytest.raises(BenchmarkError):
            simulated_seconds(result, MIRASOL, 4)
