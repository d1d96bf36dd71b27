import numpy as np
import pytest

from repro.parallel.simulator import InterleavedSimulator, run_serial


def counting_program(results):
    def program(item, ts):
        yield
        results.append((item, ts.thread_id))
        yield

    return program


class TestParallelFor:
    def test_all_items_processed(self):
        sim = InterleavedSimulator(3, seed=0)
        seen = []
        sim.parallel_for(np.arange(10), counting_program(seen))
        assert sorted(i for i, _ in seen) == list(range(10))

    def test_static_chunking_respected(self):
        sim = InterleavedSimulator(2, seed=0)
        seen = []
        sim.parallel_for(np.arange(10), counting_program(seen))
        owner = dict(seen)
        assert all(owner[i] == 0 for i in range(5))
        assert all(owner[i] == 1 for i in range(5, 10))

    def test_items_in_order_within_thread(self):
        sim = InterleavedSimulator(2, seed=1)
        seen = []
        sim.parallel_for(np.arange(8), counting_program(seen))
        per_thread = {0: [], 1: []}
        for item, tid in seen:
            per_thread[tid].append(item)
        assert per_thread[0] == sorted(per_thread[0])
        assert per_thread[1] == sorted(per_thread[1])

    def test_interleaving_differs_across_seeds(self):
        orders = set()
        for seed in range(6):
            sim = InterleavedSimulator(4, seed=seed)
            seen = []
            sim.parallel_for(np.arange(16), counting_program(seen))
            orders.add(tuple(i for i, _ in seen))
        assert len(orders) > 1

    def test_deterministic_given_seed(self):
        runs = []
        for _ in range(2):
            sim = InterleavedSimulator(4, seed=9)
            seen = []
            sim.parallel_for(np.arange(12), counting_program(seen))
            runs.append(seen)
        assert runs[0] == runs[1]

    def test_thread_callbacks(self):
        sim = InterleavedSimulator(3, seed=0)
        started, ended = [], []
        sim.parallel_for(
            np.arange(3),
            counting_program([]),
            on_thread_start=lambda ts: started.append(ts.thread_id),
            on_thread_end=lambda ts: ended.append(ts.thread_id),
        )
        assert sorted(started) == [0, 1, 2]
        assert sorted(ended) == [0, 1, 2]

    def test_empty_items(self):
        sim = InterleavedSimulator(2, seed=0)
        states = sim.parallel_for(np.empty(0, dtype=int), counting_program([]))
        assert len(states) == 2

    def test_steps_counted(self):
        sim = InterleavedSimulator(2, seed=0)
        sim.parallel_for(np.arange(4), counting_program([]))
        assert sim.total_steps == 8  # two yields per item

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            InterleavedSimulator(0)


class TestRunSerial:
    def test_reference_order(self):
        seen = []
        state = run_serial(range(5), counting_program(seen))
        assert [i for i, _ in seen] == list(range(5))
        assert state.steps_executed == 10


class TestAnalysisHooks:
    def test_current_thread_set_during_steps(self):
        sim = InterleavedSimulator(3, seed=0)
        observed = []

        def program(item, ts):
            observed.append(sim.current_thread)
            yield
            observed.append(sim.current_thread)
            yield

        sim.parallel_for(np.arange(6), program)
        assert sim.current_thread is None
        assert all(t is not None for t in observed)
        assert set(observed) <= {0, 1, 2}

    def test_current_thread_matches_owner(self):
        sim = InterleavedSimulator(2, seed=0)
        pairs = []

        def program(item, ts):
            pairs.append((sim.current_thread, ts.thread_id))
            yield

        sim.parallel_for(np.arange(8), program)
        assert all(cur == tid for cur, tid in pairs)

    def test_current_thread_none_outside(self):
        sim = InterleavedSimulator(2, seed=0)
        assert sim.current_thread is None

    def test_faults_default_empty(self):
        assert InterleavedSimulator(2, seed=0).faults == frozenset()

    def test_faults_passthrough(self):
        sim = InterleavedSimulator(2, seed=0, faults=("non-atomic-visited",))
        assert "non-atomic-visited" in sim.faults
