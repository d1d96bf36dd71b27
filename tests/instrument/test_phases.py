import pytest

from repro.core.driver import ms_bfs_graft
from repro.graph.generators import surplus_core_bipartite
from repro.instrument.phases import phase_profile
from repro.matching.greedy import greedy_matching
from repro.parallel.trace import WorkTrace


class TestPhaseProfileFromSyntheticTrace:
    def test_single_phase(self):
        t = WorkTrace()
        t.add("topdown", [3.0, 4.0])
        t.add("augment", [1.0])
        profile = phase_profile(t)
        assert profile.num_phases == 1
        assert profile.phases[0].traversal_work == 7.0
        assert profile.phases[0].augmentations == 1

    def test_two_phases_with_graft_branch(self):
        t = WorkTrace()
        t.add("topdown", [5.0])
        t.add("augment", [1.0, 3.0])
        t.add_uniform("statistics", 10, 1.0)
        t.add("grafting", [2.0, 2.0])  # itemised = graft branch taken
        t.add("topdown", [1.0])
        profile = phase_profile(t)
        assert profile.num_phases == 2
        assert profile.phases[0].used_graft_branch
        assert profile.phases[0].augmentations == 2
        assert profile.phases[1].traversal_work == 1.0

    def test_rebuild_branch_detected(self):
        t = WorkTrace()
        t.add("topdown", [5.0])
        t.add("augment", [1.0])
        t.add_uniform("grafting", 20, 1.0)  # uniform = destroy-and-rebuild
        t.add("topdown", [2.0])
        profile = phase_profile(t)
        assert not profile.phases[0].used_graft_branch

    def test_empty_trace(self):
        profile = phase_profile(WorkTrace())
        assert profile.num_phases == 1
        assert profile.total_traversal_work() == 0.0
        assert profile.augmentation_series() == [0]
        assert profile.traversal_work_series() == [0.0]

    def test_zero_augment_regions(self):
        # A run whose initial matching is already maximum traverses once,
        # finds nothing, and never augments or grafts.
        t = WorkTrace()
        t.add("topdown", [2.0, 1.0])
        t.add("topdown", [0.5])
        profile = phase_profile(t)
        assert profile.num_phases == 1
        assert profile.phases[0].augmentations == 0
        assert profile.phases[0].augment_work == 0.0
        assert profile.phases[0].traversal_levels == 2  # one per region
        assert not profile.phases[0].used_graft_branch

    def test_trace_ending_mid_phase(self):
        # The final phase of every real run ends after its (empty) augment
        # scan with no grafting region; it must still be recorded.
        t = WorkTrace()
        t.add("topdown", [4.0])
        t.add("augment", [1.0])
        t.add("grafting", [2.0])
        t.add("topdown", [1.0])
        t.add("augment", [3.0])  # trace stops here: no step-3 region
        profile = phase_profile(t)
        assert profile.num_phases == 2
        assert profile.phases[1].augmentations == 1
        assert profile.phases[1].graft_work == 0.0

    def test_statistics_only_tail_not_a_phase(self):
        # A trailing statistics region after the last grafting region is
        # bookkeeping, not a new phase.
        t = WorkTrace()
        t.add("topdown", [4.0])
        t.add("augment", [1.0])
        t.add("grafting", [2.0])
        t.add_uniform("statistics", 5, 1.0)
        profile = phase_profile(t)
        assert profile.num_phases == 1


class TestPhaseProfileFromRealRuns:
    @pytest.fixture(scope="class")
    def runs(self):
        graph = surplus_core_bipartite(400, 240, seed=0)
        init = greedy_matching(graph, shuffle=True, seed=1).matching
        graft = ms_bfs_graft(graph, init, direction_optimizing=False)
        nograft = ms_bfs_graft(graph, init, direction_optimizing=False, grafting=False)
        return graft, nograft

    def test_phase_count_matches_counters(self, runs):
        graft, nograft = runs
        assert phase_profile(graft.trace).num_phases == graft.counters.phases
        assert phase_profile(nograft.trace).num_phases == nograft.counters.phases

    def test_augmentations_match_counters(self, runs):
        graft, _ = runs
        profile = phase_profile(graft.trace)
        assert sum(profile.augmentation_series()) == graft.counters.augmentations

    def test_grafting_reduces_total_traversal(self, runs):
        graft, nograft = runs
        assert (
            phase_profile(graft.trace).total_traversal_work()
            <= phase_profile(nograft.trace).total_traversal_work()
        )

    def test_nograft_never_uses_graft_branch(self, runs):
        _, nograft = runs
        profile = phase_profile(nograft.trace)
        assert not any(p.used_graft_branch for p in profile.phases)


class TestPhaseDynamicsExperiment:
    def test_driver(self):
        from repro.bench.experiments import phase_dynamics

        result = phase_dynamics.run(scale=0.08)
        out = result.render()
        assert "Per-phase dynamics" in out
        assert "grafting saves" in out
        assert result.graft.num_phases >= 1
