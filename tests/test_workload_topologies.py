"""Tests for the fan-in (integration) workload topology."""

from __future__ import annotations

import pytest

from repro.baselines.models import all_models, concord_model, flat_acid_model
from repro.workload.generator import (
    Dependency,
    SessionSpec,
    integration_workload,
    team_workload,
)
from repro.workload.simulator import TeamSimulator


class TestIntegrationWorkload:
    def test_structure(self):
        workload = integration_workload(team_size=4, seed=1)
        assert len(workload.sessions) == 5
        integrator = workload.session("integrator")
        assert len(integrator.dependencies) == 4
        producers = {d.producer for d in integrator.dependencies}
        assert producers == {f"designer-{i}" for i in range(4)}

    def test_designers_independent(self):
        workload = integration_workload(team_size=3, seed=2)
        for i in range(3):
            assert workload.session(f"designer-{i}").dependencies == []

    def test_invalid_team_size(self):
        with pytest.raises(ValueError):
            integration_workload(0)

    def test_deterministic(self):
        a = integration_workload(4, seed=9)
        b = integration_workload(4, seed=9)
        assert [s.step_durations for s in a.sessions] == \
               [s.step_durations for s in b.sessions]


class TestFanInSimulation:
    def test_all_models_complete(self):
        workload = integration_workload(team_size=4, seed=3)
        for model in all_models():
            metrics = TeamSimulator(model, workload).run()
            assert metrics.sessions["integrator"].end > 0

    def test_concord_integrator_starts_before_producers_commit(self):
        """The integrator consumes *preliminary* results: under
        CONCORD it can proceed once the producers' pre-release step is
        done, under flat ACID only after every producer commits."""
        workload = integration_workload(team_size=5, seed=3)
        concord = TeamSimulator(concord_model(), workload).run()
        flat = TeamSimulator(flat_acid_model(), workload).run()
        assert concord.sessions["integrator"].end \
            < flat.sessions["integrator"].end
        assert concord.makespan <= flat.makespan

    def test_commit_visibility_waits_for_slowest(self):
        workload = integration_workload(team_size=4, seed=5)
        flat = TeamSimulator(flat_acid_model(), workload).run()
        slowest_producer_end = max(
            flat.sessions[f"designer-{i}"].end for i in range(4))
        integrator = flat.sessions["integrator"]
        # the integrator's dependent step cannot predate the slowest
        # producer's commit
        assert integrator.end >= slowest_producer_end


class TestMultiDependencySemantics:
    def test_dependencies_at(self):
        spec = SessionSpec("s", [1.0, 2.0, 3.0], dependencies=[
            Dependency("p1", 0, 1), Dependency("p2", 0, 1),
            Dependency("p3", 0, 2)])
        assert len(spec.dependencies_at(1)) == 2
        assert len(spec.dependencies_at(2)) == 1
        assert spec.dependencies_at(0) == []


class TestReadLocality:
    """The re-read locality knob feeding the T8 data-shipping runs."""

    def test_reads_off_by_default(self):
        workload = team_workload(3)
        assert all(s.reads == [] for s in workload.sessions)
        assert workload.sessions[0].reads_at(0) == []

    def test_reads_generated_per_step(self):
        workload = team_workload(3, steps_per_session=4,
                                 reads_per_step=2, reread_locality=0.5)
        for spec in workload.sessions:
            assert len(spec.reads) == 4
            for step_reads in spec.reads:
                assert len(step_reads) == 2
                # distinct within one step; drawn from the library pool
                assert len(set(step_reads)) == 2
                assert all(obj.startswith("lib-")
                           for obj in step_reads)

    def test_full_locality_rereads_the_working_set(self):
        workload = team_workload(2, steps_per_session=5,
                                 reads_per_step=1,
                                 reread_locality=1.0, object_pool=8)
        for spec in workload.sessions:
            # after the first (cold) read every step revisits it
            first = spec.reads[0][0]
            assert all(step == [first] for step in spec.reads[1:])

    def test_zero_locality_never_needs_history(self):
        workload = team_workload(2, steps_per_session=4,
                                 reads_per_step=2,
                                 reread_locality=0.0, object_pool=8)
        seen = {obj for spec in workload.sessions
                for step in spec.reads for obj in step}
        assert seen  # fresh pool draws only

    def test_reads_are_seed_deterministic(self):
        first = team_workload(3, reads_per_step=2, reread_locality=0.6)
        second = team_workload(3, reads_per_step=2, reread_locality=0.6)
        assert [s.reads for s in first.sessions] \
            == [s.reads for s in second.sessions]
