"""Tests for the baseline processing models and the team simulator."""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines.models import (
    CrashRecovery,
    VisibilityPolicy,
    WriteConcurrency,
    all_models,
    concord_model,
    contracts_model,
    flat_acid_model,
    nested_model,
    saga_model,
)
from repro.workload.generator import team_workload
from repro.workload.simulator import (
    TeamSimulator,
    crash_lost_work,
    work_position,
)


class TestModelDefinitions:
    def test_five_models(self):
        names = [m.name for m in all_models()]
        assert names == ["concord", "contracts", "saga", "nested",
                         "flat_acid"]

    def test_concord_policies(self):
        model = concord_model()
        assert model.visibility is VisibilityPolicy.ON_PROPAGATE
        assert model.write_concurrency \
            is WriteConcurrency.VERSION_DERIVATION
        assert model.crash_recovery is CrashRecovery.RECOVERY_POINT
        assert model.recovery_point_interval == 30.0

    def test_flat_policies(self):
        model = flat_acid_model()
        assert model.visibility is VisibilityPolicy.ON_SESSION_COMMIT
        assert model.crash_recovery is CrashRecovery.RESTART_SESSION
        assert model.rework_probability == 0.0

    def test_saga_has_rework_risk(self):
        assert saga_model().rework_probability > \
            concord_model().rework_probability


class TestWorkloadGenerator:
    def test_deterministic(self):
        a = team_workload(4, seed=3)
        b = team_workload(4, seed=3)
        assert [s.step_durations for s in a.sessions] == \
               [s.step_durations for s in b.sessions]

    def test_dependencies_chain(self):
        workload = team_workload(4, steps_per_session=4)
        assert workload.sessions[0].dependencies == []
        for i in (1, 2, 3):
            dep = workload.sessions[i].dependencies[0]
            assert dep.producer == f"designer-{i - 1}"
            assert dep.producer_step < dep.consumer_step \
                or dep.producer_step <= dep.consumer_step

    def test_shared_border_objects(self):
        workload = team_workload(3)
        assert "border-0-1" in workload.sessions[0].writes
        assert "border-0-1" in workload.sessions[1].writes

    def test_total_work(self):
        workload = team_workload(2, steps_per_session=3)
        assert workload.total_work == pytest.approx(sum(
            sum(s.step_durations) for s in workload.sessions))

    def test_invalid_team_size(self):
        with pytest.raises(ValueError):
            team_workload(0)

    def test_session_lookup(self):
        workload = team_workload(2)
        assert workload.session("designer-1").session_id == "designer-1"
        with pytest.raises(KeyError):
            workload.session("ghost")


class TestTeamSimulator:
    def test_flat_serialises_completely(self):
        workload = team_workload(4, seed=1)
        metrics = TeamSimulator(flat_acid_model(), workload).run()
        assert metrics.makespan == pytest.approx(workload.total_work,
                                                 rel=1e-6)

    def test_concord_beats_flat(self):
        workload = team_workload(5, seed=2)
        concord = TeamSimulator(concord_model(), workload).run()
        flat = TeamSimulator(flat_acid_model(), workload).run()
        assert concord.makespan < flat.makespan

    def test_contracts_between_concord_and_flat(self):
        workload = team_workload(5, seed=2)
        concord = TeamSimulator(concord_model(), workload).run()
        contracts = TeamSimulator(contracts_model(), workload).run()
        flat = TeamSimulator(flat_acid_model(), workload).run()
        assert concord.makespan <= contracts.makespan <= flat.makespan

    def test_gap_grows_with_team_size(self):
        small_gap = None
        for size, expect_growth in ((3, False), (7, True)):
            workload = team_workload(size, seed=4)
            concord = TeamSimulator(concord_model(), workload).run()
            flat = TeamSimulator(flat_acid_model(), workload).run()
            gap = flat.makespan - concord.makespan
            if expect_growth:
                assert gap > small_gap
            else:
                small_gap = gap

    def test_single_session_no_blocking(self):
        workload = team_workload(1, seed=0)
        for model in all_models():
            metrics = TeamSimulator(model, workload).run()
            assert metrics.total_blocked == 0.0
            assert metrics.makespan == pytest.approx(
                workload.total_work)

    def test_work_conserved(self):
        workload = team_workload(4, seed=9)
        for model in all_models():
            metrics = TeamSimulator(model, workload).run()
            assert metrics.total_work == pytest.approx(
                workload.total_work, rel=1e-6)

    def test_saga_rework_recorded(self):
        workload = team_workload(6, seed=7)
        model = dataclasses.replace(saga_model(), rework_probability=1.0)
        metrics = TeamSimulator(model, workload).run()
        assert metrics.total_rework > 0.0

    def test_no_rework_without_probability(self):
        workload = team_workload(6, seed=7)
        metrics = TeamSimulator(nested_model(), workload).run()
        assert metrics.total_rework == 0.0

    def test_deterministic_runs(self):
        workload = team_workload(5, seed=11)
        a = TeamSimulator(concord_model(), workload).run()
        b = TeamSimulator(concord_model(), workload).run()
        assert a.makespan == b.makespan
        assert a.total_blocked == b.total_blocked


class TestWorkPosition:
    def test_within_first_step(self):
        step, in_step, done = work_position([10.0, 20.0], 4.0)
        assert (step, in_step, done) == (0, 4.0, 4.0)

    def test_at_boundary_enters_next(self):
        step, in_step, __ = work_position([10.0, 20.0], 10.0)
        assert (step, in_step) == (1, 0.0)

    def test_past_the_end(self):
        step, in_step, done = work_position([10.0, 20.0], 99.0)
        assert step == 2
        assert done == 30.0


class TestCrashLostWork:
    STEPS = [55.0, 70.0, 62.0, 48.0]

    def test_flat_linear_in_crash_time(self):
        flat = flat_acid_model()
        losses = [crash_lost_work(flat, self.STEPS, t).lost_work
                  for t in (20.0, 80.0, 150.0)]
        assert losses == [20.0, 80.0, 150.0]

    def test_step_models_bounded_by_step(self):
        for model in (nested_model(), contracts_model(), saga_model()):
            for t in (20.0, 80.0, 150.0, 200.0):
                lost = crash_lost_work(model, self.STEPS, t).lost_work
                assert lost <= max(self.STEPS)

    def test_concord_bounded_by_interval(self):
        model = concord_model(recovery_point_interval=15.0)
        for t in (20.0, 80.0, 150.0, 200.0):
            lost = crash_lost_work(model, self.STEPS, t).lost_work
            assert lost < 15.0

    def test_concord_ordering(self):
        for t in (20.0, 80.0, 150.0):
            concord = crash_lost_work(concord_model(10.0), self.STEPS,
                                      t).lost_work
            contracts = crash_lost_work(contracts_model(), self.STEPS,
                                        t).lost_work
            flat = crash_lost_work(flat_acid_model(), self.STEPS,
                                   t).lost_work
            assert concord <= contracts <= flat

    def test_crash_after_completion_loses_nothing(self):
        total = sum(self.STEPS)
        for model in all_models():
            assert crash_lost_work(model, self.STEPS,
                                   total + 1).lost_work == 0.0

    def test_concord_without_interval_behaves_like_step(self):
        model = concord_model(recovery_point_interval=0.0)
        lost = crash_lost_work(model, self.STEPS, 80.0).lost_work
        contracts = crash_lost_work(contracts_model(), self.STEPS,
                                    80.0).lost_work
        assert lost == contracts
