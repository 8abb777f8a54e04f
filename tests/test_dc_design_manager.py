"""Integration tests for the design manager (workflow, events, recovery)."""

from __future__ import annotations

import pytest

from repro.core.system import ConcordSystem
from repro.dc.design_manager import DesignerPolicy
from repro.dc.constraints import DomainConstraintSet, NotBefore
from repro.dc.script import (
    Alternative,
    DaOpStep,
    DopStep,
    Iteration,
    Open,
    Script,
    Sequence,
)
from repro.core.features import DesignSpecification, RangeFeature
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    Constraint,
    DesignObjectType,
)
from repro.repository.wal import LogRecordKind


def _area_non_negative(data: dict) -> bool:
    return (data.get("area") or 0) >= 0



def build_system(constraints=None):
    system = ConcordSystem()
    system.add_workstation("ws-1")
    if constraints is not None:
        system.constraints = constraints
    system.tools.register(
        "halve", lambda ctx, p: ctx.data.update(
            area=ctx.data.get("area", 200.0) * 0.5), duration=10.0)
    system.tools.register(
        "negate", lambda ctx, p: ctx.data.update(
            area=-abs(ctx.data.get("area", 1.0))), duration=5.0)
    system.tools.register("noop", lambda ctx, p: None, duration=1.0)
    return system


def make_dot():
    return DesignObjectType("Cell", attributes=[
        AttributeDef("area", AttributeKind.FLOAT, required=False)],
        constraints=[Constraint("range(area)", _area_non_negative)])


def start_da(system, script, spec=None, initial_area=400.0):
    dot = make_dot()
    spec = spec or DesignSpecification(
        [RangeFeature("area-limit", "area", hi=100.0)])
    da = system.init_design(dot, spec, "alice", script, "ws-1",
                            initial_data={"area": initial_area})
    system.start(da.da_id)
    return da


class TestAutomaticExecution:
    def test_sequence_runs_to_completion(self):
        system = build_system()
        da = start_da(system, Script(Sequence(
            DopStep("halve"), DopStep("halve"), DaOpStep("Evaluate"))))
        status = system.run(da.da_id)
        assert status.done
        assert status.executed_dops == 2
        assert da.final_dovs  # 400 -> 200 -> 100 <= limit

    def test_derivation_chain_built(self):
        system = build_system()
        da = start_da(system, Script(Sequence(DopStep("halve"),
                                              DopStep("halve"))))
        system.run(da.da_id)
        graph = system.repository.graph(da.da_id)
        assert len(graph) == 3  # DOV0 + 2 derived
        leaf = graph.leaves()[0]
        assert len(graph.ancestors_of(leaf.dov_id)) == 2

    def test_executed_tools_recorded(self):
        system = build_system()
        da = start_da(system, Script(Sequence(DopStep("halve"),
                                              DopStep("noop"))))
        dm = system.runtime(da.da_id).dm
        system.run(da.da_id)
        assert dm.executed_tools == ["halve", "noop"]

    def test_clock_advances_by_tool_durations(self):
        system = build_system()
        da = start_da(system, Script(Sequence(DopStep("halve"),
                                              DopStep("halve"))))
        system.run(da.da_id)
        assert system.clock.now == pytest.approx(20.0)


class TestDesignerPolicy:
    def test_alternative_choice(self):
        system = build_system()

        class PickSecond(DesignerPolicy):
            def choose_alternative(self, action):
                return 1

        da = start_da(system, Script(Alternative(DopStep("halve"),
                                                 DopStep("noop"))))
        system.runtime(da.da_id).dm.policy = PickSecond()
        system.run(da.da_id)
        dm = system.runtime(da.da_id).dm
        assert dm.executed_tools == ["noop"]

    def test_kernel_run_asks_the_dms_policy(self):
        """The designer is the DM's, not a per-call argument: a run on
        the kernel resolves the Alternative the same way."""
        system = build_system()

        class PickSecond(DesignerPolicy):
            def choose_alternative(self, action):
                return 1

        da = start_da(system, Script(Alternative(DopStep("halve"),
                                                 DopStep("noop"))))
        system.runtime(da.da_id).dm.policy = PickSecond()
        statuses = system.run_concurrent([da.da_id])
        assert statuses[da.da_id].done
        assert system.runtime(da.da_id).dm.executed_tools == ["noop"]

    def test_iteration_until_goal(self):
        system = build_system()

        class IterateUntilFinal(DesignerPolicy):
            def __init__(self, system, da_id):
                self.system = system
                self.da_id = da_id

            def loop_decision(self, action):
                da = self.system.cm.da(self.da_id)
                return "exit" if da.final_dovs else "again"

        da = start_da(system, Script(Iteration(
            Sequence(DopStep("halve"), DaOpStep("Evaluate")),
            max_rounds=10)))
        system.runtime(da.da_id).dm.policy = \
            IterateUntilFinal(system, da.da_id)
        system.run(da.da_id)
        dm = system.runtime(da.da_id).dm
        # 400 -> 200 -> 100: two rounds needed
        assert dm.executed_dops == 2
        assert da.final_dovs

    def test_open_insertion(self):
        system = build_system()

        class InsertOnce(DesignerPolicy):
            def __init__(self):
                self.inserted = False

            def open_decision(self, action):
                if not self.inserted:
                    self.inserted = True
                    return ("insert", "halve")
                return "close"

        da = start_da(system, Script(Sequence(DopStep("halve"), Open())))
        system.runtime(da.da_id).dm.policy = InsertOnce()
        system.run(da.da_id)
        dm = system.runtime(da.da_id).dm
        assert dm.executed_tools == ["halve", "halve"]
        assert dm.cursor.is_done()

    def test_unknown_inserted_tool_rejected(self):
        system = build_system()

        class InsertBogus(DesignerPolicy):
            def open_decision(self, action):
                return ("insert", "no-such-tool")

        da = start_da(system, Script(Open()))
        from repro.util.errors import WorkflowError
        with pytest.raises(WorkflowError):
            system.runtime(da.da_id).dm.policy = InsertBogus()
            system.run(da.da_id)


class TestCheckinFailureHandling:
    def test_stop_on_failure(self):
        system = build_system()
        da = start_da(system, Script(Sequence(DopStep("negate"),
                                              DopStep("halve"))))
        status = system.run(da.da_id)
        assert status.stopped
        dm = system.runtime(da.da_id).dm
        assert "checkin failure" in dm.stop_reason
        assert dm.aborted_dops == 1
        assert dm.executed_dops == 0

    def test_skip_on_failure(self):
        system = build_system()

        class Skip(DesignerPolicy):
            def on_checkin_failure(self, step, reason):
                return "skip"

        da = start_da(system, Script(Sequence(DopStep("negate"),
                                              DopStep("halve"))))
        system.runtime(da.da_id).dm.policy = Skip()
        status = system.run(da.da_id)
        assert status.done
        dm = system.runtime(da.da_id).dm
        assert dm.aborted_dops == 1
        assert dm.executed_tools == ["halve"]


class TestDomainConstraintEnforcement:
    def test_constraint_stops_execution(self):
        constraints = DomainConstraintSet([NotBefore("halve", "noop")])
        system = build_system(constraints)
        da = start_da(system, Script(Sequence(DopStep("noop"),
                                              DopStep("halve"))))
        status = system.run(da.da_id)
        assert status.stopped
        assert "must not run before" in \
               system.runtime(da.da_id).dm.stop_reason

    def test_constraint_allows_correct_order(self):
        constraints = DomainConstraintSet([NotBefore("halve", "noop")])
        system = build_system(constraints)
        da = start_da(system, Script(Sequence(DopStep("halve"),
                                              DopStep("noop"))))
        assert system.run(da.da_id).done


class TestExternalEvents:
    def test_spec_modification_restarts_script(self):
        system = build_system()
        da = start_da(system, Script(Sequence(DopStep("halve"),
                                              DopStep("halve"))))
        system.run(da.da_id)
        dm = system.runtime(da.da_id).dm
        assert dm.cursor.is_done()
        dm.on_specification_modified()
        assert not dm.cursor.is_done()
        assert dm.executed_tools == []
        status = system.run(da.da_id)
        assert status.done

    def test_restart_from_chosen_dov(self):
        system = build_system()
        da = start_da(system, Script(Sequence(DopStep("halve"))))
        system.run(da.da_id)
        graph = system.repository.graph(da.da_id)
        dov0 = graph.root_id
        dm = system.runtime(da.da_id).dm
        dm.on_specification_modified(restart_dov=dov0)
        system.run(da.da_id)
        # the restarted DOP derived from DOV0, not from the leaf
        leaves = graph.leaves()
        new_leaf = max(leaves, key=lambda d: d.created_at)
        assert dov0 in new_leaf.parents

    def test_withdrawal_of_used_dov_stops(self):
        system = build_system()
        da = start_da(system, Script(Sequence(DopStep("halve"))))
        system.run(da.da_id)
        dm = system.runtime(da.da_id).dm
        used = dm.log.stable_records()[0]
        input_dov = system.repository.graph(da.da_id).root_id
        assert dm.on_withdrawal(input_dov) is True
        assert dm.stopped
        dm.designer_continue()
        assert not dm.stopped

    def test_withdrawal_of_unused_dov_continues(self):
        system = build_system()
        da = start_da(system, Script(Sequence(DopStep("halve"))))
        system.run(da.da_id)
        dm = system.runtime(da.da_id).dm
        assert dm.on_withdrawal("dov-unrelated") is False
        assert not dm.stopped


class TestDmCrashRecovery:
    def test_forward_recovery_restores_position(self):
        system = build_system()
        da = start_da(system, Script(Sequence(
            DopStep("halve"), DopStep("halve"), DopStep("noop"))))
        runtime = system.runtime(da.da_id)
        runtime.dm.step()   # first DOP only
        executed_before = runtime.dm.executed_dops
        system.crash_workstation("ws-1")
        reports = system.restart_workstation("ws-1")
        report = reports[da.da_id]
        assert report["executed_dops"] == executed_before
        # and the work flow can continue to completion
        status = system.run(da.da_id)
        assert status.done
        assert runtime.dm.executed_dops == 3

    def test_recovery_replays_decisions(self):
        system = build_system()

        class PickSecond(DesignerPolicy):
            def choose_alternative(self, action):
                return 1

        da = start_da(system, Script(Sequence(
            Alternative(DopStep("halve"), DopStep("noop")),
            DopStep("halve"))))
        runtime = system.runtime(da.da_id)
        runtime.dm.policy = PickSecond()
        runtime.dm.step()   # decide the alternative
        runtime.dm.step()   # run 'noop'
        system.crash_workstation("ws-1")
        system.restart_workstation("ws-1")
        status = system.run(da.da_id)
        assert status.done
        assert runtime.dm.executed_tools == ["noop", "halve"]

    def test_recovery_replays_an_insertion(self):
        """An Open segment's ``('insert', tool)`` decision replays as
        it was fired: the replayed cursor enables the inserted step."""
        system = build_system()

        class InsertOnce(DesignerPolicy):
            def __init__(self):
                self.inserted = False

            def open_decision(self, action):
                if not self.inserted:
                    self.inserted = True
                    return ("insert", "halve")
                return "close"

        da = start_da(system, Script(Sequence(DopStep("noop"), Open())))
        runtime = system.runtime(da.da_id)
        runtime.dm.policy = InsertOnce()
        runtime.dm.step()   # run 'noop'
        runtime.dm.step()   # insert 'halve'
        enabled = [a.token for a in runtime.dm.cursor.enabled()]
        system.crash_workstation("ws-1")
        report = system.restart_workstation("ws-1")[da.da_id]
        assert report["script_positions_replayed"] == 2
        assert runtime.dm.cursor.history[-1] == ("0.s1", ("insert", "halve"))
        assert [a.token for a in runtime.dm.cursor.enabled()] == enabled
        assert system.run(da.da_id).done
        assert runtime.dm.executed_tools == ["noop", "halve"]

    def test_the_log_keeps_an_insertion_as_its_tuple(self):
        """The decision a replay reads back is the very tuple that was
        fired, on the stable log, across a crash and a restart."""
        system = build_system()

        class InsertOnce(DesignerPolicy):
            def open_decision(self, action):
                return "close" if runtime.dm.executed_tools[1:] \
                    else ("insert", "halve")

        da = start_da(system, Script(Sequence(DopStep("noop"), Open())))
        runtime = system.runtime(da.da_id)
        runtime.dm.policy = InsertOnce()
        runtime.dm.step()   # run 'noop'
        runtime.dm.step()   # insert 'halve'
        system.crash_workstation("ws-1")
        system.restart_workstation("ws-1")
        decisions = [record.payload["decision"] for record in
                     runtime.dm.log.stable_records(
                         LogRecordKind.SCRIPT_POSITION)]
        assert ("insert", "halve") in decisions
        assert type(decisions[decisions.index(("insert", "halve"))]) \
            is tuple
        assert system.run(da.da_id).done
        assert runtime.dm.executed_tools == ["noop", "halve"]

    @pytest.mark.parametrize("steps", [0, 1, 2])
    @pytest.mark.parametrize("basis", [False, True])
    def test_recovery_after_a_spec_modification_replays_only_the_restart(
            self, steps, basis):
        system = build_system()
        da = start_da(system, Script(Sequence(
            DopStep("halve"), DopStep("noop"), DopStep("halve"))))
        dm = system.runtime(da.da_id).dm
        assert system.run(da.da_id).done
        restart_dov = system.repository.graph(da.da_id).root_id \
            if basis else None
        dm.on_specification_modified(restart_dov=restart_dov)
        for _ in range(steps):
            assert dm.step()

        def state():
            return ([action.token for action in dm.cursor.enabled()],
                    list(dm.executed_tools), dm.restart_dov,
                    dm.executed_dops)

        before = state()
        system.crash_workstation("ws-1")
        system.restart_workstation("ws-1")
        dm = system.runtime(da.da_id).dm
        assert state() == before
        assert system.run(da.da_id).done
        assert dm.executed_tools == ["halve", "noop", "halve"]


class TestTraceThatIsOffIsFree:
    """A DM row is formatted only when somebody will read it."""

    class Shouting:
        """A DA-operation result that counts how often it is rendered."""

        rendered = 0

        def __str__(self):
            type(self).rendered += 1
            return "evaluated " + "x" * 100

    def drive(self, trace, monkeypatch):
        system = ConcordSystem(trace=trace)
        system.add_workstation("ws-1")
        system.tools.register("noop", lambda ctx, p: None, duration=1.0)
        da = start_da(system, Script(Sequence(
            DopStep("noop"), DaOpStep("Evaluate"),
            Open(allowed_tools=("noop",)))))
        runtime = system.runtime(da.da_id)
        monkeypatch.setattr(type(runtime.binding), "da_operation",
                            lambda *args: self.Shouting())
        self.Shouting.rendered = 0
        assert system.run(da.da_id).done
        system.crash_workstation("ws-1")
        system.restart_workstation("ws-1")
        return [(e.component, e.operation, e.subject, e.detail)
                for e in system.trace
                if e.component.partition(":")[0] == "DM"]

    def test_no_row_no_string(self, monkeypatch):
        assert self.drive(False, monkeypatch) == []
        assert self.Shouting.rendered == 0

    def test_an_enabled_trace_still_gets_every_row(self, monkeypatch):
        rows = self.drive(True, monkeypatch)
        assert self.Shouting.rendered == 1
        da_id = rows[0][0].removeprefix("DM:")
        assert [(operation, subject, detail)
                for __, operation, subject, detail in rows] == [
            ("dop_start", "dop-1", {"tool": "noop"}),
            ("dop_commit", "dop-1", {"tool": "noop", "output": "dov-2"}),
            ("da_operation", "Evaluate",
             {"result": "evaluated " + "x" * 70}),
            ("open_decision", "0.s2", {"decision": "close"}),
            ("dm_recovered", da_id, {
                "script_positions_replayed": "3", "executed_dops": "1",
                "in_flight_resumed": "None"}),
        ]
