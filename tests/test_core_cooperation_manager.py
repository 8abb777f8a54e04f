"""Integration tests for the cooperation manager: delegation + scope."""

from __future__ import annotations

import pytest

from repro.scenario.delegation import chip_spec, make_vlsi_system
from repro.core.features import DesignSpecification, RangeFeature
from repro.core.states import DaState
from repro.dc.script import DopStep, Script, Sequence
from repro.repository.schema import DesignObjectType
from repro.util.errors import (
    CooperationError,
    DelegationError,
    IllegalTransitionError,
    ScopeViolationError,
)
from repro.vlsi.tools import vlsi_dots


NOOP = Script(Sequence(DopStep("structure_synthesis")), "noop")


@pytest.fixture
def rig():
    system = make_vlsi_system(("ws-1", "ws-2", "ws-3"))
    dots = vlsi_dots()
    top = system.init_design(
        dots["Chip"], chip_spec(100, 100), "lead", NOOP, "ws-1",
        initial_data={"cell": "chip", "level": "chip",
                      "behavior": {"operations": ["a", "b"]}})
    system.start(top.da_id)
    return system, dots, top


class TestInitDesign:
    def test_creates_generated_da_with_dov0(self, rig):
        system, dots, top = rig
        assert top.is_top_level
        assert top.vector.initial_dov is not None
        assert system.repository.has_graph(top.da_id)
        assert top.vector.initial_dov in system.repository.graph(top.da_id)

    def test_start_required_before_work(self, rig):
        system, dots, __ = rig
        da = system.init_design(dots["Chip"], chip_spec(10, 10), "x",
                                NOOP, "ws-1")
        assert da.state is DaState.GENERATED
        with pytest.raises(IllegalTransitionError):
            system.cm.propagate(da.da_id, "dov-1")
        system.start(da.da_id)
        assert da.state is DaState.ACTIVE


class TestDelegation:
    def test_create_sub_da(self, rig):
        system, dots, top = rig
        sub = system.create_sub_da(top.da_id, dots["Module"],
                                   chip_spec(50, 50), "sue", NOOP, "ws-2")
        assert sub.parent == top.da_id
        assert sub.da_id in top.children
        assert sub.state is DaState.GENERATED

    def test_dot_must_be_part_of_super_dot(self, rig):
        system, dots, top = rig
        foreign = DesignObjectType("Foreign")
        with pytest.raises(DelegationError):
            system.create_sub_da(top.da_id, foreign, chip_spec(1, 1),
                                 "x", NOOP, "ws-2")

    def test_sub_of_sub(self, rig):
        system, dots, top = rig
        module = system.create_sub_da(top.da_id, dots["Module"],
                                      chip_spec(50, 50), "m", NOOP,
                                      "ws-2")
        system.start(module.da_id)
        block = system.create_sub_da(module.da_id, dots["Block"],
                                     chip_spec(20, 20), "b", NOOP,
                                     "ws-3")
        assert system.cm.hierarchy_depth(block.da_id) == 2

    def test_initial_dov_must_be_in_super_scope(self, rig):
        system, dots, top = rig
        with pytest.raises(ScopeViolationError):
            system.create_sub_da(top.da_id, dots["Module"],
                                 chip_spec(1, 1), "x", NOOP, "ws-2",
                                 initial_dov="dov-404")

    def test_initial_dov_enters_sub_scope(self, rig):
        system, dots, top = rig
        dov0 = top.vector.initial_dov
        sub = system.create_sub_da(top.da_id, dots["Module"],
                                   chip_spec(50, 50), "sue", NOOP,
                                   "ws-2", initial_dov=dov0)
        assert system.cm.in_scope(sub.da_id, dov0)

    def test_generated_sub_cannot_delegate(self, rig):
        system, dots, top = rig
        sub = system.create_sub_da(top.da_id, dots["Module"],
                                   chip_spec(50, 50), "s", NOOP, "ws-2")
        with pytest.raises(IllegalTransitionError):
            system.create_sub_da(sub.da_id, dots["Block"],
                                 chip_spec(1, 1), "x", NOOP, "ws-2")


class TestEvaluateAndReadyToCommit:
    def _sub_with_dov(self, rig, width=10.0):
        system, dots, top = rig
        sub = system.create_sub_da(top.da_id, dots["Module"],
                                   chip_spec(50, 50), "sue", NOOP, "ws-2")
        system.start(sub.da_id)
        dov = system.repository.checkin(
            sub.da_id, "Module",
            {"cell": "m", "level": "module", "width": width,
             "height": 10.0, "area": width * 10.0})
        return system, top, sub, dov

    def test_evaluate_records_quality(self, rig):
        system, top, sub, dov = self._sub_with_dov(rig)
        quality = system.cm.evaluate(sub.da_id, dov.dov_id)
        assert quality.is_final
        assert sub.final_dovs == [dov.dov_id]

    def test_evaluate_preliminary(self, rig):
        system, top, sub, dov = self._sub_with_dov(rig, width=90.0)
        quality = system.cm.evaluate(sub.da_id, dov.dov_id)
        assert not quality.is_final
        assert "width-limit" in quality.missing
        assert sub.final_dovs == []

    def test_evaluate_out_of_scope_rejected(self, rig):
        system, top, sub, __ = self._sub_with_dov(rig)
        with pytest.raises(ScopeViolationError):
            system.cm.evaluate(sub.da_id, top.vector.initial_dov)

    def test_ready_to_commit_requires_final(self, rig):
        system, top, sub, dov = self._sub_with_dov(rig, width=90.0)
        system.cm.evaluate(sub.da_id, dov.dov_id)
        with pytest.raises(CooperationError):
            system.cm.sub_da_ready_to_commit(sub.da_id)

    def test_ready_to_commit_notifies_super(self, rig):
        system, top, sub, dov = self._sub_with_dov(rig)
        system.cm.evaluate(sub.da_id, dov.dov_id)
        system.cm.sub_da_ready_to_commit(sub.da_id)
        assert sub.state is DaState.READY_FOR_TERMINATION
        messages = system.cm.pop_messages(top.da_id, "ready_to_commit")
        assert len(messages) == 1
        assert messages[0].payload["final_dovs"] == [dov.dov_id]

    def test_super_may_read_finals_at_ready(self, rig):
        """'a super-DA may read the final DOVs of a sub-DA as soon as
        the sub-DA changes its state to ready-for-termination'."""
        system, top, sub, dov = self._sub_with_dov(rig)
        assert not system.cm.in_scope(top.da_id, dov.dov_id)
        system.cm.evaluate(sub.da_id, dov.dov_id)
        system.cm.sub_da_ready_to_commit(sub.da_id)
        assert system.cm.in_scope(top.da_id, dov.dov_id)

    def test_top_level_cannot_be_ready(self, rig):
        system, __, top = rig[0], rig[1], rig[2]
        with pytest.raises(CooperationError):
            system.cm.sub_da_ready_to_commit(top.da_id)


class TestTerminate:
    def _ready_sub(self, rig):
        system, dots, top = rig
        sub = system.create_sub_da(top.da_id, dots["Module"],
                                   chip_spec(50, 50), "sue", NOOP, "ws-2")
        system.start(sub.da_id)
        final = system.repository.checkin(
            sub.da_id, "Module", {"cell": "m", "level": "module",
                                  "width": 10.0, "height": 10.0,
                                  "area": 100.0})
        preliminary = system.repository.checkin(
            sub.da_id, "Module", {"cell": "m", "level": "module",
                                  "width": 90.0, "height": 90.0,
                                  "area": 8100.0},
            parents=(final.dov_id,))
        system.cm.evaluate(sub.da_id, final.dov_id)
        system.cm.evaluate(sub.da_id, preliminary.dov_id)
        system.cm.sub_da_ready_to_commit(sub.da_id)
        return system, top, sub, final, preliminary

    def test_final_dovs_devolve(self, rig):
        system, top, sub, final, preliminary = self._ready_sub(rig)
        inherited = system.cm.terminate_sub_da(top.da_id, sub.da_id)
        assert inherited == [final.dov_id]
        assert sub.state is DaState.TERMINATED
        assert system.cm.in_scope(top.da_id, final.dov_id)
        assert not system.cm.in_scope(top.da_id, preliminary.dov_id)

    def test_only_super_may_terminate(self, rig):
        system, top, sub, __, __p = self._ready_sub(rig)
        with pytest.raises(DelegationError):
            system.cm.terminate_sub_da("da-999", sub.da_id)

    def test_terminated_da_refuses_operations(self, rig):
        system, top, sub, final, __ = self._ready_sub(rig)
        system.cm.terminate_sub_da(top.da_id, sub.da_id)
        with pytest.raises(IllegalTransitionError):
            system.cm.evaluate(sub.da_id, final.dov_id)

    def test_children_of_excludes_terminated(self, rig):
        system, top, sub, __, __p = self._ready_sub(rig)
        system.cm.terminate_sub_da(top.da_id, sub.da_id)
        assert system.cm.children_of(top.da_id) == []
        assert len(system.cm.children_of(top.da_id,
                                         include_terminated=True)) == 1

    def test_finish_top_level_releases_locks(self, rig):
        system, top, sub, final, __ = self._ready_sub(rig)
        system.cm.terminate_sub_da(top.da_id, sub.da_id)
        system.cm.finish_top_level(top.da_id)
        assert system.cm.da(top.da_id).state is DaState.TERMINATED
        assert system.locks.scope_of(top.da_id) == set()

    def test_finish_top_level_blocked_by_live_subs(self, rig):
        system, top, sub, __, __p = self._ready_sub(rig)
        with pytest.raises(CooperationError):
            system.cm.finish_top_level(top.da_id)


class TestModifySpecification:
    def test_modification_reevaluates(self, rig):
        system, dots, top = rig
        sub = system.create_sub_da(top.da_id, dots["Module"],
                                   chip_spec(5, 5), "sue", NOOP, "ws-2")
        system.start(sub.da_id)
        dov = system.repository.checkin(
            sub.da_id, "Module", {"cell": "m", "level": "module",
                                  "width": 10.0, "height": 10.0,
                                  "area": 100.0})
        quality = system.cm.evaluate(sub.da_id, dov.dov_id)
        assert not quality.is_final  # 10 > 5
        system.cm.modify_sub_da_specification(top.da_id, sub.da_id,
                                              chip_spec(20, 20))
        # re-evaluation under the new spec turned the DOV final
        assert sub.final_dovs == [dov.dov_id]

    def test_only_super_may_modify(self, rig):
        system, dots, top = rig
        sub = system.create_sub_da(top.da_id, dots["Module"],
                                   chip_spec(5, 5), "sue", NOOP, "ws-2")
        with pytest.raises(DelegationError):
            system.cm.modify_sub_da_specification("da-999", sub.da_id,
                                                  chip_spec(1, 1))

    def test_dm_notified_for_restart(self, rig):
        system, dots, top = rig
        sub = system.create_sub_da(top.da_id, dots["Module"],
                                   chip_spec(5, 5), "sue", NOOP, "ws-2")
        system.start(sub.da_id)
        dm = system.runtime(sub.da_id).dm
        dm.executed_tools.append("structure_synthesis")  # pretend work
        system.cm.modify_sub_da_specification(top.da_id, sub.da_id,
                                              chip_spec(9, 9),
                                              restart_dov=None)
        assert dm.executed_tools == []  # script restarted

    def test_impossible_spec_message(self, rig):
        system, dots, top = rig
        sub = system.create_sub_da(top.da_id, dots["Module"],
                                   chip_spec(5, 5), "sue", NOOP, "ws-2")
        system.start(sub.da_id)
        system.cm.sub_da_impossible_specification(sub.da_id,
                                                  "not enough area")
        assert sub.state is DaState.READY_FOR_TERMINATION
        messages = system.cm.pop_messages(top.da_id,
                                          "impossible_specification")
        assert messages[0].payload["reason"] == "not enough area"
