"""Edge-case and failure-injection tests spanning multiple levels."""

from __future__ import annotations

import pytest

from repro.scenario.delegation import chip_spec, make_vlsi_system
from repro.core.states import DaState
from repro.dc.design_manager import DesignerPolicy
from repro.dc.script import DopStep, Parallel, Script, Sequence
from repro.util.errors import RpcError, TransactionStateError
from repro.vlsi.tools import vlsi_dots

NOOP = Script(Sequence(DopStep("structure_synthesis")), "noop")


def build(workstations=("ws-1",)):
    system = make_vlsi_system(workstations)
    dots = vlsi_dots()
    top = system.init_design(
        dots["Chip"], chip_spec(100, 100), "lead", NOOP, "ws-1",
        initial_data={"cell": "chip", "level": "chip",
                      "behavior": {"operations": ["a", "b", "c"]}})
    system.start(top.da_id)
    return system, dots, top


class TestServerDownDuringTeOperations:
    def test_checkout_fails_when_server_down(self):
        system, __, top = build()
        client_tm = system.runtime(top.da_id).client_tm
        dop = client_tm.begin_dop(top.da_id, "structure_synthesis")
        system.crash_server()
        with pytest.raises(RpcError):
            client_tm.checkout(dop, top.vector.initial_dov)
        system.restart_server()
        # after the restart the same checkout succeeds
        [fetched] = client_tm.checkout(dop, top.vector.initial_dov)
        assert fetched.dov_id == top.vector.initial_dov
        client_tm.abort_dop(dop)

    def test_checkin_2pc_aborts_when_server_down(self):
        system, __, top = build()
        client_tm = system.runtime(top.da_id).client_tm
        dop = client_tm.begin_dop(top.da_id, "structure_synthesis")
        client_tm.checkout(dop, top.vector.initial_dov)
        system.crash_server()
        with pytest.raises(RpcError):
            client_tm.checkin(dop, "Chip")
        system.restart_server()
        # repository has no trace of the attempted checkin
        assert len(system.repository.graph(top.da_id)) == 1


class TestSuspendAcrossCrash:
    def test_suspended_dop_survives_workstation_crash(self):
        """Suspend persists the context; a crash during the suspension
        loses nothing."""
        system, __, top = build()
        client_tm = system.runtime(top.da_id).client_tm
        dop = client_tm.begin_dop(top.da_id, "structure_synthesis")
        client_tm.checkout(dop, top.vector.initial_dov)
        client_tm.work(dop, 20.0,
                       mutate=lambda c: c.tool_state.update(step=1))
        client_tm.suspend(dop)
        system.crash_workstation("ws-1")
        system.network.restart_node("ws-1")
        recovered, __t = client_tm.recover_dop(
            dop.dop_id, top.da_id, "structure_synthesis")
        assert recovered.context.work_done == 20.0
        assert recovered.context.tool_state == {"step": 1}

    def test_double_suspend_rejected(self):
        system, __, top = build()
        client_tm = system.runtime(top.da_id).client_tm
        dop = client_tm.begin_dop(top.da_id, "structure_synthesis")
        client_tm.suspend(dop)
        with pytest.raises(TransactionStateError):
            client_tm.suspend(dop)


class TestParallelScriptExecution:
    def test_parallel_branches_complete(self):
        system = make_vlsi_system(("ws-1",), trace=False)
        system.tools.register("t-a", lambda c, p: c.data.update(
            cell="x", level="chip"), 5.0)
        system.tools.register("t-b", lambda c, p: c.data.update(
            cell="x", level="chip"), 5.0)
        dots = vlsi_dots()
        script = Script(Parallel(DopStep("t-a"), DopStep("t-b")))
        from repro.core.features import DesignSpecification
        da = system.init_design(dots["Chip"], DesignSpecification([]),
                                "d", script, "ws-1",
                                initial_data={"cell": "c",
                                              "level": "chip"})
        system.start(da.da_id)
        status = system.run(da.da_id)
        assert status.done
        dm = system.runtime(da.da_id).dm
        assert sorted(dm.executed_tools) == ["t-a", "t-b"]

    def test_policy_chooses_branch_order(self):
        system = make_vlsi_system(("ws-1",), trace=False)
        system.tools.register("t-a", lambda c, p: c.data.update(
            cell="x", level="chip"), 5.0)
        system.tools.register("t-b", lambda c, p: c.data.update(
            cell="x", level="chip"), 5.0)
        dots = vlsi_dots()

        class PreferB(DesignerPolicy):
            def choose_enabled(self, actions):
                by_tool = {a.tool: a for a in actions}
                return by_tool.get("t-b", actions[0])

        from repro.core.features import DesignSpecification
        da = system.init_design(dots["Chip"], DesignSpecification([]),
                                "d",
                                Script(Parallel(DopStep("t-a"),
                                                DopStep("t-b"))),
                                "ws-1",
                                initial_data={"cell": "c",
                                              "level": "chip"})
        system.start(da.da_id)
        system.runtime(da.da_id).dm.policy = PreferB()
        system.run(da.da_id)
        dm = system.runtime(da.da_id).dm
        assert dm.executed_tools == ["t-b", "t-a"]


class TestCmEdgeCases:
    def test_propagate_while_ready_for_termination(self):
        """Fig.7 allows Propagate in ready_for_termination — the final
        result may still be pre-released to peers."""
        system, dots, top = build(("ws-1", "ws-2", "ws-3"))
        supplier = system.create_sub_da(top.da_id, dots["Module"],
                                        chip_spec(50, 50), "s", NOOP,
                                        "ws-2")
        consumer = system.create_sub_da(top.da_id, dots["Module"],
                                        chip_spec(50, 50), "c", NOOP,
                                        "ws-3")
        system.start(supplier.da_id)
        system.start(consumer.da_id)
        dov = system.repository.checkin(
            supplier.da_id, "Module",
            {"cell": "m", "level": "module", "width": 10.0,
             "height": 10.0, "area": 100.0})
        system.cm.evaluate(supplier.da_id, dov.dov_id)
        system.cm.require(consumer.da_id, supplier.da_id,
                          {"width-limit"})
        system.cm.sub_da_ready_to_commit(supplier.da_id)
        assert supplier.state is DaState.READY_FOR_TERMINATION
        receivers = system.cm.propagate(supplier.da_id, dov.dov_id)
        assert receivers == [consumer.da_id]

    def test_repeated_propagate_is_idempotent(self):
        system, dots, top = build(("ws-1", "ws-2", "ws-3"))
        supplier = system.create_sub_da(top.da_id, dots["Module"],
                                        chip_spec(50, 50), "s", NOOP,
                                        "ws-2")
        consumer = system.create_sub_da(top.da_id, dots["Module"],
                                        chip_spec(50, 50), "c", NOOP,
                                        "ws-3")
        system.start(supplier.da_id)
        system.start(consumer.da_id)
        dov = system.repository.checkin(
            supplier.da_id, "Module",
            {"cell": "m", "level": "module", "width": 10.0,
             "height": 10.0, "area": 100.0})
        system.cm.require(consumer.da_id, supplier.da_id,
                          {"width-limit"})
        first = system.cm.propagate(supplier.da_id, dov.dov_id)
        second = system.cm.propagate(supplier.da_id, dov.dov_id)
        assert first == [consumer.da_id]
        assert second == []       # already delivered
        usage = system.cm.usage(consumer.da_id, supplier.da_id)
        assert usage.delivered == [dov.dov_id]

    def test_deep_hierarchy_scope_devolution(self):
        """Final DOVs climb a three-level hierarchy step by step."""
        system, dots, top = build(("ws-1",))
        module = system.create_sub_da(top.da_id, dots["Module"],
                                      chip_spec(50, 50), "m", NOOP,
                                      "ws-1")
        system.start(module.da_id)
        block = system.create_sub_da(module.da_id, dots["Block"],
                                     chip_spec(20, 20), "b", NOOP,
                                     "ws-1")
        system.start(block.da_id)
        dov = system.repository.checkin(
            block.da_id, "Block",
            {"cell": "k", "level": "block", "width": 5.0,
             "height": 5.0, "area": 25.0})
        system.cm.evaluate(block.da_id, dov.dov_id)
        system.cm.sub_da_ready_to_commit(block.da_id)
        system.cm.terminate_sub_da(module.da_id, block.da_id)
        assert system.cm.in_scope(module.da_id, dov.dov_id)
        assert not system.cm.in_scope(top.da_id, dov.dov_id)
        # the module adopts it as final work and devolves it upward
        system.cm.evaluate(module.da_id, dov.dov_id)
        system.cm.sub_da_ready_to_commit(module.da_id)
        system.cm.terminate_sub_da(top.da_id, module.da_id)
        assert system.cm.in_scope(top.da_id, dov.dov_id)
