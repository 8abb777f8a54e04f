"""Integration tests for the ConcordSystem facade and level interplay."""

from __future__ import annotations

import pytest

from repro.core.features import DesignSpecification, RangeFeature
from repro.core.system import ConcordSystem
from repro.dc.script import DaOpStep, DopStep, Script, Sequence
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.util.errors import ConcordError
from repro.util.trace import Level


def make_dot(name="Cell", parts=None):
    return DesignObjectType(name, attributes=[
        AttributeDef("area", AttributeKind.FLOAT, required=False)],
        parts=parts or {})


@pytest.fixture
def system():
    sys_ = ConcordSystem()
    sys_.add_workstation("ws-1")
    sys_.add_workstation("ws-2")
    sys_.tools.register(
        "halve", lambda ctx, p: ctx.data.update(
            area=ctx.data.get("area", 200.0) / 2), duration=10.0)
    return sys_


SPEC = DesignSpecification([RangeFeature("area-limit", "area", hi=100.0)])


class TestFacade:
    def test_unknown_workstation(self, system):
        with pytest.raises(ConcordError):
            system.client_tm("ws-404")

    def test_unknown_runtime(self, system):
        with pytest.raises(ConcordError):
            system.runtime("da-404")

    def test_init_design_wires_dm(self, system):
        script = Script(Sequence(DopStep("halve")))
        da = system.init_design(make_dot(), SPEC, "alice", script,
                                "ws-1", initial_data={"area": 300.0})
        runtime = system.runtime(da.da_id)
        assert runtime.dm.binding.da_id == da.da_id
        assert runtime.client_tm.workstation == "ws-1"

    def test_step_executes_one_action(self, system):
        script = Script(Sequence(DopStep("halve"), DopStep("halve")))
        da = system.init_design(make_dot(), SPEC, "alice", script,
                                "ws-1", initial_data={"area": 300.0})
        system.start(da.da_id)
        assert system.runtime(da.da_id).dm.step() is True
        assert system.runtime(da.da_id).dm.executed_dops == 1

    def test_sub_da_on_other_workstation(self, system):
        sub_dot = make_dot("Part")
        top_dot = make_dot("Cell", parts={"p": sub_dot})
        script = Script(Sequence(DopStep("halve")))
        top = system.init_design(top_dot, SPEC, "alice", script, "ws-1",
                                 initial_data={"area": 300.0})
        system.start(top.da_id)
        sub = system.create_sub_da(top.da_id, sub_dot, SPEC, "bob",
                                   script, "ws-2")
        assert system.runtime(sub.da_id).client_tm.workstation == "ws-2"


class TestLevelInterplay:
    def test_all_levels_traced(self, system):
        script = Script(Sequence(DopStep("halve"), DaOpStep("Evaluate")))
        da = system.init_design(make_dot(), SPEC, "alice", script,
                                "ws-1", initial_data={"area": 150.0})
        system.start(da.da_id)
        system.run(da.da_id)
        counts = system.trace.count_by_level()
        assert counts[Level.AC] >= 3   # init, start, evaluate
        assert counts[Level.DC] >= 2   # dop start/commit, da op
        assert counts[Level.TE] >= 4   # begin, checkout, checkin, end

    def test_embedded_evaluate_reaches_cm(self, system):
        script = Script(Sequence(DopStep("halve"), DaOpStep("Evaluate")))
        da = system.init_design(make_dot(), SPEC, "alice", script,
                                "ws-1", initial_data={"area": 150.0})
        system.start(da.da_id)
        system.run(da.da_id)
        assert da.final_dovs  # 150 -> 75 <= 100

    def test_embedded_require_and_propagate(self, system):
        sub_dot = make_dot("Part")
        top_dot = make_dot("Cell", parts={"p": sub_dot})
        noop = Script(Sequence(DopStep("halve")))
        top = system.init_design(top_dot, SPEC, "alice", noop, "ws-1",
                                 initial_data={"area": 160.0})
        system.start(top.da_id)
        producer_script = Script(Sequence(
            DopStep("halve"), DaOpStep("Evaluate"),
            DaOpStep("Propagate")))
        producer = system.create_sub_da(top.da_id, sub_dot, SPEC,
                                        "bob", producer_script, "ws-2",
                                        initial_dov=top.vector.initial_dov)
        consumer_script = Script(Sequence(DaOpStep(
            "Require", params={"supporting": producer.da_id,
                               "features": ["area-limit"]})))
        consumer = system.create_sub_da(top.da_id, sub_dot, SPEC,
                                        "eve", consumer_script, "ws-2")
        system.start(producer.da_id)
        system.start(consumer.da_id)
        system.run(producer.da_id)    # derives 150, evaluates, propagates
        system.run(consumer.da_id)    # requires -> delivered immediately
        usage = system.cm.usage(consumer.da_id, producer.da_id)
        assert len(usage.delivered) == 1

    def test_level_summary(self, system):
        script = Script(Sequence(DopStep("halve")))
        da = system.init_design(make_dot(), SPEC, "alice", script,
                                "ws-1", initial_data={"area": 300.0})
        system.start(da.da_id)
        system.run(da.da_id)
        summary = system.level_summary()
        assert set(summary) >= {"AC", "DC", "TE"}


class TestPickInputs:
    def test_prefers_latest_leaf(self, system):
        script = Script(Sequence(DopStep("halve"), DopStep("halve")))
        da = system.init_design(make_dot(), SPEC, "alice", script,
                                "ws-1", initial_data={"area": 400.0})
        system.start(da.da_id)
        system.run(da.da_id)
        graph = system.repository.graph(da.da_id)
        leaf = max(graph.leaves(), key=lambda d: d.created_at)
        # 400 / 2 / 2 = 100: the second DOP consumed the first's output
        assert leaf.get("area") == pytest.approx(100.0)

    def test_explicit_inputs_param(self, system):
        da = system.init_design(
            make_dot(), SPEC, "alice",
            Script(Sequence(DopStep("halve"))), "ws-1",
            initial_data={"area": 400.0})
        system.start(da.da_id)
        system.run(da.da_id)
        dov0 = system.repository.graph(da.da_id).root_id
        runtime = system.runtime(da.da_id)
        step = DopStep("halve", params={"inputs": [dov0]})
        assert runtime.binding.pick_inputs(step) == [dov0]

    def test_no_data_yet_returns_empty(self, system):
        da = system.init_design(make_dot(), SPEC, "alice",
                                Script(Sequence(DopStep("halve"))),
                                "ws-1")
        runtime = system.runtime(da.da_id)
        assert runtime.binding.pick_inputs(DopStep("halve")) == []
