"""CM messages reach the DM ECA rules as events, on the kernel.

A cooperation operation issued inside a kernel event posts its message
over the LAN; ``run_concurrent`` dispatches it to the recipient's rule
engine when it arrives.
"""

from __future__ import annotations

import pytest

from repro.bench.scenarios import chip_spec, make_vlsi_system
from repro.dc.rules import EcaRule, require_propagate_rule
from repro.dc.script import DopStep, Script, Sequence
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
    supplier = system.create_sub_da(top.da_id, dots["Module"],
                                    chip_spec(50, 50), "sue", NOOP,
                                    "ws-2")
    consumer = system.create_sub_da(top.da_id, dots["Module"],
                                    chip_spec(50, 50), "carl", NOOP,
                                    "ws-3")
    system.start(supplier.da_id)
    system.start(consumer.da_id)
    return system, top, supplier, consumer


def deliver(system, cm_call):
    """Issue *cm_call* as a kernel event and run to quiescence (no DA
    is driven: only the message travels)."""
    system.kernel.after(0.0, cm_call, label="test-cm-call")
    system.run_concurrent([])


def module_data(width):
    return {"cell": "m", "level": "module", "width": width,
            "height": width, "area": width * width}


class TestPaperRuleViaPump:
    def test_when_require_if_available_then_propagate(self, rig):
        """The paper's flagship ECA rule, end to end: a Require
        arrives as an asynchronous event, the rule finds a qualifying
        DOV and propagates it immediately."""
        system, __, supplier, consumer = rig
        # the supplier has a qualifying but NOT yet propagated DOV
        dov = system.repository.checkin(supplier.da_id, "Module",
                                        module_data(10.0))
        system.cm.evaluate(supplier.da_id, dov.dov_id)
        supplier_dm = system.runtime(supplier.da_id).dm

        def find_qualifying(env):
            wanted = set(env["features"])
            for candidate, quality in supplier.quality.items():
                if quality.covers(wanted):
                    return candidate
            return None

        supplier_dm.rules.register(require_propagate_rule(
            find_qualifying,
            lambda env, dov_id: system.cm.propagate(supplier.da_id,
                                                    dov_id)))

        # nothing propagated yet -> Require cannot be served directly
        served = []
        deliver(system, lambda: served.append(system.cm.require(
            consumer.da_id, supplier.da_id, {"width-limit"})))
        assert served == [None]

        assert len(supplier_dm.rules.firings) == 1
        usage = system.cm.usage(consumer.da_id, supplier.da_id)
        assert usage.delivered == [dov.dov_id]
        assert system.cm.in_scope(consumer.da_id, dov.dov_id)

    def test_rule_does_not_fire_without_qualifying_dov(self, rig):
        system, __, supplier, consumer = rig
        supplier_dm = system.runtime(supplier.da_id).dm
        supplier_dm.rules.register(require_propagate_rule(
            lambda env: None,
            lambda env, dov_id: pytest.fail("must not propagate")))
        deliver(system, lambda: system.cm.require(
            consumer.da_id, supplier.da_id, {"width-limit"}))
        assert supplier_dm.rules.firings == []


class TestPumpMechanics:
    def test_pump_all_das(self, rig):
        system, top, supplier, consumer = rig
        hits = []
        for da in (top, supplier, consumer):
            dm = system.runtime(da.da_id).dm
            dm.rules.register(EcaRule(
                f"log-{da.da_id}", "Impossible_Specification",
                lambda env: True,
                lambda env: hits.append(env["da_id"])))
        deliver(system, lambda: system.cm.sub_da_impossible_specification(
            supplier.da_id, "x"))
        assert hits == [top.da_id]

    def test_event_env_carries_payload(self, rig):
        system, top, supplier, __ = rig
        captured = {}
        system.runtime(top.da_id).dm.rules.register(EcaRule(
            "capture", "Impossible_Specification",
            lambda env: True,
            lambda env: captured.update(env)))
        deliver(system, lambda: system.cm.sub_da_impossible_specification(
            supplier.da_id, "area too small"))
        assert captured["reason"] == "area too small"
        assert captured["sender"] == supplier.da_id
        assert captured["da_id"] == top.da_id


class TestFixedPointDrain:
    def test_messages_produced_while_dispatching_are_drained(self, rig):
        """A rule firing that itself sends a message must not strand
        that message: the kernel runs until nothing is in flight."""
        system, top, supplier, consumer = rig
        chain = []

        # top's reaction to the impossible-spec report pings the
        # consumer, whose own rule records the arrival
        system.runtime(top.da_id).dm.rules.register(EcaRule(
            "escalate", "Impossible_Specification",
            lambda env: True,
            lambda env: system.cm.modify_sub_da_specification(
                top.da_id, consumer.da_id,
                system.cm.da(consumer.da_id).spec)))
        system.runtime(consumer.da_id).dm.rules.register(EcaRule(
            "observe", "Specification_Modified",
            lambda env: True,
            lambda env: chain.append(env["da_id"])))

        deliver(system, lambda: system.cm.sub_da_impossible_specification(
            supplier.da_id, "x"))
        assert chain == [consumer.da_id]
        assert system.cm.inbox(top.da_id) == []
        assert system.cm.inbox(consumer.da_id) == []
