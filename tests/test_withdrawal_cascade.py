"""Tests for cascading withdrawal along derivation chains."""

from __future__ import annotations

import pytest

from repro.scenario.delegation import chip_spec, make_vlsi_system
from repro.dc.script import DopStep, Script, Sequence
from repro.vlsi.tools import vlsi_dots

NOOP = Script(Sequence(DopStep("structure_synthesis")), "noop")


def module_data(width):
    return {"cell": "m", "level": "module", "width": width,
            "height": width, "area": width * width}


@pytest.fixture
def chain():
    """a -> b -> c usage chain: b derives from a's result and
    pre-releases its derivative to c."""
    system = make_vlsi_system(("ws-1", "ws-2", "ws-3", "ws-4"))
    dots = vlsi_dots()
    top = system.init_design(
        dots["Chip"], chip_spec(100, 100), "lead", NOOP, "ws-1",
        initial_data={"cell": "chip", "level": "chip",
                      "behavior": {"operations": ["a", "b", "c"]}})
    system.start(top.da_id)
    das = {}
    for name, workstation in (("a", "ws-2"), ("b", "ws-3"),
                              ("c", "ws-4")):
        das[name] = system.create_sub_da(
            top.da_id, dots["Module"], chip_spec(50, 50), name, NOOP,
            workstation)
        system.start(das[name].da_id)
    a, b, c = das["a"], das["b"], das["c"]

    # a produces + propagates to b
    source = system.repository.checkin(a.da_id, "Module",
                                       module_data(10.0))
    system.cm.require(b.da_id, a.da_id, {"width-limit"})
    system.cm.propagate(a.da_id, source.dov_id)

    # b derives from it and propagates the derivative to c
    derived = system.repository.checkin(
        b.da_id, "Module", module_data(12.0),
        parents=(source.dov_id,))
    system.cm.require(c.da_id, b.da_id, {"width-limit"})
    system.cm.propagate(b.da_id, derived.dov_id)
    return system, a, b, c, source, derived


class TestCascade:
    def test_withdrawal_cascades_down_the_chain(self, chain):
        system, a, b, c, source, derived = chain
        assert system.cm.in_scope(c.da_id, derived.dov_id)
        system.cm.withdraw(a.da_id, source.dov_id)
        # b lost the source ...
        assert not system.cm.in_scope(b.da_id, source.dov_id)
        # ... and c lost b's derivative (no replacement existed)
        assert not system.cm.in_scope(c.da_id, derived.dov_id)
        usage_bc = system.cm.usage(c.da_id, b.da_id)
        assert usage_bc.withdrawn == [derived.dov_id]
        messages = system.cm.pop_messages(c.da_id, "withdrawal")
        assert len(messages) == 1

    def test_cascade_replaces_when_possible(self, chain):
        system, a, b, c, source, derived = chain
        # b also has an independently derived (not from 'source')
        # qualifying version
        independent = system.repository.checkin(b.da_id, "Module",
                                                module_data(9.0))
        system.cm.evaluate(b.da_id, independent.dov_id)
        system.cm.withdraw(a.da_id, source.dov_id)
        usage_bc = system.cm.usage(c.da_id, b.da_id)
        # the tainted derivative was replaced by the independent one
        assert usage_bc.delivered == [independent.dov_id]
        assert system.cm.in_scope(c.da_id, independent.dov_id)
        assert not system.cm.in_scope(c.da_id, derived.dov_id)

    def test_cascade_disabled(self, chain):
        system, a, b, c, source, derived = chain
        system.cm.withdraw(a.da_id, source.dov_id, cascade=False)
        # direct withdrawal happened, the chain did not
        assert not system.cm.in_scope(b.da_id, source.dov_id)
        assert system.cm.in_scope(c.da_id, derived.dov_id)

    def test_untainted_propagations_survive(self, chain):
        system, a, b, c, source, derived = chain
        clean = system.repository.checkin(b.da_id, "Module",
                                          module_data(8.0))
        system.cm.propagate(b.da_id, clean.dov_id)
        system.cm.withdraw(a.da_id, source.dov_id)
        # the clean version (no lineage to 'source') stays delivered
        usage_bc = system.cm.usage(c.da_id, b.da_id)
        assert clean.dov_id in usage_bc.delivered

    def test_derived_from_reachability(self, chain):
        system, a, b, __, source, derived = chain
        assert system.cm._derived_from(b.da_id, derived.dov_id,
                                       source.dov_id)
        assert not system.cm._derived_from(b.da_id, derived.dov_id,
                                           "dov-404")
        assert not system.cm._derived_from(a.da_id, "dov-404",
                                           source.dov_id)
