"""Integration tests for usage relationships: Require / Propagate /
invalidation / withdrawal (Sect.4.1, Sect.5.4)."""

from __future__ import annotations

import pytest

from repro.scenario.delegation import chip_spec, make_vlsi_system
from repro.dc.script import DopStep, Script, Sequence
from repro.util.errors import (
    CooperationError,
    RelationshipError,
    ScopeViolationError,
)
from repro.vlsi.tools import vlsi_dots

NOOP = Script(Sequence(DopStep("structure_synthesis")), "noop")


def module_data(width: float, height: float) -> dict:
    return {"cell": "m", "level": "module", "width": width,
            "height": height, "area": width * height}


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


class TestRequire:
    def test_require_establishes_relationship(self, rig):
        system, __, supplier, consumer = rig
        delivered = system.cm.require(consumer.da_id, supplier.da_id,
                                      {"width-limit"})
        assert delivered is None  # nothing propagated yet
        usage = system.cm.usage(consumer.da_id, supplier.da_id)
        assert usage.required_features == {"width-limit"}
        # the supporting DA got the require message
        messages = system.cm.pop_messages(supplier.da_id, "require")
        assert len(messages) == 1

    def test_require_unknown_features_rejected(self, rig):
        system, __, supplier, consumer = rig
        with pytest.raises(RelationshipError):
            system.cm.require(consumer.da_id, supplier.da_id,
                              {"no-such-feature"})

    def test_require_from_self_rejected(self, rig):
        system, __, supplier, __c = rig
        with pytest.raises(RelationshipError):
            system.cm.require(supplier.da_id, supplier.da_id,
                              {"width-limit"})

    def test_require_delivers_existing_propagation(self, rig):
        system, __, supplier, consumer = rig
        dov = system.repository.checkin(supplier.da_id, "Module",
                                        module_data(10, 10))
        system.cm.propagate(supplier.da_id, dov.dov_id)
        delivered = system.cm.require(consumer.da_id, supplier.da_id,
                                      {"width-limit"})
        assert delivered == dov.dov_id
        assert system.cm.in_scope(consumer.da_id, dov.dov_id)


class TestPropagate:
    def test_quality_gate(self, rig):
        system, __, supplier, consumer = rig
        system.cm.require(consumer.da_id, supplier.da_id,
                          {"width-limit", "height-limit"})
        too_big = system.repository.checkin(supplier.da_id, "Module",
                                            module_data(80, 80))
        receivers = system.cm.propagate(supplier.da_id, too_big.dov_id)
        assert receivers == []
        assert not system.cm.in_scope(consumer.da_id, too_big.dov_id)

        fitting = system.repository.checkin(supplier.da_id, "Module",
                                            module_data(40, 40))
        receivers = system.cm.propagate(supplier.da_id, fitting.dov_id)
        assert receivers == [consumer.da_id]
        assert system.cm.in_scope(consumer.da_id, fitting.dov_id)

    def test_propagate_auto_evaluates(self, rig):
        system, __, supplier, __c = rig
        dov = system.repository.checkin(supplier.da_id, "Module",
                                        module_data(10, 10))
        system.cm.propagate(supplier.da_id, dov.dov_id)
        assert dov.dov_id in supplier.quality

    def test_propagate_foreign_dov_rejected(self, rig):
        system, top, supplier, __ = rig
        with pytest.raises(ScopeViolationError):
            system.cm.propagate(supplier.da_id, top.vector.initial_dov)

    def test_no_exchange_without_usage_relationship(self, rig):
        """'DAs which are not connected by a usage relationship must
        not exchange data.'"""
        system, __, supplier, consumer = rig
        dov = system.repository.checkin(supplier.da_id, "Module",
                                        module_data(10, 10))
        receivers = system.cm.propagate(supplier.da_id, dov.dov_id)
        assert receivers == []
        assert not system.cm.in_scope(consumer.da_id, dov.dov_id)

    def test_consumer_can_checkout_delivered_dov(self, rig):
        system, __, supplier, consumer = rig
        system.cm.require(consumer.da_id, supplier.da_id, {"width-limit"})
        dov = system.repository.checkin(supplier.da_id, "Module",
                                        module_data(10, 10))
        system.cm.propagate(supplier.da_id, dov.dov_id)
        client_tm = system.runtime(consumer.da_id).client_tm
        dop = client_tm.begin_dop(consumer.da_id, "structure_synthesis")
        [checked_out] = client_tm.checkout(dop, dov.dov_id)
        assert checked_out.data["width"] == 10
        client_tm.abort_dop(dop)


class TestWithdrawal:
    def _delivered(self, rig):
        system, __, supplier, consumer = rig
        system.cm.require(consumer.da_id, supplier.da_id, {"width-limit"})
        dov = system.repository.checkin(supplier.da_id, "Module",
                                        module_data(10, 10))
        system.cm.propagate(supplier.da_id, dov.dov_id)
        return system, supplier, consumer, dov

    def test_withdraw_revokes_scope(self, rig):
        system, supplier, consumer, dov = self._delivered(rig)
        system.cm.withdraw(supplier.da_id, dov.dov_id)
        assert not system.cm.in_scope(consumer.da_id, dov.dov_id)
        usage = system.cm.usage(consumer.da_id, supplier.da_id)
        assert usage.withdrawn == [dov.dov_id]
        messages = system.cm.pop_messages(consumer.da_id, "withdrawal")
        assert messages[0].payload["dov"] == dov.dov_id

    def test_withdraw_stops_affected_dm(self, rig):
        system, supplier, consumer, dov = self._delivered(rig)
        # the consumer used the DOV in a DOP -> DM log has a DOV_USED
        from repro.repository.wal import LogRecordKind
        dm = system.runtime(consumer.da_id).dm
        dm.log.append(LogRecordKind.DOV_USED, {"dov": dov.dov_id},
                      force=True)
        affected = system.cm.withdraw(supplier.da_id, dov.dov_id)
        assert affected == [consumer.da_id]
        assert dm.stopped

    def test_withdraw_unused_does_not_stop(self, rig):
        system, supplier, consumer, dov = self._delivered(rig)
        affected = system.cm.withdraw(supplier.da_id, dov.dov_id)
        assert affected == []
        assert not system.runtime(consumer.da_id).dm.stopped

    def test_spec_change_triggers_withdrawal(self, rig):
        """'If ... the specification of the DA is changed such that the
        features of a previously propagated DOV are not part of a new
        specification, the propagation has to be withdrawn.'"""
        system, supplier, consumer, dov = self._delivered(rig)
        top_id = supplier.parent
        # the new spec demands width <= 5; the delivered DOV (10) fails
        system.cm.modify_sub_da_specification(top_id, supplier.da_id,
                                              chip_spec(5, 5))
        assert not system.cm.in_scope(consumer.da_id, dov.dov_id)
        usage = system.cm.usage(consumer.da_id, supplier.da_id)
        assert usage.withdrawn == [dov.dov_id]


class TestInvalidation:
    def test_replacement_delivered(self, rig):
        system, __, supplier, consumer = rig
        system.cm.require(consumer.da_id, supplier.da_id, {"width-limit"})
        first = system.repository.checkin(supplier.da_id, "Module",
                                          module_data(10, 10))
        second = system.repository.checkin(supplier.da_id, "Module",
                                           module_data(20, 20),
                                           parents=(first.dov_id,))
        system.cm.propagate(supplier.da_id, first.dov_id)
        system.cm.evaluate(supplier.da_id, second.dov_id)
        result = system.cm.invalidate_propagation(supplier.da_id,
                                                  first.dov_id)
        assert result == {consumer.da_id: second.dov_id}
        assert not system.cm.in_scope(consumer.da_id, first.dov_id)
        assert system.cm.in_scope(consumer.da_id, second.dov_id)

    def test_no_replacement_becomes_withdrawal(self, rig):
        system, __, supplier, consumer = rig
        system.cm.require(consumer.da_id, supplier.da_id, {"width-limit"})
        only = system.repository.checkin(supplier.da_id, "Module",
                                         module_data(10, 10))
        system.cm.propagate(supplier.da_id, only.dov_id)
        result = system.cm.invalidate_propagation(supplier.da_id,
                                                  only.dov_id)
        assert result == {consumer.da_id: None}
        usage = system.cm.usage(consumer.da_id, supplier.da_id)
        assert usage.withdrawn == [only.dov_id]


class TestServerCrashRecovery:
    def test_cm_state_survives_server_crash(self, rig):
        system, top, supplier, consumer = rig
        system.cm.require(consumer.da_id, supplier.da_id, {"width-limit"})
        dov = system.repository.checkin(supplier.da_id, "Module",
                                        module_data(10, 10))
        system.cm.propagate(supplier.da_id, dov.dov_id)
        das_before = {d.da_id for d in system.cm.das()}
        scope_before = system.cm.scope_of(consumer.da_id)

        system.crash_server()
        system.restart_server()

        assert {d.da_id for d in system.cm.das()} == das_before
        assert system.cm.scope_of(consumer.da_id) == scope_before
        assert system.cm.usage(consumer.da_id,
                               supplier.da_id).delivered == [dov.dov_id]
        # the DA hierarchy is intact
        assert system.cm.da(supplier.da_id).parent == top.da_id
