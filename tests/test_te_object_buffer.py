"""Workstation object buffers: cached checkout, leases, invalidation.

The data-shipping refactor's acceptance surface at the TE level:
buffer hits cost zero network events, misses ship the payload
size-aware under a read lease, committed checkins revoke the leases on
the versions they supersede, and crashes drop buffer + leases so
recovery re-fetches through the normal chain.
"""

from __future__ import annotations

import pytest

from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.repository.versions import DesignObjectVersion, payload_sizeof
from repro.te.object_buffer import ObjectBuffer
from repro.te.rig import TeRig


def make_dov(dov_id="dov-1", data=None, parents=()):
    return DesignObjectVersion(
        dov_id=dov_id, dot_name="Cell",
        data=data if data is not None else {"area": 10.0},
        created_by="da-1", created_at=0.0, parents=tuple(parents))


class TestObjectBufferUnit:
    def test_miss_then_hit(self):
        buffer = ObjectBuffer("ws-1")
        assert buffer.get("dov-1", "da-1", 0.0) is None
        buffer.put(make_dov(), "da-1")
        assert buffer.get("dov-1", "da-1", 0.0).dov_id == "dov-1"
        assert (buffer.hits, buffer.misses) == (1, 1)

    def test_hits_are_scoped_per_da(self):
        buffer = ObjectBuffer("ws-1")
        buffer.put(make_dov(), "da-1")
        # another DA misses until its own (server-validated) fetch
        assert buffer.get("dov-1", "da-2", 0.0) is None
        buffer.put(make_dov(), "da-2")
        assert buffer.get("dov-1", "da-2", 0.0) is not None

    def test_invalidate_and_clear(self):
        buffer = ObjectBuffer("ws-1")
        buffer.put(make_dov(), "da-1")
        assert buffer.invalidate("dov-1") is True
        assert buffer.invalidate("dov-1") is False
        assert buffer.get("dov-1", "da-1", 0.0) is None
        buffer.put(make_dov(), "da-1")
        assert buffer.clear() == 1
        assert len(buffer) == 0

    def test_stats_snapshot(self):
        buffer = ObjectBuffer("ws-1")
        buffer.put(make_dov(), "da-1")
        buffer.get("dov-1", "da-1", 0.0)
        assert len(buffer) == 1
        assert buffer.hits == 1
        assert buffer._entries["dov-1"].size == make_dov().payload_size
        assert buffer.dirty_ids() == []


@pytest.fixture
def rig():
    """Client/server TM pair with two buffering workstations (the
    kernel never runs: posted messages hand over synchronously)."""
    te = TeRig(trace=False, bandwidth=1000.0)
    te.open_scope()
    clock, network, server_tm = te.clock, te.network, te.server_tm
    repo = te.repository
    repo.register_dot(DesignObjectType("Cell", attributes=[
        AttributeDef("area", AttributeKind.FLOAT, required=False)]))
    repo.create_graph("da-1")
    repo.create_graph("da-2")
    clients = {name: te.add_workstation(name)
               for name in ("ws-1", "ws-2")}
    buffers = {name: te.object_buffer(name) for name in clients}
    dov0 = repo.checkin("da-1", "Cell", {"area": 100.0})
    return {
        "clock": clock, "network": network, "repo": repo,
        "server_tm": server_tm, "clients": clients,
        "buffers": buffers, "dov0": dov0,
    }


class TestCachedCheckout:
    def test_second_checkout_is_a_local_hit(self, rig):
        client = rig["clients"]["ws-1"]
        network = rig["network"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        sent_after_miss = network.messages_sent
        bytes_after_miss = network.bytes_shipped
        dop2 = client.begin_dop("da-1", "tool")
        client.checkout(dop2, rig["dov0"].dov_id)
        # hit: zero network events, zero additional bytes
        assert network.messages_sent == sent_after_miss
        assert network.bytes_shipped == bytes_after_miss
        assert rig["buffers"]["ws-1"].hits == 1

    def test_miss_ships_payload_size(self, rig):
        client = rig["clients"]["ws-1"]
        network = rig["network"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        assert network.bytes_shipped == rig["dov0"].payload_size
        assert client.bytes_fetched == rig["dov0"].payload_size
        assert client.fetch_time > 0.0
        assert network.bytes_received_by["ws-1"] \
            == rig["dov0"].payload_size

    def test_miss_grants_a_lease(self, rig):
        client = rig["clients"]["ws-1"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        assert rig["server_tm"].leases.holders(rig["dov0"].dov_id) \
            == {"ws-1"}

    def test_hits_serve_while_server_is_down(self, rig):
        client = rig["clients"]["ws-1"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        rig["network"].crash_node("server")
        dop2 = client.begin_dop("da-1", "tool")
        [dov] = client.checkout(dop2, rig["dov0"].dov_id)
        assert dov.dov_id == rig["dov0"].dov_id


class TestLeaseInvalidation:
    def test_superseding_checkin_invalidates_remote_buffers(self, rig):
        reader = rig["clients"]["ws-2"]
        writer = rig["clients"]["ws-1"]
        dov0 = rig["dov0"]
        dop_r = reader.begin_dop("da-2", "tool")
        reader.checkout(dop_r, dov0.dov_id)
        assert dov0.dov_id in rig["buffers"]["ws-2"]
        dop_w = writer.begin_dop("da-1", "tool")
        writer.checkout(dop_w, dov0.dov_id)
        writer.work(dop_w, 5.0,
                    mutate=lambda c: c.data.update(area=50.0))
        result = writer.checkin(dop_w, "Cell")
        assert result.success
        # the superseded version was revoked everywhere it was leased
        assert dov0.dov_id not in rig["buffers"]["ws-2"]
        assert dov0.dov_id not in rig["buffers"]["ws-1"]
        assert rig["server_tm"].leases.holders(dov0.dov_id) == set()
        assert rig["server_tm"].invalidations_sent == 2
        # the committer keeps its new version resident under a lease
        assert result.dov.dov_id in rig["buffers"]["ws-1"]
        assert rig["server_tm"].leases.holders(result.dov.dov_id) \
            == {"ws-1"}

    def test_checkin_result_is_a_local_hit_next_checkout(self, rig):
        client = rig["clients"]["ws-1"]
        network = rig["network"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        client.work(dop, 5.0,
                    mutate=lambda c: c.data.update(area=50.0))
        result = client.checkin(dop, "Cell")
        sent = network.messages_sent
        dop2 = client.begin_dop("da-1", "tool")
        client.checkout(dop2, result.dov.dov_id)
        assert network.messages_sent == sent

    def test_upload_bytes_are_accounted_on_checkin(self, rig):
        client = rig["clients"]["ws-1"]
        network = rig["network"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        before = network.bytes_sent_by.get("ws-1", 0)
        client.checkin(dop, "Cell")
        payload = {"area": 100.0}
        assert network.bytes_sent_by["ws-1"] - before \
            == payload_sizeof(payload)


class TestCrashSemantics:
    def test_workstation_crash_drops_buffer_and_leases(self, rig):
        client = rig["clients"]["ws-1"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        rig["network"].crash_node("ws-1")
        assert len(rig["buffers"]["ws-1"]) == 0
        assert rig["server_tm"].leases.holders(rig["dov0"].dov_id) \
            == set()

    def test_recovery_refetches_through_the_normal_chain(self, rig):
        client = rig["clients"]["ws-1"]
        network = rig["network"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        network.crash_node("ws-1")
        network.restart_node("ws-1")
        sent = network.messages_sent
        dop2 = client.begin_dop("da-1", "tool")
        client.checkout(dop2, rig["dov0"].dov_id)
        # cold buffer: the read went back to the server and re-leased
        assert network.messages_sent > sent
        assert rig["server_tm"].leases.holders(rig["dov0"].dov_id) \
            == {"ws-1"}

    def test_server_crash_clears_the_lease_table(self, rig):
        client = rig["clients"]["ws-1"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        rig["network"].crash_node("server")
        assert rig["server_tm"].leases.holders(rig["dov0"].dov_id) \
            == set()

    def test_server_restart_revalidates_unleased_buffers(self, rig):
        """The lease table died with the server; a surviving buffered
        copy is re-validated against the recovered repository and
        leased again — at the TE layer, no system facade required."""
        client = rig["clients"]["ws-1"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        buffer = rig["buffers"]["ws-1"]
        buffer.put(make_dov("dov-gone"), "da-1")  # never was durable
        rig["network"].crash_node("server")
        rig["network"].restart_node("server")
        assert list(buffer.clean_ids()) == [rig["dov0"].dov_id]
        assert rig["server_tm"].leases.holders(rig["dov0"].dov_id) \
            == {"ws-1"}


class TestSystemWiring:
    """ConcordSystem wires one buffer per workstation into the TMs."""

    def _system(self, **kwargs):
        from repro.scenario.delegation import make_vlsi_system

        return make_vlsi_system(("ws-1", "ws-2"), trace=False, **kwargs)

    def test_buffers_on_by_default(self):
        system = self._system()
        buffer = system.object_buffer("ws-1")
        assert buffer is not None
        assert system.client_tm("ws-1").buffer is buffer
        assert system.object_buffer("ws-2") is not buffer

    def test_buffers_can_be_disabled(self):
        rig = TeRig(trace=False, object_buffers=False)
        rig.add_workstation("ws-1")
        assert rig.object_buffer("ws-1") is None
        assert rig.client_tm("ws-1").buffer is None

    def test_server_restart_flushes_buffers(self):
        system = self._system()
        buffer = system.object_buffer("ws-1")
        # seed an entry directly: flushing is what's under test
        buffer.put(make_dov("dov-x"), "da-1")
        system.crash_server()
        system.restart_server()
        assert len(buffer) == 0
