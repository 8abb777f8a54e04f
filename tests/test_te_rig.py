"""The one TE rig: validated at construction, crash-safe by wiring.

Every user of the client/server-TM stack constructs
:class:`~repro.te.rig.TeRig` (:class:`ConcordSystem` is one with the
AC/DC levels on top), so what the rig guarantees holds for all of
them: numbers that reach the cost model are checked once, a server
crash always crashes the repository with it, and on restart the
repository recovers before the server-TM re-validates the buffers.
"""

from __future__ import annotations

import inspect

import pytest

from repro.bench.perf import _make_rig, _nested_payload
from repro.core.system import ConcordSystem
from repro.net.network import Network
from repro.repository.versions import freeze_payload, payload_sizeof
from repro.repository.wal import LogRecordKind
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.te.rig import TeRig
from repro.txn.gateway import CheckinRecord
from repro.util.errors import ConcordError, NetworkError, RpcError
from repro.scenario.sessions import session_rig


@pytest.mark.parametrize("build, error, names", [
    (lambda: Network(bandwidth=0.0), NetworkError, "bandwidth=0.0"),
    (lambda: TeRig(bandwidth=-5.0), NetworkError, "bandwidth=-5.0"),
    (lambda: TeRig(lan_latency=-1.0), NetworkError, "lan_latency=-1.0"),
    (lambda: TeRig(jitter=-1.0), NetworkError, "jitter=-1.0"),
    (lambda: Network(jitter=float("nan")), NetworkError, "jitter=nan"),
    (lambda: Network(bandwidth=float("inf")), NetworkError,
     "bandwidth=inf"),
    (lambda: TeRig(lease_ttl=-3.0), ConcordError,
     "lease_ttl=-3.0"),
    # a bool is an int: True would silently become 1
    (lambda: TeRig(lease_ttl=True), ConcordError, "lease_ttl=True"),
    (lambda: TeRig(bandwidth=True), NetworkError, "bandwidth=True"),
    (lambda: TeRig(lan_latency=True), NetworkError, "lan_latency=True"),
    (lambda: TeRig(jitter=True), NetworkError, "jitter=True"),
])
def test_a_bad_number_is_refused_at_construction(build, error, names):
    with pytest.raises(error, match=names):
        build()


def test_write_back_without_object_buffers_is_refused():
    # it used to run write-through silently: deferred checkins are
    # staged in the buffer, so there is nowhere to defer them to
    with pytest.raises(ConcordError, match="write_back=True"):
        TeRig(write_back=True, object_buffers=False)
    assert TeRig(write_back=True).add_workstation("ws-1").write_back


def test_concord_system_takes_the_rig_options_by_name():
    """``ConcordSystem`` forwards by keyword, so an option cannot land
    in its neighbour's slot; of the rig's options it offers the four
    that a scenario sets, with the rig's defaults.  A DM-driven run is
    write-through over object buffers, with recall-only leases."""
    rig = inspect.signature(TeRig.__init__).parameters
    system = inspect.signature(ConcordSystem.__init__).parameters
    assert list(system) == ["self", "trace", "repository", "jitter",
                            "seed"]
    assert len(rig) - 1 == 9                       # minus self
    for name in system:
        assert system[name].default == rig[name].default, name
    built = ConcordSystem(trace=False, jitter=0.5, seed=3)
    assert built.network.jitter == 0.5
    client = built.add_workstation("ws-1")
    assert client.buffer is not None and not client.write_back
    assert built.server_tm.lease_ttl is None


def _with_cell_dot(rig: TeRig) -> TeRig:
    rig.open_scope()
    rig.add_workstation("ws-1")
    rig.repository.register_dot(DesignObjectType("Cell", attributes=[
        AttributeDef("area", AttributeKind.FLOAT, required=False)]))
    rig.repository.create_graph("da-1")
    return rig


@pytest.mark.parametrize("build, payload", [
    (lambda: _with_cell_dot(TeRig(trace=False)), {"area": 1.0}),
    (lambda: _with_cell_dot(ConcordSystem(trace=False)), {"area": 1.0}),
    # T8, T9 and the campaign soak
    (lambda: _with_cell_dot(session_rig(None)), {"area": 1.0}),
    # the perf harness
    (_make_rig, _nested_payload()),
], ids=["TeRig", "ConcordSystem", "session_rig", "perf_rig"])
def test_a_server_crash_crashes_the_repository(build, payload,
                                               crash_at_the_force):
    """The server dies inside a checkin, with the version staged and
    its record appended but not forced: the repository crashes with
    it, nothing of the checkin is durable after the restart, and a
    retry commits exactly once."""
    rig = build()
    repo, client = rig.repository, rig.client_tm("ws-1")
    durable = repo.checkin("da-1", "Cell", payload)
    dop = client.begin_dop("da-1", "tool")
    client.checkout(dop, durable.dov_id)           # warm buffer entry
    crash_at_the_force(rig, "before")
    with pytest.raises(RpcError, match="reply of 'checkin' lost"):
        client.checkin(dop, "Cell", data=payload, parents=[durable.dov_id])

    assert not rig.server.up
    assert repo.store.staged_ids() == set()
    assert not repo.has_graph("da-1")
    rig.restart_server()

    assert len(repo.store) == 1                    # only the parent
    assert repo.read(durable.dov_id).stamp == durable.stamp
    assert repo.has_graph("da-1")
    buffer = rig.object_buffer("ws-1")
    assert durable.dov_id in buffer and buffer.revalidated == 1
    assert rig.server_tm.leases.holders(durable.dov_id) == {"ws-1"}
    retried = client.checkin(dop, "Cell", data=payload,
                             parents=[durable.dov_id])
    assert retried.success and len(repo.store) == 2
    assert [dov.dov_id for dov in repo.graph("da-1")] \
        == [durable.dov_id, retried.dov.dov_id]


@pytest.mark.parametrize("build, payload", [
    (lambda: _with_cell_dot(TeRig(trace=False)), {"area": 1.0}),
    (_make_rig, _nested_payload()),
], ids=["TeRig", "perf_rig"])
def test_a_crash_after_the_force_loses_only_the_reply(build, payload,
                                                      crash_at_the_force):
    """The server dies inside a checkin right after its forced write:
    the checkin is committed, the workstation sees the lost reply —
    the in-doubt case of a one-phase commit — and after the restart
    the version is durable exactly once."""
    rig = build()
    repo, client = rig.repository, rig.client_tm("ws-1")
    durable = repo.checkin("da-1", "Cell", payload)
    dop = client.begin_dop("da-1", "tool")
    client.checkout(dop, durable.dov_id)
    crash_at_the_force(rig, "after")
    with pytest.raises(RpcError, match="reply of 'checkin' lost"):
        client.checkin(dop, "Cell", data=payload, parents=[durable.dov_id])
    assert dop.output_dov is None              # the client never knew
    rig.restart_server()

    committed = [dov for dov in repo.graph("da-1")
                 if dov.dov_id != durable.dov_id]
    assert len(committed) == 1 and len(repo.store) == 2
    assert committed[0].parents == (durable.dov_id,)
    assert committed[0].data == payload
    logged = [record.payload["dov"].dov_id for record
              in repo.wal.stable_records(LogRecordKind.DOV_CHECKIN)]
    assert logged.count(committed[0].dov_id) == 1
    assert repo.store.staged_ids() == set()


def test_the_repository_recovers_before_the_buffers_revalidate():
    rig = TeRig(trace=False)
    order: list[str] = []
    recover = rig.repository.recover
    revalidate = rig.server_tm.revalidate_buffers
    rig.repository.recover = lambda: (order.append("recover"),
                                      recover())[1]
    rig.server_tm.revalidate_buffers = lambda: (
        order.append("revalidate"), revalidate())[1]
    rig.crash_server()
    rig.restart_server()
    assert order == ["recover", "revalidate"]
    # by construction, not by a caller's care: the repository's hooks
    # are the first on the server node, the server-TM's the next
    assert rig.server.on_restart[1] == rig.server_tm._on_server_restart


def _drive_checkin(shape: str, leg: str, arm) -> dict:
    """One checkin through the server-TM's one endpoint, in the shape
    a write-through checkin sends (``single``, a list of one keyed by
    the transaction id) or a flush sends (``group``); what it left
    behind."""
    rig = _with_cell_dot(TeRig())
    repo, server_tm, gateway = (rig.repository, rig.server_tm,
                                rig.client_tm("ws-1").gateway)
    parent = repo.checkin("da-1", "Cell", {"area": 1.0})
    data = freeze_payload({"area": "wide" if leg == "prepare-failure"
                           else 2.0})
    wal_before, forces_before = len(repo.wal), repo.wal.forced_writes
    rows_before = len(rig.trace)
    sent = rig.network.messages_sent
    if leg == "abort":
        arm(rig, "before")

    def drive():
        if shape == "single":
            return gateway.single_checkin("da-1", "Cell", data,
                                          [parent.dov_id], lease=True)
        return gateway.group_checkin(
            [CheckinRecord("wb-1", "da-1", "Cell", data, [parent.dov_id])],
            [payload_sizeof(data)])

    if leg == "abort":
        with pytest.raises(RpcError, match="reply of 'checkin' lost"):
            drive()
        result = None
        down = {"staged": len(repo.store.staged_ids()),
                "graph": repo.has_graph("da-1")}
        rig.restart_server()
    else:
        result = drive()
        down = None
    durable = None
    if result is not None and result.committed:
        durable = result.dov if shape == "single" else result.dovs[0]
    return {
        "committed": bool(result and result.committed),
        "outcome": result and (result.outcome.protocol.value,
                               result.outcome.messages,
                               result.outcome.forced_log_writes),
        "reason": result and result.reason,
        "down": down,
        "staged_after": len(repo.store.staged_ids()),
        "store": len(repo.store),
        "durable": durable and (dict(durable.data), durable.parents,
                                durable.created_by),
        "wal_kinds": [record.kind.name for record
                      in repo.wal.stable_records()[wal_before:]],
        "wal_forces": repo.wal.forced_writes - forces_before,
        "lease": durable and server_tm.leases.holders(durable.dov_id),
        "parent_lease": server_tm.leases.holders(parent.dov_id),
        "trace_rows": len(rig.trace) - rows_before,
        "messages": rig.network.messages_sent - sent,
        "graph_lock_free": not rig.locks.holders("graph:da-1"),
    }


@pytest.mark.parametrize("leg", ["commit", "abort", "prepare-failure"])
def test_a_single_checkin_is_a_group_of_one_at_the_server_tm(
        leg, crash_at_the_force):
    """A write-through checkin and a group of one commit, refuse or
    die alike at the server-TM's one checkin endpoint: the same
    durable version, WAL records, forced writes, lease, trace rows and
    messages (an upload, a request, a reply)."""
    single = _drive_checkin("single", leg, crash_at_the_force)
    group = _drive_checkin("group", leg, crash_at_the_force)
    assert single == group
    assert single["graph_lock_free"] and single["staged_after"] == 0
    # the upload and the request; the reply too, unless the server died
    assert single["messages"] == (2 if leg == "abort" else 3)
    if leg == "commit":
        assert single["committed"]
        assert single["outcome"] == ("one_phase", 2, 1)
        assert single["durable"] == ({"area": 2.0}, ("dov-1",), "da-1")
        assert single["wal_kinds"] == ["DOV_CHECKIN"]
        assert single["wal_forces"] == 1
        assert single["lease"] == {"ws-1"}
        assert single["parent_lease"] == set()
        assert single["trace_rows"] == 1          # committed
    elif leg == "abort":
        # the server died before its force: nothing is durable
        assert single["down"] == {"staged": 0, "graph": False}
        assert single["store"] == 1 and single["wal_kinds"] == []
        assert single["wal_forces"] == 0
    else:
        assert not single["committed"]
        assert single["outcome"] == ("one_phase", 2, 0)
        assert "area" in single["reason"]
        assert single["store"] == 1 and single["wal_kinds"] == []
        assert single["durable"] is None
        assert single["trace_rows"] == 1          # aborted
