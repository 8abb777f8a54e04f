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
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.te.rig import TeRig
from repro.util.errors import ConcordError, NetworkError
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
def test_a_server_crash_crashes_the_repository(build, payload):
    rig = build()
    repo, client = rig.repository, rig.client_tm("ws-1")
    durable = repo.checkin("da-1", "Cell", payload)
    dop = client.begin_dop("da-1", "tool")
    client.checkout(dop, durable.dov_id)           # warm buffer entry
    rig.server_tm.request_group_checkin("txn-1", [{
        "provisional_id": "txn-1", "da_id": "da-1", "dot_name": "Cell",
        "data": payload, "parents": [durable.dov_id]}])
    assert rig.server_tm.prepare("txn-1").value == "yes"
    staged, = repo.store.staged_ids()

    rig.crash_server()
    assert repo.store.staged_ids() == set()
    assert rig.server_tm.end_txn("txn-1") is None   # the crash forgot it
    assert not repo.has_graph("da-1")
    rig.restart_server()

    assert staged not in repo
    assert repo.read(durable.dov_id).stamp == durable.stamp
    assert repo.has_graph("da-1")
    buffer = rig.object_buffer("ws-1")
    assert durable.dov_id in buffer and buffer.revalidated == 1
    assert rig.server_tm.leases.holders(durable.dov_id) == {"ws-1"}


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


def _drive_checkin(leg: str) -> dict:
    """One write-through checkin through the server-TM's one endpoint,
    ``request_group_checkin -> prepare -> <leg>``, in the shape the
    gateway sends (a group of one, keyed by the transaction id); what
    it left behind."""
    rig = _with_cell_dot(TeRig())
    repo, server_tm = rig.repository, rig.server_tm
    parent = repo.checkin("da-1", "Cell", {"area": 1.0})
    data = {"area": "wide" if leg == "prepare-failure" else 2.0}
    wal_before, forces_before = len(repo.wal), repo.wal.forced_writes
    rows_before = len(rig.trace)
    server_tm.request_group_checkin("txn-1", [{
        "provisional_id": "txn-1", "da_id": "da-1",
        "dot_name": "Cell", "data": data,
        "parents": [parent.dov_id]}], workstation="ws-1", lease=True)
    vote = server_tm.prepare("txn-1")
    staged_after_prepare = len(repo.store.staged_ids())
    if leg == "commit":
        server_tm.commit("txn-1")
    else:
        server_tm.abort("txn-1")
    txn = server_tm.end_txn("txn-1")
    staged_id = txn.mapping.get("txn-1")
    durable = repo.read(staged_id) if leg == "commit" else None
    return {
        "vote": vote,
        "staged_after_prepare": staged_after_prepare,
        "staged_after": len(repo.store.staged_ids()),
        "mapping_size": len(txn.mapping),
        "result": [dov.dov_id for dov in txn.dovs],
        "durable": durable and (durable.dov_id, durable.dot_name,
                                dict(durable.data), durable.parents,
                                durable.created_by),
        "wal_kinds": [record.kind for record
                      in repo.wal.all_records()[wal_before:]],
        "wal_forces": repo.wal.forced_writes - forces_before,
        "lease": staged_id and server_tm.leases.holders(staged_id),
        "parent_lease": server_tm.leases.holders(parent.dov_id),
        "error": txn.error,
        "trace_rows": len(rig.trace) - rows_before,
        "graph_lock_free": not rig.locks.holders("graph:da-1"),
        "forgotten": server_tm.end_txn("txn-1") is None,
    }


@pytest.mark.parametrize("leg", ["commit", "abort", "prepare-failure"])
def test_a_single_checkin_is_a_group_of_one_at_the_server_tm(leg):
    single = _drive_checkin(leg)
    assert single["graph_lock_free"] and single["staged_after"] == 0
    assert single["forgotten"]
    if leg == "commit":
        assert single["vote"].value == "yes"
        assert single["durable"][2:4] == ({"area": 2.0}, ("dov-1",))
        assert single["result"] == [single["durable"][0]]
        assert [kind.name for kind in single["wal_kinds"]] \
            == ["DOV_CHECKIN"]
        assert single["wal_forces"] == 1
        assert single["lease"] == {"ws-1"}
        assert single["trace_rows"] == 2      # prepared + committed
    elif leg == "abort":
        assert single["staged_after_prepare"] == 1
        assert single["durable"] is None and single["wal_kinds"] == []
        assert single["lease"] == set() and single["error"] == ""
        assert single["trace_rows"] == 2      # prepared + aborted
    else:
        assert single["vote"].value == "no"
        assert single["staged_after_prepare"] == 0
        assert single["mapping_size"] == 0 and single["lease"] is None
        assert "area" in single["error"]
        assert single["trace_rows"] == 1      # prepare failed
