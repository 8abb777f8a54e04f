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
    (lambda: ConcordSystem(lease_ttl=-3.0), ConcordError,
     "lease_ttl=-3.0"),
    (lambda: TeRig(write_back=True, flush_interval=-3), ConcordError,
     "flush_interval=-3"),
    (lambda: ConcordSystem(write_back=True, flush_interval=0),
     ConcordError, "flush_interval=0"),
    (lambda: TeRig(write_back=True, flush_interval=2.5), ConcordError,
     "flush_interval=2.5"),
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
    in its neighbour's slot; it offers every rig option but
    ``flush_on_end_dop`` (a DM-driven run always flushes at
    End-of-DOP)."""
    rig = inspect.signature(TeRig.__init__).parameters
    system = inspect.signature(ConcordSystem.__init__).parameters
    assert set(system) == set(rig) - {"flush_on_end_dop"}
    assert len(rig) - 1 == 12                      # minus self
    for name in system:
        assert system[name].default == rig[name].default, name
    built = ConcordSystem(trace=False, write_back=True,
                          flush_interval=3, lease_ttl=40.0,
                          object_buffers=True, bandwidth=2_000.0)
    client = built.add_workstation("ws-1")
    assert client.write_back and client.flush_interval == 3
    assert built.server_tm.lease_ttl == 40.0
    assert built.network.bandwidth == 2_000.0


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
    rig.server_tm.request_checkin("txn-1", "da-1", "Cell", payload,
                                  [durable.dov_id])
    assert rig.server_tm.prepare("txn-1").value == "yes"
    staged = rig.server_tm.staged_dov("txn-1")
    assert repo.stats()["staged_versions"] == 1

    rig.crash_server()
    assert repo.stats()["staged_versions"] == 0
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


def _drive_checkin(shape: str, leg: str) -> dict:
    """One checkin through ``ServerTM.request_* -> prepare -> <leg>``,
    as a single request or as a group of one; what it left behind."""
    rig = _with_cell_dot(TeRig())
    repo, server_tm = rig.repository, rig.server_tm
    parent = repo.checkin("da-1", "Cell", {"area": 1.0})
    data = {"area": "wide" if leg == "prepare-failure" else 2.0}
    wal_before, forces_before = len(repo.wal), repo.wal.forced_writes
    rows_before = len(rig.trace)
    if shape == "single":
        server_tm.request_checkin("txn-1", "da-1", "Cell", data,
                                  [parent.dov_id], workstation="ws-1",
                                  lease=True)
    else:
        server_tm.request_group_checkin("txn-1", [{
            "provisional_id": "wb-1", "da_id": "da-1",
            "dot_name": "Cell", "data": data,
            "parents": [parent.dov_id]}], workstation="ws-1", lease=True)
    vote = server_tm.prepare("txn-1")
    staged_id = server_tm.staged_dov("txn-1")
    staged_after_prepare = repo.stats()["staged_versions"]
    if leg == "commit":
        server_tm.commit("txn-1")
    else:
        server_tm.abort("txn-1")
    durable = repo.read(staged_id) if leg == "commit" else None
    return {
        "vote": vote,
        "staged_after_prepare": staged_after_prepare,
        "staged_after": repo.stats()["staged_versions"],
        "mapping_size": len(server_tm.group_mapping("txn-1")),
        "result": [dov.dov_id for dov in server_tm.group_result("txn-1")],
        "durable": durable and (durable.dov_id, durable.dot_name,
                                dict(durable.data), durable.parents,
                                durable.created_by),
        "wal_kinds": [record.kind for record
                      in repo.wal.all_records()[wal_before:]],
        "wal_forces": repo.wal.forced_writes - forces_before,
        "lease": staged_id and server_tm.leases.holders(staged_id),
        "parent_lease": server_tm.leases.holders(parent.dov_id),
        "error": server_tm.checkin_error("txn-1"),
        "trace_rows": len(rig.trace) - rows_before,
        "graph_lock_free": not rig.locks.holders("graph:da-1"),
    }


@pytest.mark.parametrize("leg", ["commit", "abort", "prepare-failure"])
def test_a_single_checkin_is_a_group_of_one_at_the_server_tm(leg):
    single = _drive_checkin("single", leg)
    group = _drive_checkin("group", leg)
    assert single == group
    assert single["graph_lock_free"] and single["staged_after"] == 0
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
        assert single["lease"] == set() and single["error"] is None
        assert single["trace_rows"] == 2      # prepared + aborted
    else:
        assert single["vote"].value == "no"
        assert single["staged_after_prepare"] == 0
        assert single["mapping_size"] == 0 and single["lease"] is None
        assert "area" in single["error"]
        assert single["trace_rows"] == 1      # prepare failed
