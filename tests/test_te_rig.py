"""The one TE rig: validated at construction, crash-safe by wiring.

Every user of the client/server-TM stack constructs
:class:`~repro.te.rig.TeRig` (:class:`ConcordSystem` is one with the
AC/DC levels on top), so what the rig guarantees holds for all of
them: numbers that reach the cost model are checked once, a server
crash always crashes the repository with it, and on restart the
repository recovers before the server-TM re-validates the buffers.
"""

from __future__ import annotations

import pytest

from repro.bench.perf import _make_rig, _nested_payload
from repro.bench.scenarios import object_buffer_scenario
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
    (lambda: object_buffer_scenario(bandwidth=-5.0), NetworkError,
     "bandwidth=-5.0"),
    (lambda: object_buffer_scenario(lan_latency=-1.0), NetworkError,
     "lan_latency=-1.0"),
    (lambda: object_buffer_scenario(jitter=-1.0), NetworkError,
     "jitter=-1.0"),
    (lambda: Network(jitter=float("nan")), NetworkError, "jitter=nan"),
    (lambda: Network(bandwidth=float("inf")), NetworkError,
     "bandwidth=inf"),
    (lambda: ConcordSystem(eviction_policy="bogus"), ConcordError,
     "eviction_policy='bogus'"),
    (lambda: ConcordSystem(pressure_fraction=7.0), ConcordError,
     "pressure_fraction=7.0"),
    (lambda: TeRig(pressure_fraction=0.0), ConcordError,
     "pressure_fraction=0.0"),
    (lambda: ConcordSystem(lease_ttl=-3.0), ConcordError,
     "lease_ttl=-3.0"),
])
def test_a_bad_number_is_refused_at_construction(build, error, names):
    with pytest.raises(error, match=names):
        build()


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
    assert rig.server_tm.lease_holders(durable.dov_id) == {"ws-1"}


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
