"""Shared fixtures for the CONCORD test suite."""

from __future__ import annotations

import pytest

from repro.core.system import ConcordSystem
from repro.repository.repository import DesignDataRepository
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    Constraint,
    DesignObjectType,
)
from repro.te.rig import TeRig
from repro.util.ids import IdGenerator


def _area_non_negative(data: dict) -> bool:
    return (data.get("area") or 0) >= 0



@pytest.fixture
def cell_dot() -> DesignObjectType:
    """A simple DOT with one optional numeric attribute + constraint."""
    return DesignObjectType("Cell", attributes=[
        AttributeDef("name", AttributeKind.STRING, required=False),
        AttributeDef("area", AttributeKind.FLOAT, required=False),
    ], constraints=[Constraint("range(area)", _area_non_negative)])


@pytest.fixture
def repository(cell_dot) -> DesignDataRepository:
    """A repository with the Cell DOT registered and a graph for da-1."""
    repo = DesignDataRepository(IdGenerator())
    repo.register_dot(cell_dot)
    repo.create_graph("da-1")
    return repo


@pytest.fixture
def system(cell_dot) -> ConcordSystem:
    """A minimal ConcordSystem with one workstation and a no-op tool."""
    sys_ = ConcordSystem()
    sys_.add_workstation("ws-1")
    sys_.tools.register(
        "halve", lambda ctx, p: ctx.data.update(
            area=ctx.data.get("area", 200.0) * 0.5),
        duration=10.0)
    return sys_


class _ServerDied(Exception):
    """The server died at a checkin's forced WAL write."""


@pytest.fixture
def crash_at_the_force():
    """Arm one server crash at the next forced write of a rig's
    repository WAL: right ``before`` the force, when the checkin's
    records are still the volatile tail, or right ``after`` it.

    Modelled on ``_TornCheckpoint`` in ``test_core_cm_recovery.py``: a
    test-only exception leaves the checkin endpoint, and a wrapper
    around the endpoint turns it into the crash of the server node, so
    the exchange's reply is lost and the workstation sees the call's
    ``RpcError``.  Only the server's volatile state is dropped.
    """
    def arm(rig: TeRig, when: str) -> None:
        wal = rig.repository.wal
        force = wal.force
        endpoint = rig.server_tm.checkin

        def dying() -> None:
            del wal.force           # the instance attribute: one crash
            if when == "after":
                force()
            raise _ServerDied

        def crashing(*args):
            try:
                return endpoint(*args)
            except _ServerDied:
                rig.crash_server()
                return None

        assert when in ("before", "after")
        wal.force = dying
        rig.rpc.register(rig.server_tm.node_id, "checkin", crashing)
    return arm
