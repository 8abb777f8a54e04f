"""Property-based tests for the federated repository."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.repository.federation import FederatedRepository
from repro.repository.repository import DesignDataRepository
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.util.ids import IdGenerator


# ---------------------------------------------------------------------------
# federation
# ---------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=30, deadline=None)
def test_federation_directory_complete_and_consistent(n_members,
                                                      n_checkins):
    ids = IdGenerator()
    members = {f"site-{i}": DesignDataRepository(ids)
               for i in range(n_members)}
    federation = FederatedRepository(members)
    federation.register_dot(DesignObjectType("Cell", attributes=[
        AttributeDef("v", AttributeKind.INT, required=False)]))
    dovs = []
    for i in range(n_checkins):
        da_id = f"da-{i}"
        federation.create_graph(da_id)
        dov = federation.checkin(da_id, "Cell", {"v": i})
        dovs.append((da_id, dov.dov_id))
    for da_id, dov_id in dovs:
        # every committed version is readable through the federation
        assert federation.read(dov_id).created_by == da_id
        # ... and lives exactly on its DA's home member
        home = federation.placement_of(da_id)
        assert dov_id in federation.member(home)
        for name, repo in federation.members().items():
            if name != home:
                assert dov_id not in repo


@given(st.integers(min_value=2, max_value=4),
       st.integers(min_value=2, max_value=8))
@settings(max_examples=20, deadline=None)
def test_federation_survives_member_crashes(n_members, n_checkins):
    ids = IdGenerator()
    members = {f"site-{i}": DesignDataRepository(ids)
               for i in range(n_members)}
    federation = FederatedRepository(members)
    federation.register_dot(DesignObjectType("Cell", attributes=[
        AttributeDef("v", AttributeKind.INT, required=False)]))
    dovs = []
    for i in range(n_checkins):
        federation.create_graph(f"da-{i}")
        dovs.append(federation.checkin(f"da-{i}", "Cell", {"v": i}))
    for name in list(federation.members()):
        federation.crash_member(name)
        federation.recover_member(name)
    for dov in dovs:
        assert federation.read(dov.dov_id).data == dov.data
