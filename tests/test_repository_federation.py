"""Tests for the federated repository (the paper's future work)."""

from __future__ import annotations

import pytest

from repro.repository.federation import FederatedRepository
from repro.repository.repository import DesignDataRepository
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.util.errors import StorageError, UnknownObjectError
from repro.util.ids import IdGenerator


def make_dot():
    return DesignObjectType("Cell", attributes=[
        AttributeDef("area", AttributeKind.FLOAT, required=False)])


@pytest.fixture
def federation():
    ids = IdGenerator()
    members = {
        "site-a": DesignDataRepository(ids),
        "site-b": DesignDataRepository(ids),
    }
    fed = FederatedRepository(members)
    fed.register_dot(make_dot())
    return fed


class TestPlacement:
    def test_empty_federation_rejected(self):
        with pytest.raises(ValueError):
            FederatedRepository({})

    def test_round_robin_placement(self, federation):
        federation.create_graph("da-1")
        federation.create_graph("da-2")
        assert federation.placement_of("da-1") == "site-a"
        assert federation.placement_of("da-2") == "site-b"

    def test_explicit_assignment(self, federation):
        federation.assign("da-9", "site-b")
        federation.create_graph("da-9")
        assert federation.placement_of("da-9") == "site-b"
        assert federation.member("site-b").has_graph("da-9")
        assert not federation.member("site-a").has_graph("da-9")

    def test_unplaced_da(self, federation):
        with pytest.raises(UnknownObjectError):
            federation.placement_of("da-404")
        assert not federation.has_graph("da-404")


class TestSchemaBroadcast:
    def test_dot_known_everywhere(self, federation):
        for member in federation.members().values():
            assert member.dot("Cell").name == "Cell"
        assert federation.dot("Cell").name == "Cell"


class TestRoutedCheckin:
    def test_checkin_lands_on_home_member(self, federation):
        federation.assign("da-1", "site-b")
        federation.create_graph("da-1")
        dov = federation.checkin("da-1", "Cell", {"area": 1.0})
        assert dov.dov_id in federation.member("site-b")
        assert dov.dov_id not in federation.member("site-a")
        # ... but reads are location-transparent
        assert federation.read(dov.dov_id).data == {"area": 1.0}
        assert dov.dov_id in federation

    def test_cross_member_lineage(self, federation):
        """A usage-relationship input from another site is a legal
        parent — exactly the interoperability the paper wants."""
        federation.assign("da-a", "site-a")
        federation.assign("da-b", "site-b")
        federation.create_graph("da-a")
        federation.create_graph("da-b")
        source = federation.checkin("da-a", "Cell", {"area": 1.0})
        derived = federation.checkin("da-b", "Cell", {"area": 2.0},
                                     parents=(source.dov_id,))
        assert derived.parents == (source.dov_id,)
        assert federation.placement_of("da-b") == "site-b"

    def test_unknown_parent_rejected(self, federation):
        federation.create_graph("da-1")
        with pytest.raises(UnknownObjectError):
            federation.checkin("da-1", "Cell", {"area": 1.0},
                               parents=("dov-404",))

    def test_two_phase_abort(self, federation):
        federation.create_graph("da-1")
        staged = federation.stage_checkin("da-1", "Cell", {"area": 1.0},
                                          (), 0.0)
        index = federation.placement_index
        assert index.staged_home(staged.dov_id) \
            == federation.placement_of("da-1")
        assert federation.abort_checkin(staged.dov_id) is True
        assert staged.dov_id not in federation
        assert index.staged_home(staged.dov_id) is None
        assert federation.abort_checkin(staged.dov_id) is False
        assert index.stats()["staged_index"] == 0


class TestMemberFailure:
    def test_one_member_crash_leaves_other_serving(self, federation):
        federation.assign("da-a", "site-a")
        federation.assign("da-b", "site-b")
        federation.create_graph("da-a")
        federation.create_graph("da-b")
        dov_a = federation.checkin("da-a", "Cell", {"area": 1.0})
        dov_b = federation.checkin("da-b", "Cell", {"area": 2.0})
        federation.crash_member("site-a")
        # site-b unaffected
        assert federation.read(dov_b.dov_id).data == {"area": 2.0}
        # site-a recovers from its own WAL
        federation.recover_member("site-a")
        assert federation.read(dov_a.dov_id).data == {"area": 1.0}

    def test_cross_member_read_of_crashed_member_raises_storage_error(
            self, federation):
        """A directory-routed read must surface the member outage as a
        StorageError — the DOV *exists*, its member is just down — and
        serve again cleanly after the member recovers."""
        federation.assign("da-a", "site-a")
        federation.assign("da-b", "site-b")
        federation.create_graph("da-a")
        federation.create_graph("da-b")
        dov_a = federation.checkin("da-a", "Cell", {"area": 1.0})
        federation.crash_member("site-a")
        # the directory still locates the DOV; the member refuses
        with pytest.raises(StorageError):
            federation.read(dov_a.dov_id)
        # a genuinely unknown DOV keeps its distinct error
        with pytest.raises(UnknownObjectError):
            federation.read("dov-nowhere")
        federation.recover_member("site-a")
        assert federation.read(dov_a.dov_id).data == {"area": 1.0}

    def test_stats(self, federation):
        federation.create_graph("da-1")
        federation.checkin("da-1", "Cell", {"area": 1.0})
        stats = federation.stats()
        assert stats["members"] == 2
        assert stats["placements"] == 1
        assert stats["directory_entries"] == 1


class TestShippingSurface:
    """The read-path metadata + commit routing the data-shipping
    protocol consumes (payload sizes, version stamps, invalidation
    targets routed through the directory)."""

    def test_describe_routes_through_the_directory(self, federation):
        federation.assign("da-a", "site-a")
        federation.create_graph("da-a")
        dov = federation.checkin("da-a", "Cell", {"area": 1.0})
        description = federation.describe(dov.dov_id)
        assert description["dov_id"] == dov.dov_id
        assert description["payload_size"] == dov.payload_size
        assert description["stamp"] == dov.stamp
        assert description["member"] == "site-a"

    def test_invalidation_targets_cross_members(self, federation):
        federation.assign("da-a", "site-a")
        federation.assign("da-b", "site-b")
        federation.create_graph("da-a")
        federation.create_graph("da-b")
        parent = federation.checkin("da-a", "Cell", {"area": 1.0})
        # da-b derives from da-a's version: the parent lives on the
        # *other* member, only the directory can resolve it
        child = federation.checkin("da-b", "Cell", {"area": 2.0},
                                   parents=(parent.dov_id,))
        assert federation.invalidation_targets(child) \
            == [parent.dov_id]

    def test_commit_notices_route_from_the_owning_member(self,
                                                         federation):
        federation.assign("da-a", "site-a")
        federation.create_graph("da-a")
        committed = []
        federation.on_commit = lambda dov: committed.append(dov.dov_id)
        dov = federation.checkin("da-a", "Cell", {"area": 1.0})
        assert committed == [dov.dov_id]
        assert federation.placement_index.locate(dov.dov_id) == "site-a"


class TestSingleMemberBatchFailure:
    def test_down_member_aborts_single_member_batch(self, federation):
        """A batch resolving entirely to one member must notice the
        member is down *before* committing — presumed abort, with the
        stale staged-index entries cleaned up."""
        federation.assign("da-a", "site-a")
        federation.create_graph("da-a")
        head = federation.checkin("da-a", "Cell", {"area": 1.0})
        staged = [
            federation.stage_checkin("da-a", "Cell", {"area": 2.0},
                                     (head.dov_id,), 1.0).dov_id,
            federation.stage_checkin("da-a", "Cell", {"area": 3.0},
                                     (head.dov_id,), 1.0).dov_id,
        ]
        # the member dies without the coordinator noticing: the index
        # still maps the staged ids to it
        federation.member("site-a").crash()
        with pytest.raises(StorageError, match="presumed abort"):
            federation.commit_group(staged)
        assert federation.placement_index.stats()["staged_index"] == 0
        for dov_id in staged:
            assert dov_id not in federation
        # after recovery the DA serves a fresh batch normally
        federation.recover_member("site-a")
        retry = federation.stage_checkin("da-a", "Cell", {"area": 2.0},
                                         (head.dov_id,), 2.0)
        committed = federation.commit_group([retry.dov_id])
        assert [d.dov_id for d in committed] == [retry.dov_id]


class TestDirectoryRecovery:
    def test_crash_member_reports_dropped_staged_entries(
            self, federation):
        federation.assign("da-a", "site-a")
        federation.create_graph("da-a")
        for area in (1.0, 2.0):
            federation.stage_checkin("da-a", "Cell", {"area": area},
                                     (), 0.0)
        report = federation.crash_member("site-a")
        assert report["staged_index_dropped"] == 2
        assert federation.placement_index.stats()["staged_index"] == 0

    def test_recover_directory_counters(self, federation):
        federation.assign("da-a", "site-a")
        federation.assign("da-b", "site-b")
        federation.create_graph("da-a")
        federation.create_graph("da-b")
        federation.checkin("da-a", "Cell", {"area": 1.0})
        federation.checkin("da-b", "Cell", {"area": 2.0})
        federation.stage_checkin("da-b", "Cell", {"area": 3.0}, (), 0.0)
        report = federation.recover_directory()
        assert report == {"placements": 2, "staged_index": 1,
                          "directory_entries": 2, "members_down": 0}

    def test_down_member_keeps_its_prior_directory_entries(
            self, federation):
        """recover_directory with a member still down: the surviving
        index entries for that member are carried over instead of
        silently dropped."""
        federation.assign("da-a", "site-a")
        federation.assign("da-b", "site-b")
        federation.create_graph("da-a")
        federation.create_graph("da-b")
        dov_a = federation.checkin("da-a", "Cell", {"area": 1.0})
        federation.crash_member("site-a")
        report = federation.recover_directory()
        assert report["members_down"] == 1
        assert federation.placement_index.locate(dov_a.dov_id) == "site-a"
        assert federation.placement_of("da-a") == "site-a"

    def test_stats_exposes_the_index_surfaces(self, federation):
        federation.create_graph("da-1")
        federation.stage_checkin("da-1", "Cell", {"area": 1.0}, (), 0.0)
        stats = federation.stats()
        assert stats["placements"] == 1
        assert stats["staged_index"] == 1
        assert stats["decision_log"]["decisions"] == 0
