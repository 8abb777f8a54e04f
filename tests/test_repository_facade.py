"""Unit tests for the DesignDataRepository facade."""

from __future__ import annotations

import pytest

from repro.repository.repository import DesignDataRepository
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.util.errors import (
    IntegrityError,
    SchemaError,
    UnknownObjectError,
)
from repro.util.ids import IdGenerator


class TestSchemaRegistry:
    def test_register_and_lookup(self, repository, cell_dot):
        assert repository.dot("Cell") is cell_dot

    def test_reregister_same_object_ok(self, repository, cell_dot):
        repository.register_dot(cell_dot)

    def test_conflicting_name_rejected(self, repository):
        with pytest.raises(SchemaError):
            repository.register_dot(DesignObjectType("Cell"))

    def test_unknown_dot(self, repository):
        with pytest.raises(UnknownObjectError):
            repository.dot("Nope")


class TestGraphs:
    def test_create_and_lookup(self, repository):
        graph = repository.create_graph("da-2")
        assert repository.graph("da-2") is graph
        assert repository.has_graph("da-2")

    def test_duplicate_graph_rejected(self, repository):
        with pytest.raises(UnknownObjectError):
            repository.create_graph("da-1")

    def test_unknown_graph(self, repository):
        with pytest.raises(UnknownObjectError):
            repository.graph("da-99")


class TestCheckin:
    def test_checkin_extends_graph(self, repository):
        dov = repository.checkin("da-1", "Cell", {"area": 1.0})
        assert dov.dov_id in repository.graph("da-1")
        assert repository.read(dov.dov_id).data == {"area": 1.0}

    def test_checkin_with_parents(self, repository):
        parent = repository.checkin("da-1", "Cell", {"area": 1.0})
        child = repository.checkin("da-1", "Cell", {"area": 2.0},
                                   parents=(parent.dov_id,))
        assert repository.graph("da-1").is_ancestor(parent.dov_id,
                                                    child.dov_id)

    def test_integrity_violation_rejected(self, repository):
        with pytest.raises(IntegrityError):
            repository.checkin("da-1", "Cell", {"area": -1.0})

    def test_unknown_attribute_rejected(self, repository):
        with pytest.raises(IntegrityError):
            repository.checkin("da-1", "Cell", {"bogus": 1})

    def test_unknown_parent_rejected(self, repository):
        with pytest.raises(UnknownObjectError):
            repository.checkin("da-1", "Cell", {"area": 1.0},
                               parents=("dov-404",))

    def test_two_phase_abort_leaves_nothing(self, repository):
        staged = repository.stage_checkin("da-1", "Cell", {"area": 1.0},
                                          (), 0.0)
        assert repository.abort_checkin(staged.dov_id) is True
        assert staged.dov_id not in repository
        assert staged.dov_id not in repository.graph("da-1")

    def test_two_phase_commit(self, repository):
        staged = repository.stage_checkin("da-1", "Cell", {"area": 1.0},
                                          (), 5.0)
        committed = repository.commit_checkin(staged.dov_id)
        assert committed.created_at == 5.0
        assert committed.dov_id in repository.graph("da-1")

    def test_commit_without_stage_raises(self, repository):
        with pytest.raises(UnknownObjectError):
            repository.commit_checkin("dov-404")

    def test_staged_invisible_to_read(self, repository):
        staged = repository.stage_checkin("da-1", "Cell", {"area": 1.0},
                                          (), 0.0)
        with pytest.raises(UnknownObjectError):
            repository.read(staged.dov_id)


class TestCrashRecovery:
    def test_recover_rebuilds_graphs(self, repository):
        first = repository.checkin("da-1", "Cell", {"area": 1.0})
        second = repository.checkin("da-1", "Cell", {"area": 2.0},
                                    parents=(first.dov_id,))
        repository.crash()
        report = repository.recover()
        assert report["versions"] == 2
        assert report["graphs"] == 1
        graph = repository.graph("da-1")
        assert graph.is_ancestor(first.dov_id, second.dov_id)

    def test_staged_checkin_lost_in_crash(self, repository):
        repository.stage_checkin("da-1", "Cell", {"area": 1.0}, (), 0.0)
        report = repository.crash()
        assert report["pending_lost"] == 1
        repository.recover()
        assert len(repository.store) == 0

    def test_stats(self, repository):
        repository.checkin("da-1", "Cell", {"area": 1.0})
        assert len(list(repository.dots())) == 1
        assert repository.graph_ids() == ["da-1"]
        assert len(repository.store) == 1
        assert repository.store.staged_ids() == set()

    def test_ids_are_sequential(self):
        repo = DesignDataRepository(IdGenerator())
        repo.register_dot(DesignObjectType("X", attributes=[
            AttributeDef("v", AttributeKind.INT, required=False)]))
        repo.create_graph("da-1")
        first = repo.checkin("da-1", "X", {"v": 1})
        second = repo.checkin("da-1", "X", {"v": 2})
        assert first.dov_id == "dov-1"
        assert second.dov_id == "dov-2"
