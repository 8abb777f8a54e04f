"""Unit tests for the WAL and the version store crash semantics."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.repository.storage import VersionStore
from repro.repository.versions import DesignObjectVersion
from repro.repository.wal import LogRecordKind, WriteAheadLog
from repro.util.errors import StorageError, UnknownObjectError


def dov(dov_id: str) -> DesignObjectVersion:
    return DesignObjectVersion(dov_id, "Cell", {"area": 1.0}, "da-1", 0.0)


class TestWriteAheadLog:
    def test_lsn_monotone(self):
        wal = WriteAheadLog()
        first = wal.append(LogRecordKind.CHECKPOINT)
        second = wal.append(LogRecordKind.CHECKPOINT)
        assert second.lsn == first.lsn + 1

    def test_crash_loses_unforced_tail(self):
        wal = WriteAheadLog()
        wal.append(LogRecordKind.DOV_CHECKIN, {"dov_id": "a"}, force=True)
        wal.append(LogRecordKind.DOV_CHECKIN, {"dov_id": "b"})
        lost = wal.crash()
        assert lost == 1
        ids = [r.payload["dov_id"]
               for r in wal.stable_records(LogRecordKind.DOV_CHECKIN)]
        assert ids == ["a"]

    def test_force_flushes_everything_pending(self):
        wal = WriteAheadLog()
        wal.append(LogRecordKind.CHECKPOINT)
        wal.append(LogRecordKind.CHECKPOINT)
        assert wal.force() == 2
        assert wal.crash() == 0

    def test_forced_writes_counted(self):
        wal = WriteAheadLog()
        wal.append(LogRecordKind.CHECKPOINT, force=True)
        wal.append(LogRecordKind.CHECKPOINT, force=True)
        wal.force()  # nothing pending: not counted
        assert wal.forced_writes == 2

    def test_payload_is_deep_copied(self):
        wal = WriteAheadLog()
        payload = {"nested": [1]}
        wal.append(LogRecordKind.CHECKPOINT, payload, force=True)
        payload["nested"].append(2)
        assert wal.stable_records()[0].payload["nested"] == [1]

    def test_truncate(self):
        wal = WriteAheadLog()
        for _ in range(5):
            wal.append(LogRecordKind.CHECKPOINT, force=True)
        assert wal.truncate(up_to_lsn=3) == 3
        assert [r.lsn for r in wal.stable_records()] == [4, 5]

    def test_filter_by_kind(self):
        wal = WriteAheadLog()
        wal.append(LogRecordKind.DOP_START, force=True)
        wal.append(LogRecordKind.DOP_FINISH, force=True)
        assert len(wal.stable_records(LogRecordKind.DOP_START)) == 1


class TestCheckpointAndTruncate:
    """The tree's one checkpoint protocol; the CM's state log and the
    federation's decision log are its two clients."""

    @staticmethod
    def logged(count: int) -> WriteAheadLog:
        wal = WriteAheadLog()
        for index in range(count):
            wal.append(LogRecordKind.DA_STATE, {"n": index}, force=True)
        return wal

    def test_checkpoint_then_crash_keeps_exactly_the_checkpoint(self):
        wal = self.logged(3)
        wal.append(LogRecordKind.DA_STATE, {"n": "tail"})  # un-forced
        forced = wal.forced_writes
        assert wal.checkpoint({"state": "whole"}) == 4
        assert wal.forced_writes == forced + 1
        wal.append(LogRecordKind.DA_STATE, {"n": "lost"})
        assert wal.crash() == 1
        (record,) = wal.since_checkpoint()
        assert record.kind is LogRecordKind.CHECKPOINT
        assert record.payload == {"state": "whole"}
        assert wal.stable_records() == [record]

    def test_the_reader_finishes_a_truncate_a_crash_interrupted(
            self, monkeypatch):
        wal = self.logged(3)

        def dies_once(up_to_lsn):
            monkeypatch.undo()
            raise StorageError("crash between append and truncate")

        monkeypatch.setattr(wal, "truncate", dies_once)
        with pytest.raises(StorageError):
            wal.checkpoint({"state": "whole"})
        wal.crash()
        assert [r.kind for r in wal.stable_records()] \
            == [LogRecordKind.DA_STATE] * 3 + [LogRecordKind.CHECKPOINT]
        wal.append(LogRecordKind.DA_STATE, {"n": "after"}, force=True)
        once = wal.since_checkpoint()
        assert [r.kind for r in once] \
            == [LogRecordKind.CHECKPOINT, LogRecordKind.DA_STATE]
        assert wal.stable_records() == once   # the stale records are gone
        assert wal.since_checkpoint() == once  # twice is once

    def test_without_a_checkpoint_the_reader_returns_the_whole_log(self):
        wal = self.logged(2)
        assert wal.since_checkpoint() == wal.stable_records()
        assert WriteAheadLog().since_checkpoint() == []


def hand_written_checkpoints(source: str) -> list[int]:
    """Lines of *source* that call ``<log>.truncate(...)`` or append a
    ``LogRecordKind.CHECKPOINT`` record themselves."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) \
                or not isinstance(node.func, ast.Attribute):
            continue
        writes_one = node.func.attr == "append" and any(
            isinstance(arg, ast.Attribute) and arg.attr == "CHECKPOINT"
            for arg in node.args)
        if node.func.attr == "truncate" or writes_one:
            found.append(node.lineno)
    return found


def test_only_the_wal_truncates_and_writes_checkpoint_records():
    """So a fourth hand-written checkpoint-and-truncate cannot come
    back unnoticed (there were three before they moved into the WAL)."""
    assert hand_written_checkpoints(
        "record = self.wal.append(LogRecordKind.CHECKPOINT, image, "
        "force=True)\nself.wal.truncate(record.lsn - 1)\n") == [1, 2]
    package = Path(__file__).resolve().parent.parent / "src" / "repro"
    found = {str(path.relative_to(package)): lines
             for path in sorted(package.rglob("*.py"))
             if (lines := hand_written_checkpoints(
                 path.read_text(encoding="utf-8")))}
    assert list(found) == ["repository/wal.py"]
    # checkpoint()'s append, and the one truncate behind both methods
    assert len(found["repository/wal.py"]) == 2


def test_one_module_sets_the_flush_guard_and_one_files_crash_events():
    """So a second flush driver or a second crash injector cannot come
    back unnoticed: whoever drives a flush sets the reentrancy guard,
    whoever injects a crash files a ``crash:`` / ``restart:`` event."""
    scanners = {"flush guard": re.compile(r"\.flushing\s*=(?!=)"),
                "crash event": re.compile(r"""["'](crash|restart):""")}
    assert scanners["flush guard"].search("client.flushing = True")
    assert not scanners["flush guard"].search("if a.flushing == b:")
    assert scanners["crash event"].search('label=f"restart:{node_id}"')
    package = Path(__file__).resolve().parent.parent / "src" / "repro"
    found = {name: sorted({str(path.relative_to(package))
                           for path in package.rglob("*.py")
                           if scanner.search(
                               path.read_text(encoding="utf-8"))})
             for name, scanner in scanners.items()}
    assert found == {"flush guard": ["txn/gateway.py"],
                     "crash event": ["sim/kernel.py"]}


class TestVersionStore:
    def test_stage_commit_read(self):
        store = VersionStore()
        store.stage(dov("v1"))
        assert "v1" not in store          # staged is invisible
        store.commit("v1")
        assert store.get("v1").dov_id == "v1"

    def test_duplicate_stage_rejected(self):
        store = VersionStore()
        store.stage(dov("v1"))
        store.commit("v1")
        with pytest.raises(StorageError):
            store.stage(dov("v1"))

    def test_commit_unstaged_rejected(self):
        with pytest.raises(StorageError):
            VersionStore().commit("vx")

    def test_discard(self):
        store = VersionStore()
        store.stage(dov("v1"))
        assert store.discard("v1") is True
        assert store.discard("v1") is False
        assert store.staged_ids() == set()

    def test_crash_loses_staged_keeps_committed(self):
        store = VersionStore()
        store.stage(dov("v1"))
        store.commit("v1")
        store.stage(dov("v2"))
        report = store.crash()
        assert report["staged_lost"] == 1
        assert not store.is_up
        recovered = store.recover()
        assert recovered == 1
        assert "v1" in store
        assert "v2" not in store

    def test_down_store_refuses_access(self):
        store = VersionStore()
        store.stage(dov("v1"))
        store.commit("v1")
        store.crash()
        with pytest.raises(StorageError):
            store.get("v1")
        with pytest.raises(StorageError):
            store.stage(dov("v2"))

    def test_recover_is_idempotent(self):
        store = VersionStore()
        store.stage(dov("v1"))
        store.commit("v1")
        store.crash()
        store.recover()
        assert store.recover() == 0
        assert len(store) == 1

    def test_unknown_read_raises(self):
        with pytest.raises(UnknownObjectError):
            VersionStore().get("nope")

    def test_recovered_version_roundtrips_fields(self):
        store = VersionStore()
        original = DesignObjectVersion("v9", "Cell", {"a": [1, 2]},
                                       "da-3", 42.0, ("p1", "p2"))
        store.stage(original)
        store.commit(original.dov_id)
        store.crash()
        store.recover()
        back = store.get("v9")
        assert back.created_by == "da-3"
        assert back.created_at == 42.0
        assert back.parents == ("p1", "p2")
        assert back.data == {"a": [1, 2]}
