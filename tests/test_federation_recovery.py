"""Coordinator-loss matrix for the federated atomic commit.

The federation's coordinator state — its placement maps and the
decision log's in-memory maps — is volatile by design.  These tests
crash it at every interesting point of the commit protocol (before
prepare, between prepare and decide, after decide, during decision-log
truncation) and assert the two invariants the production-federation
arc promises:

* **no lost or duplicated commits** — every version of a decided batch
  is durable at exactly one member, every version of an undecided
  batch at none;
* **directory equality** — the DA homes, staged-home map and directory
  rebuilt from the members alone (:meth:`recover_directory`) equal the
  live ones, after every case.
"""

from __future__ import annotations

import pytest

from repro.repository.federation import FederatedRepository
from repro.repository.repository import DesignDataRepository
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.txn.decision_log import CHECKPOINT_WINDOW
from repro.txn.gateway import Decision
from repro.util.errors import StorageError
from repro.util.ids import IdGenerator

MEMBERS = 3


class _CoordinatorDied(RuntimeError):
    """Injected coordinator failure."""


def make_federation() -> tuple[FederatedRepository, dict[str, str]]:
    """A federation with one DA per member and one durable version
    each; returns it plus the current per-DA head versions."""
    ids = IdGenerator()
    federation = FederatedRepository(
        {f"site-{index}": DesignDataRepository(ids)
         for index in range(MEMBERS)})
    federation.register_dot(DesignObjectType("Cell", attributes=[
        AttributeDef("area", AttributeKind.FLOAT, required=False)]))
    heads: dict[str, str] = {}
    for index in range(MEMBERS):
        da_id = f"da-{index}"
        federation.assign(da_id, f"site-{index}")
        federation.create_graph(da_id)
        heads[da_id] = federation.checkin(
            da_id, "Cell", {"area": float(index)}).dov_id
    return federation, heads


def stage_batch(federation: FederatedRepository,
                heads: dict[str, str], rev: int) -> list[str]:
    """One cross-member batch: a derived version per DA."""
    staged = []
    for index in range(MEMBERS):
        da_id = f"da-{index}"
        dov = federation.stage_checkin(
            da_id, "Cell", {"area": index + rev * 10.0},
            (heads[da_id],), created_at=float(rev))
        staged.append(dov.dov_id)
    return staged


def commit_batch(federation: FederatedRepository,
                 heads: dict[str, str], rev: int) -> list[str]:
    staged = stage_batch(federation, heads, rev)
    for dov in federation.commit_group(staged):
        heads[dov.created_by] = dov.dov_id
    return staged


def durable_copies(federation: FederatedRepository,
                   dov_id: str) -> int:
    """How many members durably hold *dov_id* (must be 0 or 1)."""
    return sum(1 for member in federation.members().values()
               if dov_id in member.store)


def assert_directory_rebuild_equal(
        federation: FederatedRepository) -> None:
    """The core rebuild claim: the placement maps reconstructed from
    the members alone equal the live ones, on every surface."""
    directory = federation.directory_snapshot()
    homes = dict(federation._homes)
    staged = dict(federation._staged)
    federation.recover_directory()
    assert federation.directory_snapshot() == directory
    assert federation._homes == homes
    assert federation._staged == staged


class TestCrashBeforePrepare:
    def test_staged_batch_survives_a_coordinator_loss(self):
        """Coordinator dies with a batch staged but no prepare sent:
        the staged-home map is rebuilt from the members' staged
        sets, and the batch then commits exactly once."""
        federation, heads = make_federation()
        staged = stage_batch(federation, heads, rev=1)
        directory_before = federation.directory_snapshot()
        federation.crash_coordinator()
        assert federation._staged == {}
        federation.recover_coordinator()
        assert federation.directory_snapshot() == directory_before
        committed = federation.commit_group(staged)
        assert [dov.dov_id for dov in committed] == staged
        for dov_id in staged:
            assert durable_copies(federation, dov_id) == 1
        assert_directory_rebuild_equal(federation)


class TestCrashBetweenPrepareAndDecide:
    def test_undecided_batch_aborts_everywhere(self):
        """The whole site (coordinator + members) dies after every
        member prepared but before the decision record: presumed
        abort — recovery settles the prepared groups as aborted,
        nothing of the batch is durable anywhere, and a retry commits
        exactly once."""
        federation, heads = make_federation()
        commit_batch(federation, heads, rev=1)

        def die_before_decision(gtxn_id, manifest):
            raise _CoordinatorDied(gtxn_id)

        federation.decision_log.record = die_before_decision
        staged = stage_batch(federation, heads, rev=2)
        with pytest.raises(_CoordinatorDied):
            federation.commit_group(staged)
        del federation.decision_log.record  # restore the class method
        federation.crash()
        federation.recover()
        # no decision record means abort: the members' in-doubt
        # queries resolved to ABORT and the staged portions died
        for dov_id in staged:
            assert durable_copies(federation, dov_id) == 0
        gtxn = f"gtxn-{federation._next_gtxn}"
        assert federation.decision_log.resolve(gtxn) is Decision.ABORT
        # rev-1 survived intact, and a retried batch lands exactly once
        retried = commit_batch(federation, heads, rev=2)
        for dov_id in retried:
            assert durable_copies(federation, dov_id) == 1
        assert_directory_rebuild_equal(federation)


class TestCrashAfterDecide:
    def test_logged_decision_completes_after_recovery(self):
        """Coordinator dies after forcing the decision, before any
        member is told: the decision record is the commit point, so
        recovery finishes the batch — exactly once."""
        federation, heads = make_federation()
        commit_batch(federation, heads, rev=1)

        def die_after_decision(gtxn_id, manifest):
            federation.decision_log.on_decision = None
            raise _CoordinatorDied(gtxn_id)

        federation.decision_log.on_decision = die_after_decision
        staged = stage_batch(federation, heads, rev=2)
        with pytest.raises(_CoordinatorDied):
            federation.commit_group(staged)
        federation.crash_coordinator()
        report = federation.recover_coordinator()
        assert report["decisions_recovered"] >= 1
        assert report["settled"] == 1
        for dov_id in staged:
            assert durable_copies(federation, dov_id) == 1
        assert federation.decision_log.incomplete() == []
        assert_directory_rebuild_equal(federation)

    def test_decided_batch_is_not_reapplied_twice(self):
        """Running resolve_incomplete again after the batch settled
        must not duplicate any version."""
        federation, heads = make_federation()

        def die_after_decision(gtxn_id, manifest):
            federation.decision_log.on_decision = None
            raise _CoordinatorDied(gtxn_id)

        federation.decision_log.on_decision = die_after_decision
        staged = stage_batch(federation, heads, rev=1)
        with pytest.raises(_CoordinatorDied):
            federation.commit_group(staged)
        federation.crash_coordinator()
        federation.recover_coordinator()
        assert federation.resolve_incomplete() == 0
        for dov_id in staged:
            assert durable_copies(federation, dov_id) == 1

    def test_member_restarting_before_the_coordinator(self):
        """The coordinator dies after the decision record and site-1
        crashes in the same window; site-1 restarts first, so its
        in-doubt query reaches a log that has not recovered yet.  The
        coordinator's restart still settles the batch — every version
        durable exactly once — and a later site-1 crash redoes
        nothing."""
        federation, heads = make_federation()
        commit_batch(federation, heads, rev=1)

        def die_with_site_1(gtxn_id, manifest):
            federation.decision_log.on_decision = None
            federation.crash_member("site-1")
            raise _CoordinatorDied(gtxn_id)

        federation.decision_log.on_decision = die_with_site_1
        staged = stage_batch(federation, heads, rev=2)
        with pytest.raises(_CoordinatorDied):
            federation.commit_group(staged)
        directory = federation.directory_snapshot()
        federation.crash_coordinator()
        federation.recover_member("site-1")
        assert federation.recover_coordinator()["settled"] == 1
        for dov_id in staged:
            assert durable_copies(federation, dov_id) == 1
        assert federation.decision_log.incomplete() == []
        # a batch stages one version per DA, and da-i lives on site-i
        assert federation.directory_snapshot() == {
            **directory,
            **{dov_id: f"site-{index}"
               for index, dov_id in enumerate(staged)}}
        federation.crash_member("site-1")
        assert federation.recover_member("site-1")["redone_batches"] == 0
        assert_directory_rebuild_equal(federation)


class TestCrashDuringTruncation:
    def test_checkpoint_interrupted_mid_truncate_recovers(self):
        """The coordinator dies after forcing the CHECKPOINT record
        but before the truncation completes: recovery starts from the
        checkpoint (the stale records behind it are subsumed), nothing
        is lost or duplicated, and the next checkpoint truncates."""
        federation, heads = make_federation()
        log = federation.decision_log
        for rev in range(1, 4):
            commit_batch(federation, heads, rev)
        committed_so_far = {dov_id for member
                            in federation.members().values()
                            for dov_id in
                            (dov.dov_id for dov in member.store)}

        original_truncate = log.wal.truncate
        log.wal.truncate = lambda up_to_lsn: (_ for _ in ()).throw(
            StorageError("disk died mid-truncation"))
        with pytest.raises(StorageError):
            log.checkpoint()
        log.wal.truncate = original_truncate

        federation.crash_coordinator()
        federation.recover_coordinator()
        # the checkpoint carried no live decisions (all batches were
        # complete), so recovery starts empty past it
        assert log.incomplete() == []
        for dov_id in committed_so_far:
            assert durable_copies(federation, dov_id) == 1
        # post-recovery batches decide, complete and truncate normally
        commit_batch(federation, heads, rev=4)
        result = log.checkpoint()
        assert result["truncated"] >= 1
        assert len(log.wal) == 1  # just the checkpoint
        assert_directory_rebuild_equal(federation)

    def test_bounded_log_across_cycles(self):
        """A default federation, >= 4 checkpoint windows of batches:
        the record count never exceeds twice the window, and a batch
        left incomplete is still answered over the truncated log.
        (At the parent only a log built with ``checkpoint_interval=``
        was bounded; a federation's own log only grew.)"""
        window = CHECKPOINT_WINDOW
        federation, heads = make_federation()
        log = federation.decision_log
        peak = 0
        for rev in range(1, 4 * window + 2):
            commit_batch(federation, heads, rev)
            peak = max(peak, len(log.wal))
        assert log.truncations >= 4
        assert peak <= 2 * window

        def crash_site_1(gtxn_id, manifest):
            log.on_decision = None
            federation.crash_member("site-1")

        log.on_decision = crash_site_1
        staged = commit_batch(federation, heads, rev=4 * window + 2)
        (in_doubt,) = log.incomplete()
        federation.crash_coordinator()
        federation.recover_coordinator()  # site-1 is still down
        assert log.incomplete() == [in_doubt]
        assert log.resolve(in_doubt) is Decision.COMMIT
        federation.recover_member("site-1")
        assert log.incomplete() == []
        for dov_id in staged:
            assert durable_copies(federation, dov_id) == 1


class TestWholeSiteLoss:
    def test_site_recovery_rebuilds_everything(self):
        """Members + coordinator all die: the directory, staged index
        and DA homes come back from the member WALs alone."""
        federation, heads = make_federation()
        commit_batch(federation, heads, rev=1)
        directory_before = federation.directory_snapshot()
        homes_before = dict(federation._homes)
        federation.crash()
        assert federation.directory_snapshot() == {}
        federation.recover()
        assert federation.directory_snapshot() == directory_before
        assert federation._homes == homes_before
        commit_batch(federation, heads, rev=2)
        assert_directory_rebuild_equal(federation)


def test_directory_rebuilt_from_the_members_equals_the_maintained_one():
    """Cross-member batches plus one version left staged, the
    coordinator lost: every index surface comes back from the members
    alone."""
    federation, heads = make_federation()
    commit_batch(federation, heads, rev=1)
    commit_batch(federation, heads, rev=2)
    # one version stays staged across the crash: the rebuild must
    # recover the staged-home map too, not only the directory
    extra = federation.stage_checkin("da-0", "Cell", {"area": 30.0},
                                     (heads["da-0"],), created_at=3.0)
    directory = federation.directory_snapshot()
    homes = dict(federation._homes)
    assert federation._staged == {extra.dov_id: "site-0"}
    federation.crash_coordinator()
    federation.recover_coordinator()
    assert federation.directory_snapshot() == directory
    assert federation._homes == homes
    assert federation._staged == {extra.dov_id: "site-0"}
    assert_directory_rebuild_equal(federation)


def test_t10_coordinator_placement_loses_and_restarts_the_coordinator(
        monkeypatch):
    """T10's ``coordinator`` row is a real coordinator loss: the
    coordinator crashes once, and its restart settles exactly the one
    batch in doubt."""
    from repro.scenario import canonical_scenarios
    from repro.scenario.federation import federated_commit_scenario

    calls = {"crashes": 0, "settled": []}
    crash = FederatedRepository.crash_coordinator
    recover = FederatedRepository.recover_coordinator

    def counted_crash(self):
        calls["crashes"] += 1
        return crash(self)

    def counted_recover(self):
        totals = recover(self)
        calls["settled"].append(totals["settled"])
        return totals

    monkeypatch.setattr(FederatedRepository, "crash_coordinator",
                        counted_crash)
    monkeypatch.setattr(FederatedRepository, "recover_coordinator",
                        counted_recover)
    report = federated_commit_scenario(
        canonical_scenarios()["t10_federated_commit"], "coordinator")
    assert calls == {"crashes": 1, "settled": [1]}
    assert report.atomic_violations == 0
