"""The global decision log and the federated atomic commit.

PR-5 acceptance surface at the repository/federation level: a
cross-member ``commit_group`` is all-or-nothing under member crashes —
the durable decision record, not the member's luck, determines the
batch's fate.  Presumed abort: a logged COMMIT decision is redone from
the member's forced prepare record at recovery; a missing decision
record *means* abort and nothing survives.
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
from repro.txn.decision_log import CHECKPOINT_WINDOW, GlobalDecisionLog
from repro.txn.gateway import Decision
from repro.util.errors import StorageError
from repro.util.ids import IdGenerator


class TestGlobalDecisionLog:
    def test_record_is_one_forced_write(self):
        log = GlobalDecisionLog()
        forced = log.wal.forced_writes
        log.record("gtxn-1", {"site-a": ["dov-1"], "site-b": ["dov-2"]})
        assert log.wal.forced_writes == forced + 1
        assert log.decisions() == ["gtxn-1"]
        assert log.manifest("gtxn-1") == {"site-a": ["dov-1"],
                                          "site-b": ["dov-2"]}

    def test_record_is_idempotent(self):
        log = GlobalDecisionLog()
        log.record("gtxn-1", {"site-a": ["dov-1"]})
        forced = log.wal.forced_writes
        log.record("gtxn-1", {"site-a": ["dov-1"]})
        assert log.wal.forced_writes == forced

    def test_presumed_abort_resolution(self):
        log = GlobalDecisionLog()
        log.record("gtxn-1", {"site-a": ["dov-1"]})
        assert log.resolve("gtxn-1") is Decision.COMMIT
        # never recorded: a missing record MEANS abort
        assert log.resolve("gtxn-never") is Decision.ABORT

    def test_completion_and_recovery(self):
        log = GlobalDecisionLog()
        log.record("gtxn-1", {"site-a": ["dov-1"]})
        log.record("gtxn-2", {"site-b": ["dov-2"]})
        log.mark_complete("gtxn-1")
        assert log.incomplete() == ["gtxn-2"]
        # completion records are un-forced: a crash drops the tail,
        # the decisions themselves survive
        log.wal.crash()
        recovered = log.recover()
        assert recovered == 2
        assert log.resolve("gtxn-2") is Decision.COMMIT
        # gtxn-1's completion marker was forced along with gtxn-2's
        # decision record (the force flushes the whole tail)
        assert "gtxn-2" in log.incomplete()

    def test_decisions_in_log_order(self):
        log = GlobalDecisionLog()
        for index in range(3):
            log.record(f"gtxn-{index}", {"m": [f"dov-{index}"]})
        assert log.decisions() == ["gtxn-0", "gtxn-1", "gtxn-2"]


def make_federation(members: int = 2):
    ids = IdGenerator()
    federation = FederatedRepository({
        f"site-{index}": DesignDataRepository(ids)
        for index in range(members)})
    federation.register_dot(DesignObjectType("Cell", attributes=[
        AttributeDef("area", AttributeKind.FLOAT, required=False)]))
    roots = {}
    for index in range(members):
        da_id = f"da-{index}"
        federation.assign(da_id, f"site-{index}")
        federation.create_graph(da_id)
        roots[da_id] = federation.checkin(
            da_id, "Cell", {"area": float(index)}, ()).dov_id
    return federation, roots


def stage_cross_batch(federation, roots, area: float = 50.0):
    staged = []
    for da_id, root in sorted(roots.items()):
        dov = federation.stage_checkin(
            da_id, "Cell", {"area": area}, (root,), created_at=1.0)
        staged.append(dov.dov_id)
    return staged


class TestFederatedAtomicCommit:
    def test_cross_member_batch_commits_with_one_decision(self):
        federation, roots = make_federation()
        staged = stage_cross_batch(federation, roots)
        committed = federation.commit_group(staged)
        assert [dov.dov_id for dov in committed] == staged
        assert len(federation.decision_log.decisions()) == 1
        assert federation.decision_log.incomplete() == []
        for dov_id in staged:
            assert dov_id in federation

    def test_single_member_batch_skips_the_global_protocol(self):
        federation, roots = make_federation()
        dov = federation.stage_checkin("da-0", "Cell", {"area": 9.0},
                                       (roots["da-0"],), 1.0)
        federation.commit_group([dov.dov_id])
        assert len(federation.decision_log.decisions()) == 0
        assert dov.dov_id in federation

    def test_member_down_during_prepare_aborts_everywhere(self):
        """Presumed abort: no decision record, no survivors."""
        federation, roots = make_federation()
        staged = stage_cross_batch(federation, roots)
        federation.crash_member("site-1")
        with pytest.raises(StorageError):
            federation.commit_group(staged)
        # nothing was logged, nothing is durable, survivors un-staged
        assert len(federation.decision_log.decisions()) == 0
        assert staged[0] not in federation.member("site-0").store
        assert not federation.member("site-0").store.staged_ids()
        federation.recover_member("site-1")
        for dov_id in staged:
            assert dov_id not in federation

    def test_member_crash_after_decision_is_redone_at_recovery(self):
        """The logged decision completes at the crashed member."""
        federation, roots = make_federation()
        staged = stage_cross_batch(federation, roots)

        def crash_site_1(gtxn_id, manifest):
            federation.decision_log.on_decision = None
            federation.crash_member("site-1")

        federation.decision_log.on_decision = crash_site_1
        committed = federation.commit_group(staged)
        # the live member committed its portion now ...
        live = {dov.dov_id for dov in committed}
        assert staged[0] in live and staged[1] not in live
        assert federation.decision_log.incomplete() != []
        # ... and recovery completes the crashed member's portion
        report = federation.recover_member("site-1")
        assert report["redone_batches"] == 1
        for dov_id in staged:
            assert dov_id in federation
        assert federation.decision_log.incomplete() == []
        # the redone version is read back with the shipped payload
        assert federation.read(staged[1]).data["area"] == 50.0

    def test_coordinator_crash_between_decision_and_notification(self):
        """Recovery must complete the logged decision (satellite)."""
        federation, roots = make_federation()
        staged = stage_cross_batch(federation, roots)

        class Boom(RuntimeError):
            pass

        def die(gtxn_id, manifest):
            federation.decision_log.on_decision = None
            raise Boom(gtxn_id)

        federation.decision_log.on_decision = die
        with pytest.raises(Boom):
            federation.commit_group(staged)
        # the decision is durable; no participant was told
        assert federation.decision_log.incomplete() != []
        for dov_id in staged:
            assert dov_id not in federation
        # coordinator restart: the logged decision completes
        assert federation.resolve_incomplete() == 1
        for dov_id in staged:
            assert dov_id in federation

    def test_redo_survives_a_second_crash(self):
        """Redo is idempotent and re-durable: crash, recover (redo),
        crash again, recover again — the batch stays committed."""
        federation, roots = make_federation()
        staged = stage_cross_batch(federation, roots)

        def crash_site_1(gtxn_id, manifest):
            federation.decision_log.on_decision = None
            federation.crash_member("site-1")

        federation.decision_log.on_decision = crash_site_1
        federation.commit_group(staged)
        federation.recover_member("site-1")
        assert staged[1] in federation
        federation.crash_member("site-1")
        report = federation.recover_member("site-1")
        # the redo wrote fresh DOV_CHECKIN records + commit marker, so
        # the second recovery replays them as ordinary durable state
        assert report["redone_batches"] == 0
        assert staged[1] in federation

    def test_whole_site_recovery_settles_in_doubt_batches(self):
        federation, roots = make_federation()
        staged = stage_cross_batch(federation, roots)

        def crash_site_1(gtxn_id, manifest):
            federation.decision_log.on_decision = None
            federation.crash_member("site-1")

        federation.decision_log.on_decision = crash_site_1
        federation.commit_group(staged)
        federation.crash_member("site-0")
        totals = federation.recover()
        assert totals["redone_batches"] == 1
        for dov_id in staged:
            assert dov_id in federation

    def test_whole_site_crash_rebuilds_the_decision_log_itself(self):
        """A whole-site failure crashes the coordinator state too: the
        in-memory maps die with it, and recovery rebuilds them from
        the forced decision records before settling in-doubt work."""
        federation, roots = make_federation()
        staged = stage_cross_batch(federation, roots)

        def crash_site_1(gtxn_id, manifest):
            federation.decision_log.on_decision = None
            federation.crash_member("site-1")

        federation.decision_log.on_decision = crash_site_1
        federation.commit_group(staged)
        report = federation.crash()
        # completion markers ride the un-forced tail; the decision
        # records themselves were forced and survive
        assert "gtxn-1" not in federation.decision_log.decisions()
        totals = federation.recover()
        assert totals["decisions_recovered"] == 1
        assert totals["redone_batches"] == 1
        for dov_id in staged:
            assert dov_id in federation
        assert report["staged_lost"] >= 0  # crash report shape holds

    def test_stats_surface_the_decision_log(self):
        federation, roots = make_federation()
        staged = stage_cross_batch(federation, roots)
        federation.commit_group(staged)
        assert len(federation.decision_log.decisions()) == 1
        assert federation.redone_batches == 0


class TestCheckpointTruncation:
    def test_checkpoint_forgets_completed_keeps_incomplete(self):
        log = GlobalDecisionLog()
        log.record("gtxn-1", {"site-a": ["dov-1"]})
        log.record("gtxn-2", {"site-b": ["dov-2"]})
        log.mark_complete("gtxn-1")
        result = log.checkpoint()
        assert result == {"live": 1, "forgotten": 1,
                          "truncated": result["truncated"]}
        assert result["truncated"] >= 2
        assert log.decisions() == ["gtxn-2"]
        assert log.incomplete() == ["gtxn-2"]
        # behind the frontier presumed abort answers by construction
        assert log.resolve("gtxn-1") is Decision.ABORT
        assert log.resolve("gtxn-2") is Decision.COMMIT
        assert log.manifest("gtxn-2") == {"site-b": ["dov-2"]}

    def test_checkpoint_is_one_forced_write(self):
        log = GlobalDecisionLog()
        log.record("gtxn-1", {"site-a": ["dov-1"]})
        log.mark_complete("gtxn-1")
        forced = log.wal.forced_writes
        log.checkpoint()
        assert log.wal.forced_writes == forced + 1
        assert len(log.wal) == 1  # checkpoint only

    def test_recovery_restarts_from_the_checkpoint(self):
        log = GlobalDecisionLog()
        log.record("gtxn-1", {"site-a": ["dov-1"]})
        log.mark_complete("gtxn-1")
        log.record("gtxn-2", {"site-b": ["dov-2"]})
        log.checkpoint()
        log.record("gtxn-3", {"site-a": ["dov-3"]})
        log.crash()
        assert log.recover() == 2
        assert log.decisions() == ["gtxn-2", "gtxn-3"]
        assert log.incomplete() == ["gtxn-2", "gtxn-3"]
        assert log.resolve("gtxn-1") is Decision.ABORT

    def test_crash_between_checkpoint_and_truncate_is_idempotent(self):
        """The CHECKPOINT record subsumes everything behind it: if the
        truncation never happens, recovery still lands on the same
        state — the stale records are replayed, then reset."""
        log = GlobalDecisionLog()
        log.record("gtxn-1", {"site-a": ["dov-1"]})
        log.mark_complete("gtxn-1")
        log.record("gtxn-2", {"site-b": ["dov-2"]})

        original_truncate = log.wal.truncate
        log.wal.truncate = lambda up_to_lsn: (_ for _ in ()).throw(
            StorageError("crash mid-truncation"))
        with pytest.raises(StorageError):
            log.checkpoint()
        log.wal.truncate = original_truncate

        log.crash()
        log.recover()
        assert log.decisions() == ["gtxn-2"]
        assert log.incomplete() == ["gtxn-2"]
        assert log.resolve("gtxn-1") is Decision.ABORT

    def test_auto_checkpoint_interval_bounds_the_log(self):
        window = CHECKPOINT_WINDOW
        log = GlobalDecisionLog()
        peak = 0
        for index in range(3 * window + 1):
            gtxn = f"gtxn-{index}"
            log.record(gtxn, {"site-a": [f"dov-{index}"]})
            log.mark_complete(gtxn)
            peak = max(peak, len(log.wal))
        assert log.truncations == 3
        assert log.forgotten_decisions == 3 * window
        assert peak <= 2 * window
        # the one decision past the last frontier is still retained
        assert log.decisions() == [f"gtxn-{3 * window}"]

    def test_incomplete_is_a_stable_copy(self):
        log = GlobalDecisionLog()
        log.record("gtxn-1", {"site-a": ["dov-1"]})
        view = log.incomplete()
        view.append("gtxn-bogus")
        assert log.incomplete() == ["gtxn-1"]
        snapshot = log.decisions()
        snapshot.clear()
        assert log.decisions() == ["gtxn-1"]
