"""Integration tests for the TE level: DOP lifecycle via client/server TM."""

from __future__ import annotations

import pytest

from repro.bench.perf import _CELL, _make_rig, _nested_payload
from repro.net.two_phase_commit import CommitProtocol
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    Constraint,
    DesignObjectType,
)
from repro.te.dop import DopState
from repro.te.locks import LockMode
from repro.te.rig import TeRig
from repro.util.errors import (
    LockConflictError,
    RecoveryError,
    ScopeViolationError,
    TransactionError,
    TransactionStateError,
)


def _area_non_negative(data: dict) -> bool:
    return (data.get("area") or 0) >= 0



@pytest.fixture
def rig():
    te = TeRig(trace=False, object_buffers=False)
    clock, network, locks = te.clock, te.network, te.locks
    repo, server_tm = te.repository, te.server_tm
    repo.register_dot(DesignObjectType("Cell", attributes=[
        AttributeDef("area", AttributeKind.FLOAT, required=False)],
        constraints=[Constraint("range(area)", _area_non_negative)]))
    repo.create_graph("da-1")
    repo.create_graph("da-2")
    client_tm = te.add_workstation("ws-1")
    workstation = client_tm.node
    dov0 = repo.checkin("da-1", "Cell", {"area": 100.0})
    return {
        "clock": clock, "network": network, "workstation": workstation,
        "repo": repo, "locks": locks, "server_tm": server_tm,
        "client_tm": client_tm, "dov0": dov0,
    }


class TestDopLifecycle:
    def test_full_cycle(self, rig):
        client = rig["client_tm"]
        dop = client.begin_dop("da-1", "tool")
        assert dop.state is DopState.ACTIVE
        client.checkout(dop, rig["dov0"].dov_id)
        client.work(dop, 10.0,
                    mutate=lambda c: c.data.update(area=50.0))
        result = client.checkin(dop, "Cell")
        assert result.success
        client.commit_dop(dop)
        assert dop.state is DopState.COMMITTED
        graph = rig["repo"].graph("da-1")
        assert result.dov.dov_id in graph
        assert graph.is_ancestor(rig["dov0"].dov_id, result.dov.dov_id)

    def test_work_advances_clock(self, rig):
        client = rig["client_tm"]
        dop = client.begin_dop("da-1", "tool")
        client.work(dop, 42.0)
        assert rig["clock"].now == 42.0
        assert dop.context.work_done == 42.0

    def test_checkin_failure_reported_not_raised(self, rig):
        client = rig["client_tm"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        client.work(dop, 1.0,
                    mutate=lambda c: c.data.update(area=-5.0))
        result = client.checkin(dop, "Cell")
        assert not result.success
        assert "range(area)" in result.reason
        # the paper: designer/DM decides -> abort here
        client.abort_dop(dop)
        assert dop.state is DopState.ABORTED
        assert len(rig["repo"].graph("da-1")) == 1  # nothing persisted

    def test_state_guards(self, rig):
        client = rig["client_tm"]
        dop = client.begin_dop("da-1", "tool")
        client.commit_dop(dop)
        with pytest.raises(TransactionStateError):
            client.work(dop, 1.0)
        with pytest.raises(TransactionStateError):
            client.checkout(dop, rig["dov0"].dov_id)


class TestCheckoutSemantics:
    def test_scope_enforced(self, rig):
        client = rig["client_tm"]
        dop = client.begin_dop("da-2", "tool")
        with pytest.raises(ScopeViolationError):
            client.checkout(dop, rig["dov0"].dov_id)  # da-1's DOV

    def test_derivation_lock_blocks_other_da(self, rig):
        client = rig["client_tm"]
        server = rig["server_tm"]
        # pretend the CM authorised da-2 to see the DOV (usage rel.)
        server.scope_check = lambda da, dov: True
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id, derivation_lock=True)
        # even with scope access, the derivation lock blocks checkout
        with pytest.raises(LockConflictError):
            server.checkout("da-2", "dop-x", rig["dov0"].dov_id)

    def test_same_da_can_checkout_again(self, rig):
        client = rig["client_tm"]
        dop_a = client.begin_dop("da-1", "tool")
        client.checkout(dop_a, rig["dov0"].dov_id, derivation_lock=True)
        dop_b = client.begin_dop("da-1", "tool")
        client.checkout(dop_b, rig["dov0"].dov_id)  # same DA: allowed

    def test_derivation_locks_released_at_end_of_dop(self, rig):
        client = rig["client_tm"]
        server = rig["server_tm"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id, derivation_lock=True)
        client.commit_dop(dop)
        # now another DA's checkout is admitted past the derivation check
        # (scope still fails, which proves the lock went away first)
        with pytest.raises(ScopeViolationError):
            server.checkout("da-2", "dop-x", rig["dov0"].dov_id)
        assert rig["locks"].holders(rig["dov0"].dov_id,
                                    LockMode.DERIVATION) == []

    def test_recovery_point_after_checkout(self, rig):
        client = rig["client_tm"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        assert client.recovery.latest(dop.dop_id) is not None

    def test_checkout_merges_data_into_context(self, rig):
        client = rig["client_tm"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        assert dop.context.data["area"] == 100.0
        assert dop.input_dovs == [rig["dov0"].dov_id]

    def test_a_checked_out_payload_is_shared_and_private(self):
        # miss and buffer hit alike put the version's frozen payload
        # into the context: no copy, and no reference through which
        # the context could corrupt the version
        te = _make_rig()
        client = te.client_tm("ws-1")
        version = te.repository.checkin("da-1", "Cell", _nested_payload())
        dop = client.begin_dop("da-1", "tool")
        for hits in (0, 1):
            client.checkout(dop, version.dov_id)
            assert client.buffer.hits == hits
            assert dop.context.data["tree"] is version.data["tree"]
            with pytest.raises(TypeError):
                dop.context.data["meta"]["tags"].append("mine")
        assert version.data["meta"]["tags"] == ["synth", "placed",
                                                "routed"]


    def test_a_traced_read_set_writes_its_rows_with_its_point(self):
        # each DOV of the set is fetched in order (the server's row for
        # the miss comes first); the client's rows, cached or shipped,
        # come with the one point
        te = TeRig(trace=True)
        te.open_scope()
        te.repository.register_dot(_CELL)
        te.repository.create_graph("da-1")
        client = te.add_workstation("ws-1")
        a, b = (te.repository.checkin("da-1", "Cell",
                                      _nested_payload(rev=rev))
                for rev in (1, 2))
        client.checkout(client.begin_dop("da-1", "tool"), a.dov_id)
        dop = client.begin_dop("da-1", "tool")
        te.trace.clear()
        got = client.checkout(dop, a.dov_id, b.dov_id, a.dov_id)
        assert [dov.dov_id for dov in got] == [a.dov_id, b.dov_id, a.dov_id]
        rows = [(event.component, event.operation, event.subject,
                 event.detail.get("cached"))
                for event in te.trace.operations("checkout",
                                                 "recovery_point")]
        assert rows == [
            ("server-TM", "checkout", b.dov_id, None),
            ("client-TM:ws-1", "checkout", a.dov_id, True),
            ("client-TM:ws-1", "checkout", b.dov_id, False),
            ("client-TM:ws-1", "checkout", a.dov_id, True),
            ("client-TM:ws-1", "recovery_point", dop.dop_id, None)]


class TestSuspendResume:
    def test_resume_restores_suspend_state(self, rig):
        client = rig["client_tm"]
        dop = client.begin_dop("da-1", "tool")
        client.work(dop, 10.0, mutate=lambda c: c.data.update(x=1))
        client.suspend(dop)
        assert dop.state is DopState.SUSPENDED
        with pytest.raises(TransactionStateError):
            client.work(dop, 1.0)
        client.resume(dop)
        assert dop.state is DopState.ACTIVE
        assert dop.context.data["x"] == 1
        assert dop.context.work_done == 10.0


class TestSavepoints:
    def test_save_restore_through_client_tm(self, rig):
        client = rig["client_tm"]
        dop = client.begin_dop("da-1", "tool")
        client.work(dop, 5.0, mutate=lambda c: c.data.update(v=1))
        client.save(dop, "sp1")
        client.work(dop, 5.0, mutate=lambda c: c.data.update(v=2))
        client.restore(dop, "sp1")
        assert dop.context.data["v"] == 1

    def test_restore_is_durable(self, rig):
        """A Restore "wipes out" the later work and savepoints
        (Sect.4.3); a crash right after it must not bring them back."""
        client = rig["client_tm"]
        dop = client.begin_dop("da-1", "tool")
        client.work(dop, 5.0, mutate=lambda c: c.data.update(v=1))
        client.save(dop, "sp1")
        client.work(dop, 5.0, mutate=lambda c: c.data.update(v=2))
        client.save(dop, "sp2")
        points_before = client.recovery.points_taken
        client.restore(dop, "sp1")
        assert client.recovery.points_taken == points_before + 1
        assert client.recovery.latest(dop.dop_id).reason == "restore:sp1"
        rig["network"].crash_node("ws-1")
        rig["network"].restart_node("ws-1")
        recovered, __ = client.recover_dop(dop.dop_id, "da-1", "tool")
        assert recovered.context.data == {"v": 1}
        assert recovered.savepoints.names() == ["sp1"]
        assert recovered.context.work_done == 5.0

    def test_restore_of_the_latest_savepoint_names_it_in_the_point(
            self, rig):
        client = rig["client_tm"]
        dop = client.begin_dop("da-1", "tool")
        client.save(dop, "sp1")
        client.save(dop, "sp2")
        client.restore(dop)
        assert client.recovery.latest(dop.dop_id).reason == "restore:sp2"

    def test_savepoints_cleared_at_commit(self, rig):
        client = rig["client_tm"]
        dop = client.begin_dop("da-1", "tool")
        client.save(dop, "sp1")
        client.commit_dop(dop)
        assert len(dop.savepoints) == 0
        assert client.recovery.latest(dop.dop_id) is None


class TestWorkstationCrash:
    def test_recover_from_interval_point(self, rig):
        client = rig["client_tm"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        client.work(dop, 30.0)   # interval point at 30
        client.work(dop, 20.0)   # 20 min past the point
        rig["network"].crash_node("ws-1")
        assert client.active_dops() == []
        rig["network"].restart_node("ws-1")
        recovered, __ = client.recover_dop(dop.dop_id, "da-1", "tool")
        assert recovered.context.work_done == 30.0  # 20 min lost
        assert recovered.input_dovs == [rig["dov0"].dov_id]
        assert recovered.state is DopState.ACTIVE

    def test_recover_without_point_fails(self, rig):
        client = rig["client_tm"]
        dop = client.begin_dop("da-1", "tool")  # no checkout, no work
        rig["network"].crash_node("ws-1")
        rig["network"].restart_node("ws-1")
        with pytest.raises(RecoveryError):
            client.recover_dop(dop.dop_id, "da-1", "tool")

    def test_a_stale_handle_is_refused_after_a_crash(self, rig):
        """The pre-crash object carries the volatile state the crash
        lost; a recovery point taken from it would overwrite the
        durable one with exactly that state."""
        client = rig["client_tm"]
        dov_id = rig["dov0"].dov_id
        stale = client.begin_dop("da-1", "tool")
        client.checkout(stale, dov_id)
        client.work(stale, 5.0, mutate=lambda c: c.data.update(lost=1))
        rig["network"].crash_node("ws-1")
        rig["network"].restart_node("ws-1")

        def refused_everywhere():
            for operation in (
                    lambda: client.checkout(stale, dov_id),
                    lambda: client.work(stale, 1.0),
                    lambda: client.save(stale, "sp"),
                    lambda: client.suspend(stale),
                    lambda: client.checkin(stale, "Cell"),
                    lambda: client.commit_dop(stale),
                    lambda: client.abort_dop(stale),
                    lambda: client.drop_dop(stale)):
                with pytest.raises(TransactionError, match="not a DOP"):
                    operation()
            context, __, __p = client.recovery.restore(stale.dop_id)
            assert "lost" not in context.data
            assert context.work_done == 0.0

        refused_everywhere()
        # ... and also once the DOP runs again under a new object
        recovered, __ = client.recover_dop(stale.dop_id, "da-1", "tool")
        refused_everywhere()
        assert client.active_dops() == [recovered]
        client.checkout(recovered, dov_id)
        assert recovered.context.checked_out == [dov_id, dov_id]

    def test_a_suspended_stale_handle_cannot_be_resumed(self, rig):
        client = rig["client_tm"]
        stale = client.begin_dop("da-1", "tool")
        client.suspend(stale)
        rig["network"].crash_node("ws-1")
        rig["network"].restart_node("ws-1")
        with pytest.raises(TransactionError, match="not a DOP"):
            client.resume(stale)
        recovered, __ = client.recover_dop(stale.dop_id, "da-1", "tool")
        assert recovered.state is DopState.ACTIVE


class TestCheckinOnePhase:
    """The server-TM is a checkin's sole participant: it decides in one
    exchange, a request and a reply, and forces one WAL write."""

    def test_checkin_commits_in_one_exchange(self, rig):
        client = rig["client_tm"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        client.work(dop, 1.0, mutate=lambda c: c.data.update(area=1.0))
        forced = rig["repo"].wal.forced_writes
        result = client.checkin(dop, "Cell")
        outcome = result.outcome
        assert outcome.committed
        assert outcome.protocol is CommitProtocol.ONE_PHASE
        assert (outcome.messages, outcome.forced_log_writes) == (2, 1)
        assert rig["repo"].wal.forced_writes - forced == 1
        assert outcome.no_voters == () and outcome.latency > 0

    def test_failed_checkin_aborts(self, rig):
        client = rig["client_tm"]
        dop = client.begin_dop("da-1", "tool")
        client.work(dop, 1.0, mutate=lambda c: c.data.update(area=-1.0))
        forced = rig["repo"].wal.forced_writes
        result = client.checkin(dop, "Cell")
        outcome = result.outcome
        assert not outcome.committed and not result.success
        assert (outcome.messages, outcome.forced_log_writes) == (2, 0)
        assert outcome.no_voters == ("server",)
        assert rig["repo"].store.staged_ids() == set()
        assert rig["repo"].wal.forced_writes == forced
