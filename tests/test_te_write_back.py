"""Write-back object buffers: deferred checkins, group flush, recovery.

The PR-3 acceptance surface at the TE level: write-back checkins cost
zero network events until a flush ships them as ONE batched, sized
group checkin under a single 2PC; successive checkins of the same
lineage coalesce before shipping; the batch commits atomically (an
integrity failure or a server crash mid-batch leaves *nothing*
durable); a workstation crash drops dirty data (recovered from
repository state); and a server restart re-validates resident buffer
entries by repository stamp instead of cold-flushing them.
"""

from __future__ import annotations

import pytest

from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.repository.storage import VersionStore
from repro.repository.versions import DesignObjectVersion
from repro.te.rig import TeRig
from repro.txn import GroupCommitResult
from repro.util.errors import StorageError, TransactionError


def make_rig(write_back: bool = True,
             lease_ttl: float | None = None):
    """Client/server TM pair with write-back workstations (the kernel
    never runs: posted messages hand over synchronously)."""
    te = TeRig(trace=False, bandwidth=1000.0,
               write_back=write_back, lease_ttl=lease_ttl)
    te.open_scope()
    clock, network, server_tm = te.clock, te.network, te.server_tm
    repo = te.repository
    repo.register_dot(DesignObjectType("Cell", attributes=[
        AttributeDef("area", AttributeKind.FLOAT, required=False)]))
    repo.create_graph("da-1")
    repo.create_graph("da-2")
    clients = {name: te.add_workstation(name)
               for name in ("ws-1", "ws-2")}
    buffers = {name: te.object_buffer(name) for name in clients}
    dov0 = repo.checkin("da-1", "Cell", {"area": 100.0})
    return {
        "clock": clock, "network": network, "repo": repo,
        "server_tm": server_tm, "clients": clients,
        "buffers": buffers, "dov0": dov0,
    }


@pytest.fixture
def rig():
    return make_rig()


class TestDeferredCheckin:
    def test_checkin_is_local_and_provisional(self, rig):
        client = rig["clients"]["ws-1"]
        network = rig["network"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        sent = network.messages_sent
        bytes_before = network.bytes_shipped
        result = client.checkin(dop, "Cell", data={"area": 50.0},
                                parents=[rig["dov0"].dov_id])
        assert result.success and result.provisional
        # zero network events, zero bytes: the checkin stayed local
        assert network.messages_sent == sent
        assert network.bytes_shipped == bytes_before
        assert rig["buffers"]["ws-1"].dirty_ids() == [result.dov.dov_id]
        assert result.dov.dov_id not in rig["repo"]

    def test_own_dirty_version_is_a_buffer_hit(self, rig):
        client = rig["clients"]["ws-1"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        result = client.checkin(dop, "Cell", data={"area": 50.0},
                                parents=[rig["dov0"].dov_id])
        dop2 = client.begin_dop("da-1", "tool")
        [dov] = client.checkout(dop2, result.dov.dov_id)
        assert dov.data["area"] == 50.0

    def test_coalescing_drops_superseded_intermediates(self, rig):
        client = rig["clients"]["ws-1"]
        buffer = rig["buffers"]["ws-1"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        r1 = client.checkin(dop, "Cell", data={"area": 50.0},
                            parents=[rig["dov0"].dov_id])
        r2 = client.checkin(dop, "Cell", data={"area": 25.0},
                            parents=[r1.dov.dov_id])
        # the intermediate vanished before ever shipping
        assert len(buffer.dirty_entries()) == 1
        assert buffer.coalesced == 1
        assert r1.dov.dov_id not in buffer
        # the survivor inherits the durable lineage
        [entry] = buffer.dirty_entries()
        assert entry.dov.dov_id == r2.dov.dov_id
        assert entry.record["parents"] == [rig["dov0"].dov_id]


class TestGroupFlush:
    def test_end_of_dop_flushes_one_batch(self, rig):
        client = rig["clients"]["ws-1"]
        network = rig["network"]
        repo = rig["repo"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        r1 = client.checkin(dop, "Cell", data={"area": 50.0},
                            parents=[rig["dov0"].dov_id])
        r2 = client.checkin(dop, "Cell", data={"area": 25.0},
                            parents=[r1.dov.dov_id])
        client.commit_dop(dop)
        assert client.flushes == 1
        assert network.batches_sent == 1
        # coalescing: only ONE version became durable
        durable = client.resolve(r2.dov.dov_id)
        assert durable in repo
        assert repo.read(durable).data["area"] == 25.0
        assert client.resolve(r1.dov.dov_id) == durable
        assert dop.output_dov == durable
        # the flushed version stays resident, clean, under a lease
        buffer = rig["buffers"]["ws-1"]
        assert durable in buffer
        assert buffer.dirty_ids() == []
        assert rig["server_tm"].leases.holders(durable) == {"ws-1"}
        # the derivation graph extended exactly once
        assert [d.dov_id for d in repo.graph("da-1").leaves()] \
            == [durable]

    def test_checkins_stay_dirty_until_end_of_dop(self, rig):
        """No dirty-count trigger: however many lineages a DOP dirties,
        nothing ships before End-of-DOP (or a recall, or flush())."""
        client = rig["clients"]["ws-1"]
        network = rig["network"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        for area in (10.0, 20.0, 30.0, 40.0):
            client.checkin(dop, "Cell", data={"area": area},
                           parents=[rig["dov0"].dov_id])
        assert len(rig["buffers"]["ws-1"].dirty_ids()) == 4
        assert client.flushes == 0
        assert network.batches_sent == 0
        client.commit_dop(dop)
        assert client.flushes == 1
        assert client.flushed_checkins == 4
        assert rig["buffers"]["ws-1"].dirty_ids() == []

    def test_flush_invalidates_remote_superseded_copies(self, rig):
        reader = rig["clients"]["ws-2"]
        writer = rig["clients"]["ws-1"]
        dov0 = rig["dov0"]
        dop_r = reader.begin_dop("da-2", "tool")
        reader.checkout(dop_r, dov0.dov_id)
        assert dov0.dov_id in rig["buffers"]["ws-2"]
        dop_w = writer.begin_dop("da-1", "tool")
        writer.checkout(dop_w, dov0.dov_id)
        result = writer.checkin(dop_w, "Cell", data={"area": 1.0},
                                parents=[dov0.dov_id])
        # nothing shipped yet: the reader's copy is still leased
        assert dov0.dov_id in rig["buffers"]["ws-2"]
        writer.commit_dop(dop_w)
        # the flush committed the supersession: leases revoked
        assert dov0.dov_id not in rig["buffers"]["ws-2"]
        assert rig["server_tm"].leases.holders(dov0.dov_id) == set()

    def test_a_flush_is_one_decision_and_one_forced_wal_write(self, rig):
        client = rig["clients"]["ws-1"]
        repo, server_tm = rig["repo"], rig["server_tm"]
        dop = client.begin_dop("da-1", "tool")
        results = [client.checkin(dop, "Cell", data={"area": area},
                                  parents=[])
                   for area in (1.0, 2.0, 3.0)]
        forced_before = repo.wal.forced_writes
        flushed = client.flush()
        assert type(flushed) is GroupCommitResult and flushed.committed
        assert repo.wal.forced_writes == forced_before + 1
        assert server_tm.group_checkins == 1
        assert client.flushed_checkins == 3
        assert client.bytes_flushed == rig["network"].bytes_shipped
        # every flushed version is durable, resident at the flushing
        # workstation and leased to it
        for result in results:
            durable = client.resolve(result.dov.dov_id)
            assert flushed.mapping[result.dov.dov_id] == durable
            assert durable in repo
            assert durable in rig["buffers"]["ws-1"]
            assert server_tm.leases.holders(durable) == {"ws-1"}

    def test_nothing_to_ship_is_no_flush(self, rig):
        client = rig["clients"]["ws-1"]
        assert client.flush() is None
        assert rig["server_tm"].group_checkins == 0
        assert rig["network"].batches_sent == 0

    def test_a_due_lease_renewal_rides_the_flush_rpc(self):
        """Under TTL leases the flush's control RPC carries the
        workstation's renewal once ttl/2 has passed: no dedicated
        renewal message goes out."""
        rig = make_rig(lease_ttl=100.0)
        client = rig["clients"]["ws-1"]
        network = rig["network"]
        dop = client.begin_dop("da-1", "tool")

        def flush():
            client.checkin(dop, "Cell", data={"area": 1.0}, parents=[])
            return client.flush()

        assert flush().committed   # opens the renewal window
        assert client.renewals_piggybacked == 0
        per_flush = network.messages_sent
        rig["clock"].advance(50.0)
        assert flush().committed
        assert client.renewals_piggybacked == 1
        assert rig["server_tm"].renewals_piggybacked == 1
        # the renewal added no message to the flush's own
        assert network.messages_sent == 2 * per_flush

    def test_unflushed_lineage_resolves_after_the_flush(self, rig):
        """A second flush whose parent is the first flush's durable id
        commits cleanly: the mapping threads through."""
        client = rig["clients"]["ws-1"]
        dop = client.begin_dop("da-1", "tool")
        first = client.checkin(dop, "Cell", data={"area": 1.0},
                               parents=[])
        assert client.flush().committed
        durable_first = client.resolve(first.dov.dov_id)
        assert durable_first != first.dov.dov_id
        second = client.checkin(dop, "Cell", data={"area": 2.0},
                                parents=[first.dov.dov_id])
        assert second.dov.parents == (durable_first,)
        assert client.flush().committed
        durable_second = client.resolve(second.dov.dov_id)
        assert rig["repo"].read(durable_second).parents \
            == (durable_first,)
        assert dop.output_dov == durable_second

    def test_lease_recall_triggers_flush(self, rig):
        writer_wt = rig["clients"]["ws-2"]
        writer_wt.write_back = False  # ws-2 ships eagerly
        deferred = rig["clients"]["ws-1"]
        dov0 = rig["dov0"]
        dop = deferred.begin_dop("da-1", "tool")
        deferred.checkout(dop, dov0.dov_id)
        deferred.checkin(dop, "Cell", data={"area": 50.0},
                         parents=[dov0.dov_id])
        assert deferred.flushes == 0
        # ws-2 supersedes dov0 eagerly -> invalidation recalls ws-1's
        # leased copy, whose dirty entry derives from it -> auto-flush
        dop_w = writer_wt.begin_dop("da-2", "tool")
        writer_wt.checkout(dop_w, dov0.dov_id)
        result = writer_wt.checkin(dop_w, "Cell", data={"area": 2.0},
                                   parents=[dov0.dov_id])
        assert result.success and not result.provisional
        assert deferred.flushes == 1
        assert len(rig["buffers"]["ws-1"].dirty_entries()) == 0

    def test_recall_reentrancy_sends_one_invalidation_per_holder(self,
                                                                 rig):
        """A recall-triggered flush re-enters the commit observer in
        synchronous rigs; leases are revoked before posting, so each
        holder still receives exactly ONE invalidation for dov0."""
        server_tm = rig["server_tm"]
        writer_wt = rig["clients"]["ws-2"]
        writer_wt.write_back = False
        deferred = rig["clients"]["ws-1"]
        dov0 = rig["dov0"]
        # both workstations lease dov0; ws-1 has dirty work derived
        # from it
        dop_r = writer_wt.begin_dop("da-2", "tool")
        writer_wt.checkout(dop_r, dov0.dov_id)
        dop = deferred.begin_dop("da-1", "tool")
        deferred.checkout(dop, dov0.dov_id)
        deferred.checkin(dop, "Cell", data={"area": 50.0},
                         parents=[dov0.dov_id])
        posted: list[tuple[str, str]] = []
        original = server_tm._post_invalidation

        def spying_post(workstation, dov_id, superseded_by):
            posted.append((workstation, dov_id))
            return original(workstation, dov_id,
                            superseded_by=superseded_by)

        server_tm._post_invalidation = spying_post
        dop_w = writer_wt.begin_dop("da-2", "tool")
        writer_wt.checkout(dop_w, dov0.dov_id)
        writer_wt.checkin(dop_w, "Cell", data={"area": 2.0},
                          parents=[dov0.dov_id])
        assert deferred.flushes == 1
        # dov0 had two holders -> exactly ONE invalidation each, even
        # though the nested flush re-entered the commit observer
        assert posted.count(("ws-1", dov0.dov_id)) == 1
        assert posted.count(("ws-2", dov0.dov_id)) == 1
        assert server_tm.leases.holders(dov0.dov_id) == set()


class TestGroupAtomicity:
    def test_integrity_failure_aborts_the_whole_batch(self, rig):
        client = rig["clients"]["ws-1"]
        repo = rig["repo"]
        dop = client.begin_dop("da-1", "tool")
        client.checkin(dop, "Cell", data={"area": 10.0}, parents=[])
        # schema violation: area must be a float
        client.checkin(dop, "Cell", data={"area": "broken"},
                       parents=[])
        durable_before = len(repo.store)
        flushed = client.flush()
        assert not flushed.committed
        assert "area" in flushed.reason
        # atomic: the valid record did not slip through either
        assert len(repo.store) == durable_before
        assert len(repo.store.staged_ids()) == 0
        # the dirty set is intact for a later (corrected) retry
        assert len(rig["buffers"]["ws-1"].dirty_entries()) == 2

    def test_server_crash_mid_batch_leaves_nothing_durable(self, rig):
        """Crash between prepare (staged) and commit: the staged batch
        dies with the server's volatile state; after restart nothing
        is durable and the retried flush commits everything."""
        client = rig["clients"]["ws-1"]
        server_tm = rig["server_tm"]
        network = rig["network"]
        repo = rig["repo"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        r1 = client.checkin(dop, "Cell", data={"area": 50.0},
                            parents=[rig["dov0"].dov_id])
        r2 = client.checkin(dop, "Cell", data={"area": 25.0},
                            parents=[])
        records = [dict(e.record) for e
                   in rig["buffers"]["ws-1"].dirty_entries()]
        txn_id = "txn-crash-test"
        server_tm.request_group_checkin(txn_id, records,
                                        workstation="ws-1", lease=True)
        vote = server_tm.prepare(txn_id)
        assert vote.value == "yes"
        assert len(repo.store.staged_ids()) == 2
        network.crash_node("server")
        # volatile staging vanished with the server
        assert len(repo.store.staged_ids()) == 0
        network.restart_node("server")
        # nothing from the batch became durable: recovery sees only
        # the pre-batch frontier
        assert len(repo.store) == 1
        assert all(r["provisional_id"] not in repo for r in records)
        # the crash cleared the server-TM's transaction table too
        assert server_tm.end_txn(txn_id) is None
        # the workstation still holds its dirty set: retry succeeds
        flushed = client.flush()
        assert flushed.committed and client.flushed_checkins == 2
        assert client.resolve(r1.dov.dov_id) in repo
        assert client.resolve(r2.dov.dov_id) in repo

    def test_commit_batch_is_one_forced_wal_write(self):
        store = VersionStore()
        for index in range(3):
            store.stage(DesignObjectVersion(
                f"dov-{index}", "Cell", {"area": float(index)},
                "da-1", 0.0, ()))
        forced_before = store.wal.forced_writes
        store.commit_batch(["dov-0", "dov-1", "dov-2"])
        assert store.wal.forced_writes == forced_before + 1
        assert len(store) == 3

    def test_commit_batch_missing_member_commits_nothing(self):
        store = VersionStore()
        store.stage(DesignObjectVersion("dov-0", "Cell", {}, "da-1",
                                        0.0, ()))
        with pytest.raises(StorageError):
            store.commit_batch(["dov-0", "dov-ghost"])
        assert len(store) == 0
        assert store.staged_ids() == {"dov-0"}

    def test_commit_batch_crash_before_force_loses_whole_batch(self):
        """The batch's durability rides on ONE forced flush: a crash
        before it must lose every record of the batch together."""
        store = VersionStore()
        for index in range(2):
            store.stage(DesignObjectVersion(
                f"dov-{index}", "Cell", {}, "da-1", 0.0, ()))
        original_force = store.wal.force
        store.wal.force = lambda: (_ for _ in ()).throw(
            StorageError("power cut"))
        with pytest.raises(StorageError):
            store.commit_batch(["dov-0", "dov-1"])
        store.wal.force = original_force
        store.crash()
        recovered = store.recover()
        assert recovered == 0
        assert len(store) == 0


class TestCrashSemantics:
    def test_workstation_crash_drops_dirty_data(self, rig):
        """Determinism + recovery: unflushed checkins die with the
        volatile buffer; repository state is untouched and recovery
        starts from it, not from the buffer."""
        client = rig["clients"]["ws-1"]
        repo = rig["repo"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        client.checkin(dop, "Cell", data={"area": 50.0},
                       parents=[rig["dov0"].dov_id])
        durable_before = len(repo.store)
        rig["network"].crash_node("ws-1")
        buffer = rig["buffers"]["ws-1"]
        assert len(buffer) == 0
        assert buffer.dirty_lost == 1
        assert len(repo.store) == durable_before
        rig["network"].restart_node("ws-1")
        # recovery re-derives from the durable frontier
        dop2 = client.begin_dop("da-1", "tool")
        [dov] = client.checkout(dop2, rig["dov0"].dov_id)
        assert dov.data["area"] == 100.0

    def test_abort_dop_discards_its_dirty_entries(self, rig):
        client = rig["clients"]["ws-1"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        client.checkin(dop, "Cell", data={"area": 50.0},
                       parents=[rig["dov0"].dov_id])
        client.abort_dop(dop)
        assert len(rig["buffers"]["ws-1"].dirty_entries()) == 0
        assert client.flushes == 0

    def test_failed_end_of_dop_flush_does_not_commit_the_dop(self, rig):
        """A deferred integrity violation surfaces at End-of-DOP: the
        flush aborts, commit_dop raises, and the DOP stays ACTIVE with
        its dirty entries so the designer can correct or abort."""
        client = rig["clients"]["ws-1"]
        repo = rig["repo"]
        dop = client.begin_dop("da-1", "tool")
        result = client.checkin(dop, "Cell", data={"area": "broken"},
                                parents=[])
        assert result.success and result.provisional  # deferred!
        with pytest.raises(TransactionError, match="area"):
            client.commit_dop(dop)
        assert dop.state.value == "active"
        assert len(repo.store) == 1  # just dov0
        assert len(rig["buffers"]["ws-1"].dirty_entries()) == 1
        # the designer gives up: abort reclaims the dirty entry
        client.abort_dop(dop)
        assert len(rig["buffers"]["ws-1"].dirty_entries()) == 0

    def test_abort_dop_retires_the_forward_map(self, rig):
        client = rig["clients"]["ws-1"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        r1 = client.checkin(dop, "Cell", data={"area": 1.0},
                            parents=[rig["dov0"].dov_id])
        r2 = client.checkin(dop, "Cell", data={"area": 2.0},
                            parents=[r1.dov.dov_id])  # coalesces r1
        client.abort_dop(dop)
        # the discarded lineage no longer forwards anywhere
        assert client.resolve(r1.dov.dov_id) == r1.dov.dov_id
        assert client.resolve(r2.dov.dov_id) == r2.dov.dov_id


class TestRestartRevalidation:
    def _warm(self, rig):
        client = rig["clients"]["ws-1"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dov0"].dov_id)
        assert rig["dov0"].dov_id in rig["buffers"]["ws-1"]
        return client

    def test_revalidation_keeps_matching_stamps_and_releases(self, rig):
        client = self._warm(rig)
        network = rig["network"]
        network.crash_node("server")
        assert rig["server_tm"].leases.holders(rig["dov0"].dov_id) \
            == set()
        network.restart_node("server")
        buffer = rig["buffers"]["ws-1"]
        # the entry survived and was re-leased, so the next read is
        # local — zero re-shipped bytes
        assert rig["dov0"].dov_id in buffer
        assert buffer.revalidated == 1
        assert rig["server_tm"].leases.holders(rig["dov0"].dov_id) \
            == {"ws-1"}
        bytes_before = network.bytes_shipped
        dop = client.begin_dop("da-1", "tool")
        [dov] = client.checkout(dop, rig["dov0"].dov_id)
        assert dov.dov_id == rig["dov0"].dov_id
        assert network.bytes_shipped == bytes_before

    def test_revalidation_drops_stale_entries(self, rig):
        self._warm(rig)
        buffer = rig["buffers"]["ws-1"]
        # a resident copy of a version the repository no longer knows
        ghost = DesignObjectVersion("dov-ghost", "Cell", {"area": 1.0},
                                    "da-1", 0.0, ())
        buffer.put(ghost, "da-1")
        rig["network"].crash_node("server")
        rig["network"].restart_node("server")
        assert "dov-ghost" not in buffer
        assert rig["dov0"].dov_id in buffer
        assert buffer.revalidation_drops == 1


class TestSystemRestartPaths:
    """ConcordSystem.restart_server keeps warm buffers warm."""

    def _system(self, **kwargs):
        from repro.scenario.delegation import make_vlsi_system

        return make_vlsi_system(("ws-1",), trace=False, **kwargs)

    def _warm_system(self):
        from repro.scenario.delegation import chip_spec, make_vlsi_system
        from repro.dc.script import DopStep, Script, Sequence
        from repro.vlsi.tools import vlsi_dots

        system = make_vlsi_system(("ws-1",), trace=False)
        script = Script(Sequence(DopStep("structure_synthesis")), "s")
        da = system.init_design(
            vlsi_dots()["Chip"], chip_spec(60.0, 60.0), "alice",
            script, "ws-1",
            initial_data={"cell": "c", "level": "chip",
                          "behavior": {"operations": ["a"]}})
        system.start(da.da_id)
        system.run(da.da_id)
        client = system.client_tm("ws-1")
        dov = system.repository.graph(da.da_id).leaves()[0]
        dop = client.begin_dop(da.da_id, "warmup")
        client.checkout(dop, dov.dov_id)
        return system, dov

    def test_restart_revalidates_by_default(self):
        system, dov = self._warm_system()
        buffer = system.object_buffer("ws-1")
        assert dov.dov_id in buffer
        system.crash_server()
        system.restart_server()
        # the durable version survived recovery; its warm copy too
        assert dov.dov_id in buffer
        assert buffer.revalidated >= 1


class TestWriteBackDeterminism:
    def test_identically_seeded_runs_are_trace_identical(self):
        from repro.scenario import compile_scenario, validate_scenario

        compiled = compile_scenario(validate_scenario({
            "scenario": {"name": "t9", "kind": "write_back", "seed": 13},
            "team": {"size": 2},
            "writes": {"ratio": 0.6, "write_back": True}}))
        first, second = compiled.run(), compiled.run()
        assert first.signature == second.signature
        assert first.bytes_shipped == second.bytes_shipped
        assert first.makespan == second.makespan

    @pytest.mark.parametrize("write_back", [False, True])
    def test_every_run_ends_with_the_server_restart_episode(self,
                                                            write_back):
        """The episode is part of the kind, in either checkin mode:
        the warm buffers are re-validated after the restart."""
        from repro.scenario import compile_scenario, validate_scenario

        report = compile_scenario(validate_scenario({
            "scenario": {"name": "t9", "kind": "write_back", "seed": 13},
            "team": {"size": 2},
            "writes": {"ratio": 0.6, "write_back": write_back}})).run()
        assert report.revalidated > 0
