"""Cross-workstation group commit: several dirty sets, one decision.

PR-5 acceptance surface of :func:`repro.txn.flush_group`: the dirty
sets of several client-TMs ship under ONE coordinator, ONE 2PC
decision and ONE forced repository WAL write; every contributor posts
its own sized batch message (byte accounting per workstation is
preserved), leases land at the contributing workstation, and the
combined batch is all-or-nothing — one bad record aborts everyone.
"""

from __future__ import annotations

import pytest

from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.te.rig import TeRig
from repro.txn import GroupFlushReport, flush_group


def make_rig(team: int = 3, **options):
    te = TeRig(trace=False, bandwidth=1000.0, write_back=True,
               flush_on_end_dop=False, **options)
    te.open_scope()
    clock, network, server_tm = te.clock, te.network, te.server_tm
    repo = te.repository
    repo.register_dot(DesignObjectType("Cell", attributes=[
        AttributeDef("area", AttributeKind.FLOAT, required=False)]))
    clients = []
    for index in range(team):
        repo.create_graph(f"da-{index}")
        clients.append(te.add_workstation(f"ws-{index}"))
    return {"clock": clock, "network": network, "repo": repo,
            "server_tm": server_tm, "clients": clients}


def stage_checkins(rig, per_client: int = 2, area: float = 10.0):
    dops = []
    for index, client in enumerate(rig["clients"]):
        dop = client.begin_dop(f"da-{index}", tool="t")
        for step in range(per_client):
            client.checkin(dop, "Cell",
                           data={"area": area + index + step},
                           parents=[])
        dops.append(dop)
    return dops


class TestCrossWorkstationGroupCommit:
    @pytest.mark.parametrize("team", [1, 2])
    def test_one_flush_driver_any_team(self, team):
        """``ClientTM.flush`` is ``flush_group`` of one: the same
        report type, one decision, one forced write, and the
        coordinator's due lease renewal rides the one control RPC."""
        rig = make_rig(team=team, lease_ttl=100.0)
        clients = rig["clients"]

        def flush():
            stage_checkins(rig, per_client=2)
            return clients[0].flush() if team == 1 \
                else flush_group(clients)

        first = flush()  # opens the coordinator's renewal window
        rig["clock"].advance(50.0)
        forced_before = rig["repo"].wal.forced_writes
        report = flush()
        assert type(first) is type(report) is GroupFlushReport
        assert report.success and report.count == 2 * team
        assert report.workstations == [f"ws-{index}"
                                       for index in range(team)]
        assert all(durable in rig["repo"]
                   for durable in report.mapping.values())
        assert rig["repo"].wal.forced_writes == forced_before + 1
        assert rig["server_tm"].group_checkins == 2
        assert [client.renewals_piggybacked for client in clients] \
            == [1] + [0] * (team - 1)

    def test_one_decision_one_wal_force_for_all_contributors(self):
        rig = make_rig(team=3)
        dops = stage_checkins(rig, per_client=2)
        forced_before = rig["repo"].wal.forced_writes
        report = flush_group(rig["clients"])
        assert report.success
        assert report.count == 6
        assert report.workstations == ["ws-0", "ws-1", "ws-2"]
        # the whole cross-workstation batch rode ONE forced WAL write
        assert rig["repo"].wal.forced_writes == forced_before + 1
        assert rig["server_tm"].group_checkins == 1
        # every provisional id resolved and became durable
        for dop, client in zip(dops, rig["clients"]):
            durable = client.resolve(dop.output_dov)
            assert durable in rig["repo"]
        for client in rig["clients"]:
            assert client.buffer.dirty_count == 0
            assert client.flushes == 1

    def test_bytes_and_batches_attributed_per_workstation(self):
        rig = make_rig(team=2)
        stage_checkins(rig, per_client=2)
        network = rig["network"]
        before = network.traffic_stats()
        report = flush_group(rig["clients"])
        assert report.success
        after = network.traffic_stats()
        sent = {ws: after["bytes_sent_by"][ws]
                - before["bytes_sent_by"].get(ws, 0)
                for ws in ("ws-0", "ws-1")}
        # one sized batch message per contributor
        assert after["batches_sent"] - before["batches_sent"] == 2
        assert after["batched_payloads"] - before["batched_payloads"] == 4
        assert sent["ws-0"] > 0 and sent["ws-1"] > 0
        assert report.bytes_shipped == sent["ws-0"] + sent["ws-1"]

    def test_leases_go_to_the_contributor_not_the_coordinator(self):
        rig = make_rig(team=2)
        dops = stage_checkins(rig, per_client=1)
        report = flush_group(rig["clients"])
        assert report.success
        server_tm = rig["server_tm"]
        for index, (dop, client) in enumerate(zip(dops,
                                                  rig["clients"])):
            durable = client.resolve(dop.output_dov)
            assert server_tm.leases.holders(durable) == {f"ws-{index}"}
            # the durable version stayed resident at its contributor
            assert durable in client.buffer

    def test_cross_batch_is_all_or_nothing(self):
        """One client's integrity-violating record aborts everyone."""
        rig = make_rig(team=2)
        good, bad = rig["clients"]
        dop_good = good.begin_dop("da-0", tool="t")
        good.checkin(dop_good, "Cell", data={"area": 1.0}, parents=[])
        dop_bad = bad.begin_dop("da-1", tool="t")
        bad.checkin(dop_bad, "Cell", data={"area": "not-a-float"},
                    parents=[])
        forced_before = rig["repo"].wal.forced_writes
        report = flush_group(rig["clients"])
        assert not report.success
        assert "area" in report.reason
        # nothing became durable anywhere, nothing was forced
        assert len(rig["repo"].store) == 0
        assert rig["repo"].wal.forced_writes == forced_before
        # both dirty sets survive intact for a later retry
        assert good.buffer.dirty_count == 1
        assert bad.buffer.dirty_count == 1
        assert good.flushes == 0 and bad.flushes == 0

    def test_clients_without_dirty_data_do_not_contribute(self):
        rig = make_rig(team=3)
        busy = rig["clients"][0]
        dop = busy.begin_dop("da-0", tool="t")
        busy.checkin(dop, "Cell", data={"area": 2.0}, parents=[])
        report = flush_group(rig["clients"])
        assert report.success
        assert report.workstations == ["ws-0"]
        assert report.count == 1

    def test_empty_flush_group_is_a_trivial_success(self):
        rig = make_rig(team=2)
        report = flush_group(rig["clients"])
        assert report.success and report.count == 0
        assert rig["server_tm"].group_checkins == 0

    def test_unflushed_lineage_resolves_across_the_cross_batch(self):
        """A second cross flush whose parents are first-flush durable
        ids commits cleanly — the mapping threads through."""
        rig = make_rig(team=2)
        client = rig["clients"][0]
        dop = client.begin_dop("da-0", tool="t")
        first = client.checkin(dop, "Cell", data={"area": 1.0},
                               parents=[])
        assert flush_group(rig["clients"]).success
        durable_first = client.resolve(first.dov.dov_id)
        second = client.checkin(dop, "Cell", data={"area": 2.0},
                                parents=[durable_first])
        assert flush_group(rig["clients"]).success
        durable_second = client.resolve(second.dov.dov_id)
        dov = rig["repo"].read(durable_second)
        assert dov.parents == (durable_first,)
