"""TTL renewal leases: expiry as recall, renewal, and the race.

PR-5 acceptance surface of the lease half of the txn layer: with a
``lease_ttl`` the server stops recalling explicitly-forgotten copies —
an unrenewed lease simply expires via a kernel timer event and the
workstation's buffered copy is invalidated exactly as a recall would;
a renewal is one metadata-only message extending every lease the
workstation holds; and a renewal racing an in-flight expiry never
resurrects a dead lease.
"""

from __future__ import annotations

import pytest

from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.sim.clock import SimClock
from repro.sim.kernel import Kernel
from repro.te.rig import TeRig
from repro.txn import LeaseTable

TTL = 10.0


def probe(kernel, at, look):
    """File a probe event at *at*; it appends ``look()`` to the
    returned list when it runs."""
    seen: list = []
    kernel.at(at, lambda: seen.append(look()), label="probe")
    return seen


def every(kernel, interval, rounds, action):
    """Run *action* as a probe event *interval* from now, then again
    *interval* after each run, *rounds* times in all."""
    def fire(left):
        action()
        if left > 1:
            kernel.after(interval, lambda: fire(left - 1), label="probe")

    kernel.after(interval, lambda: fire(rounds), label="probe")


def make_rig(ttl: float | None = TTL):
    """One buffered workstation under a TTL-leasing server, on a
    kernel (expiry timers are ordinary kernel events)."""
    te = TeRig(trace=False, lan_latency=0.5, lease_ttl=ttl)
    te.open_scope()
    clock, kernel, network = te.clock, te.kernel, te.network
    repo, server_tm = te.repository, te.server_tm
    repo.register_dot(DesignObjectType("Cell", attributes=[
        AttributeDef("area", AttributeKind.FLOAT, required=False)]))
    repo.create_graph("da-1")
    client = te.add_workstation("ws-1")
    buffer = te.object_buffer("ws-1")
    dov0 = repo.checkin("da-1", "Cell", {"area": 100.0})
    return {"clock": clock, "kernel": kernel, "network": network,
            "repo": repo, "server_tm": server_tm, "client": client,
            "buffer": buffer, "dov0": dov0}


class TestLeaseTableUnit:
    def test_ttl_off_means_no_expiry(self):
        table = LeaseTable(clock=SimClock())
        table.grant("ws-1", "dov-1")
        assert table.lease("ws-1", "dov-1").expires_at is None
        assert table.expire_due() == []
        assert table.holders("dov-1") == {"ws-1"}

    def test_expire_due_sweep_without_kernel(self):
        clock = SimClock()
        table = LeaseTable(clock=clock, ttl=5.0)
        expired = []
        table.on_expire = lambda ws, dov: expired.append((ws, dov))
        table.grant("ws-1", "dov-1")
        clock.advance(4.9)
        assert table.expire_due() == []
        clock.advance(0.2)
        assert table.expire_due() == [("ws-1", "dov-1")]
        assert expired == [("ws-1", "dov-1")]
        assert table.holders("dov-1") == set()
        assert table.expirations == 1

    def test_renewal_extends_and_never_resurrects(self):
        clock = SimClock()
        table = LeaseTable(clock=clock, ttl=5.0)
        table.grant("ws-1", "dov-1")
        clock.advance(4.0)
        assert table.renew_workstation("ws-1") == 1
        clock.advance(4.0)  # t=8 < 4+5: still alive
        assert table.expire_due() == []
        clock.advance(2.0)  # t=10 > 9: expires now
        assert table.expire_due() == [("ws-1", "dov-1")]
        # the lease is dead: renewing it again is a no-op
        assert table.renew_workstation("ws-1") == 0
        assert table.holders("dov-1") == set()


class TestLeaseTableOnKernel:
    def _table(self) -> tuple[Kernel, LeaseTable, list]:
        kernel = Kernel()
        table = LeaseTable(kernel.clock, ttl=TTL,
                           kernel_source=lambda: kernel)
        expired: list[tuple[str, str, float]] = []
        table.on_expire = lambda ws, dov: expired.append(
            (ws, dov, kernel.clock.now))
        return kernel, table, expired

    def test_renewal_racing_expiry_at_the_same_tick(self):
        """Both orderings of a renewal racing the expiry check at the
        very same instant are safe: a renewal sequenced *before* the
        check extends the lease; one sequenced *after* is a no-op —
        it never resurrects."""
        # renewal first (scheduled before the grant's expiry event)
        kernel, table, expired = self._table()
        kernel.at(TTL, lambda: table.renew_workstation("ws-1"),
                  label="renewal")
        table.grant("ws-1", "dov-1")
        mid = probe(kernel, TTL + 2.0, lambda: (
            list(expired), table.lease("ws-1", "dov-1") is not None))
        kernel.run_until_quiescent()
        assert mid == [([], True)]
        assert expired == [("ws-1", "dov-1", 2 * TTL)]

        # expiry check first, renewal second at the same instant
        kernel, table, expired = self._table()
        outcome: list[bool] = []
        table.grant("ws-1", "dov-1")
        kernel.at(TTL,
                  lambda: outcome.append(table.renew_workstation("ws-1")),
                  label="renewal")
        kernel.run_until_quiescent()
        assert expired == [("ws-1", "dov-1", TTL)]
        assert outcome == [0]  # lost the race: no resurrect
        assert table.lease("ws-1", "dov-1") is None

    def test_every_surviving_lease_expires_once_at_last_renewal_plus_ttl(
            self):
        """The contract under churn: staggered per-station grant waves,
        three stations in five releasing their whole set mid-life, one
        in five batch-renewing twice before going silent, one in five
        just lapsing."""
        kernel, table, expired = self._table()
        stations, per_station = 10, 6
        due: dict[tuple[str, str], float] = {}

        def dovs(station: str) -> list[str]:
            return [f"dov-{station}-{i}" for i in range(per_station)]

        def grant_wave(station: str) -> None:
            for dov in dovs(station):
                table.grant(station, dov)
                due[station, dov] = kernel.clock.now + TTL

        def release_wave(station: str) -> None:
            for dov in dovs(station):
                assert table.release(station, dov)
                del due[station, dov]

        def renew_wave(station: str) -> None:
            assert table.renew_workstation(station) == per_station
            for dov in dovs(station):
                due[station, dov] = kernel.clock.now + TTL

        for number in range(stations):
            station = f"ws-{number}"
            at = number * 0.01
            kernel.at(at, lambda s=station: grant_wave(s))
            if number % 5 < 3:
                kernel.at(at + TTL * 0.5,
                          lambda s=station: release_wave(s))
            elif number % 5 == 3:
                for round_no in (1, 2):
                    kernel.at(at + round_no * TTL * 0.6,
                              lambda s=station: renew_wave(s))
        kernel.run_until_quiescent()
        assert len(table) == 0
        assert len(expired) == len(due) == 4 * per_station
        assert {(ws, dov): at for ws, dov, at in expired} \
            == pytest.approx(due)
        assert table.expirations == len(due)


class TestTtlExpiryOnKernel:
    def test_unrenewed_lease_expires_like_a_recall(self):
        rig = make_rig()
        client, buffer = rig["client"], rig["buffer"]
        dop = client.begin_dop("da-1", tool="t")
        client.checkout(dop, rig["dov0"].dov_id)
        # mid-TTL: lease still live
        mid = probe(rig["kernel"], TTL / 2, lambda: (
            rig["dov0"].dov_id in buffer,
            rig["server_tm"].leases.holders(rig["dov0"].dov_id)))
        # idle past the TTL: the expiry event fires, the lease dies,
        # and the buffered copy is invalidated over the LAN
        rig["kernel"].run_until_quiescent()
        assert mid == [(True, {"ws-1"})]
        assert rig["clock"].now >= TTL
        assert rig["server_tm"].leases.holders(rig["dov0"].dov_id) \
            == set()
        assert rig["dov0"].dov_id not in buffer
        assert buffer.invalidations == 1
        assert rig["server_tm"].leases.expirations == 1

    def test_expiry_timer_labels_are_traced(self):
        rig = make_rig()
        client = rig["client"]
        dop = client.begin_dop("da-1", tool="t")
        client.checkout(dop, rig["dov0"].dov_id)
        rig["kernel"].run_until_quiescent()
        labels = [label for *_, label in rig["kernel"].event_log]
        assert any(label.startswith("lease-expiry:") for label in labels)

    def test_renewal_message_keeps_the_copy_resident(self):
        rig = make_rig()
        client, kernel = rig["client"], rig["kernel"]
        dop = client.begin_dop("da-1", tool="t")
        client.checkout(dop, rig["dov0"].dov_id)
        # renew repeatedly while "using" the buffer; the lease must
        # survive well past several TTLs
        uses: list = []
        every(kernel, TTL * 0.6, 4, lambda: uses.append((
            client.checkout(dop, rig["dov0"].dov_id) is not None,
            rig["server_tm"].leases.renewals,
            rig["dov0"].dov_id in rig["buffer"])))
        # once the designer stops, the lease decays by itself
        kernel.run_until_quiescent()
        assert [hit for hit, _, _ in uses] == [True] * 4
        __, renewals, resident = uses[-1]
        assert renewals > 0 and resident
        assert rig["dov0"].dov_id not in rig["buffer"]

    def test_renewal_is_metadata_only(self):
        rig = make_rig()
        client, network = rig["client"], rig["network"]
        dop = client.begin_dop("da-1", tool="t")
        client.checkout(dop, rig["dov0"].dov_id)
        # payload shipped + installed by 1.1; the renewal delivered,
        # and no expiry yet, by 2.0
        renewal = probe(rig["kernel"], 1.1, lambda: (
            network.bytes_shipped, client.renew_leases()))
        delivered = probe(rig["kernel"], 2.0,
                          lambda: network.bytes_shipped)
        rig["kernel"].run_until_quiescent()
        (shipped_before, delay), = renewal
        renewal_bytes = delivered[0] - shipped_before
        assert renewal_bytes == rig["server_tm"].invalidation_bytes
        assert renewal_bytes < rig["dov0"].payload_size
        assert delay > 0.0
        assert rig["server_tm"].leases.renewals == 1

    def test_the_window_opens_once_ttl_half_has_passed(self):
        """A hit renews when ``now - last >= ttl/2``, measured as a
        difference: with ttl/2 = 0.15, not exact in binary, the hit at
        1.0 + 0.15 finds 0.1499... passed and does not renew yet."""
        rig = make_rig(ttl=0.3)
        client, clock = rig["client"], rig["clock"]
        leases = rig["server_tm"].leases
        dop = client.begin_dop("da-1", tool="t")
        clock.advance(1.0)
        client.checkout(dop, rig["dov0"].dov_id)  # anchors the window
        seen = []
        for step in (0.15, 1e-9):
            clock.advance(step)
            client.checkout(dop, rig["dov0"].dov_id)
            seen.append((clock.now, leases.renewals))
        assert 1.15 - 1.0 < 0.3 / 2
        assert seen == [(1.15, 0), (1.15 + 1e-9, 1)]
        assert rig["buffer"].hits == 2

    def test_expiry_racing_a_renewal_in_flight(self):
        """The satellite race: the renewal message is posted before
        the expiry instant but delivered after it.  The expiry wins —
        the lease dies, the copy is invalidated, and the late renewal
        must NOT resurrect anything."""
        rig = make_rig()
        client, kernel = rig["client"], rig["kernel"]
        server_tm = rig["server_tm"]
        dov_id = rig["dov0"].dov_id
        dop = client.begin_dop("da-1", tool="t")
        client.checkout(dop, dov_id)

        def renew_late():
            # the copy is installed by 1.1; its lease expires ~11.1
            expiry_at = server_tm.leases.lease("ws-1", dov_id).expires_at
            # post the renewal so late that its 0.5 LAN latency lands
            # the delivery after the expiry instant
            kernel.at(expiry_at - 0.2, client.renew_leases,
                      label="late-renewal")

        kernel.at(1.1, renew_late, label="probe")
        kernel.run_until_quiescent()
        assert server_tm.leases.holders(dov_id) == set()
        assert dov_id not in rig["buffer"]
        assert server_tm.leases.expirations == 1
        # the late renewal extended nothing
        assert server_tm.leases.renewals == 0

    def test_determinism_two_identical_runs(self):
        def signature():
            rig = make_rig()
            client, kernel = rig["client"], rig["kernel"]
            dop = client.begin_dop("da-1", tool="t")
            client.checkout(dop, rig["dov0"].dov_id)
            every(kernel, TTL * 0.6, 3,
                  lambda: client.checkout(dop, rig["dov0"].dov_id))
            kernel.run_until_quiescent()
            return rig["kernel"].trace_signature()

        assert signature() == signature()
