"""TTL renewal leases: expiry at both ends, renewal, and the race.

The acceptance surface of the lease half of the txn layer: with a
``lease_ttl`` a lease ends with its term, a fact the server and the
holder's buffer both compute — no timer fires and no message is sent
when it ends, the holder's first read past the term misses, and a
superseding commit owes an expired holder nothing; a renewal is one
metadata-only message extending every live lease the workstation
holds; a renewal racing the end of a term never resurrects a dead
lease; and on the campaign kind every buffer hit is covered by a live
lease or an invalidation on its way.
"""

from __future__ import annotations

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.scenario import compile_scenario, validate_scenario
from repro.sim.clock import SimClock
from repro.sim.kernel import Kernel
from repro.te.object_buffer import ObjectBuffer
from repro.te.rig import TeRig
from repro.te.transaction_manager import ClientTM, ServerTM
from repro.txn import LeaseTable
from repro.txn.leases import EXPIRY_SLACK

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
    kernel (shipments, invalidations and renewals are kernel events;
    the end of a lease is none)."""
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
        table.grant("ws-1", "dov-1")
        clock.advance(4.9)
        assert table.expire_due() == []
        clock.advance(0.2)
        # past its term the lease is no longer live, but stays filed
        # until the table touches it
        assert table.holders("dov-1") == set()
        assert table.lease("ws-1", "dov-1") is None
        assert len(table) == 1
        assert table.expire_due() == [("ws-1", "dov-1")]
        assert len(table) == 0
        assert table.expirations == 1
        assert table.expire_due() == []

    def test_renewal_extends_and_never_resurrects(self):
        clock = SimClock()
        table = LeaseTable(clock=clock, ttl=5.0)
        table.grant("ws-1", "dov-1")
        clock.advance(4.0)
        assert table.renew_workstation("ws-1") == 1
        clock.advance(4.0)  # t=8 < 4+5: still alive
        assert table.expire_due() == []
        clock.advance(2.0)  # t=10 > 9: the term has ended
        # the renewal finds the lease dead: it drops it instead of
        # extending it, and a later renewal finds nothing
        assert table.renew_workstation("ws-1") == 0
        assert table.expirations == 1
        assert len(table) == 0
        assert table.renew_workstation("ws-1") == 0
        assert table.holders("dov-1") == set()

    def test_renewal_racing_expiry_at_the_same_tick(self):
        """A renewal applied at the very instant the term ends finds
        the lease dead and drops it — it never resurrects; one applied
        just before extends it.  No event decides the race: the term
        does, at both ends."""
        clock = SimClock()
        table = LeaseTable(clock=clock, ttl=TTL)
        table.grant("ws-1", "dov-1")
        clock.advance(TTL)
        assert table.renew_workstation("ws-1") == 0
        assert table.lease("ws-1", "dov-1") is None
        assert table.expirations == 1

        clock = SimClock()
        table = LeaseTable(clock=clock, ttl=TTL)
        table.grant("ws-1", "dov-1")
        clock.advance(TTL - 0.001)
        assert table.renew_workstation("ws-1") == 1
        assert table.lease("ws-1", "dov-1").expires_at \
            == clock.now + TTL
        assert table.expirations == 0

    def test_a_dead_lease_granted_again_expires_once_and_starts_afresh(
            self):
        clock = SimClock()
        table = LeaseTable(clock=clock, ttl=TTL)
        first = table.grant("ws-1", "dov-1")
        clock.advance(TTL + 1.0)
        second = table.grant("ws-1", "dov-1")
        assert second is not first
        assert (second.granted_at, second.expires_at) \
            == (clock.now, clock.now + TTL)
        assert (table.grants, table.expirations, len(table)) == (2, 1, 1)

    def test_every_surviving_lease_expires_once_at_last_renewal_plus_ttl(
            self):
        """The contract under churn: staggered per-station grant waves,
        three stations in five releasing their whole set mid-life, one
        in five batch-renewing twice before going silent, one in five
        just lapsing.  Each survivor's term is its last renewal (or
        grant) plus the TTL, nothing drops it before the table is
        touched, and one sweep past every term drops each exactly
        once."""
        kernel = Kernel()
        table = LeaseTable(kernel.clock, ttl=TTL)
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
        assert len(due) == 4 * per_station
        assert {(ws, dov): lease.expires_at
                for dov, holders in table._holders.items()
                for ws, lease in holders.items()} == pytest.approx(due)
        assert table.expirations == 0
        kernel.clock.advance(max(due.values()) + 1.0 - kernel.clock.now)
        assert sorted(table.expire_due()) == sorted(due)
        assert table.expire_due() == []
        assert len(table) == 0
        assert table.expirations == len(due)


WORKSTATIONS = ("ws-0", "ws-1", "ws-2")
DOVS = ("dov-0", "dov-1", "dov-2", "dov-3")

#: one table operation, run as a kernel event after a pause (the clock
#: is all the kernel moves: expiry schedules nothing): ``(pause, name,
#: workstation, dov)``, grants and renewals drawn most often
_OPERATION = st.tuples(
    st.sampled_from((0.0, 0.0, 0.5, TTL / 2, TTL, 1.5 * TTL)),
    st.sampled_from(("grant",) * 4 + ("renew_workstation",) * 2
                    + ("release", "release_all", "drop_workstation",
                       "clear")),
    st.sampled_from(WORKSTATIONS), st.sampled_from(DOVS))


class TestTheTwoIndexesAgree:
    """The lease table files every lease under its DOV and under its
    workstation; after any sequence of grants, renewals, releases,
    recalls, crashes and server crashes both views hold the same
    leases, a renewal extends what a scan of every DOV finds live and
    drops what it finds dead, a recall names only the live holders,
    and every lease whose term ended leaves through ``expire_due``."""

    @staticmethod
    def _views(table: LeaseTable) -> tuple[dict, dict]:
        assert all(table._holders.values()) and all(table._held.values())
        per_dov = {(ws, dov): id(lease)
                   for dov, holders in table._holders.items()
                   for ws, lease in holders.items()}
        per_workstation = {(ws, dov): id(lease)
                           for ws, leases in table._held.items()
                           for dov, lease in leases.items()}
        return per_dov, per_workstation

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(_OPERATION, max_size=40))
    def test_both_views_hold_the_same_leases(self, operations):
        kernel = Kernel()
        table = LeaseTable(kernel.clock, ttl=TTL)
        renewals = expirations = 0

        def live(lease) -> bool:
            return lease.expires_at > kernel.clock.now + EXPIRY_SLACK

        def check() -> None:
            per_dov, per_workstation = self._views(table)
            assert per_dov == per_workstation
            assert len(table) == len(per_dov)
            for dov, holders in table._holders.items():
                assert table.holders(dov) == {
                    ws for ws, lease in holders.items() if live(lease)}

        def run(name: str, workstation: str, dov: str) -> None:
            nonlocal renewals, expirations
            filed = [lease for holders in table._holders.values()
                     for ws, lease in holders.items() if ws == workstation]
            dead = sum(not live(lease) for lease in filed)
            on_dov = table._holders.get(dov, {})
            if name == "grant":
                lease = on_dov.get(workstation)
                expirations += lease is not None and not live(lease)
                table.grant(workstation, dov)
            elif name == "renew_workstation":
                assert table.renew_workstation(workstation) \
                    == len(filed) - dead
                renewals += len(filed) - dead
                expirations += dead
                assert all(live(lease) for lease
                           in table._held.get(workstation, {}).values())
            elif name == "release":
                table.release(workstation, dov)
            elif name == "release_all":
                holders = dict(on_dov)
                assert sorted(table.release_all(dov)) == sorted(
                    ws for ws, lease in holders.items() if live(lease))
                expirations += sum(not live(lease)
                                   for lease in holders.values())
                assert dov not in table._holders
            elif name == "drop_workstation":
                assert table.drop_workstation(workstation) == len(filed)
            else:
                table.clear()
            assert table.renewals == renewals
            assert table.expirations == expirations
            check()

        at = 0.0
        for pause, *operation in operations:
            at += pause
            kernel.at(at, lambda op=operation: run(*op), label="probe")
        kernel.run_until_quiescent()
        check()
        # nothing was scheduled but the probes, and one sweep past
        # every term empties the table
        assert kernel.executed == len(operations)
        kernel.clock.advance(2 * TTL)
        left = len(table)
        assert len(table.expire_due()) == left
        assert len(table) == 0


class TestTtlExpiryOnKernel:
    def test_unrenewed_lease_expires_like_a_recall(self):
        """Idle past the TTL, the lease is gone at both ends — the
        server no longer counts the workstation a holder and the
        holder no longer trusts its copy, as after a recall — and no
        message said so: the term is all either end needs."""
        rig = make_rig()
        client, buffer = rig["client"], rig["buffer"]
        server_tm, dov_id = rig["server_tm"], rig["dov0"].dov_id
        dop = client.begin_dop("da-1", tool="t")
        client.checkout(dop, dov_id)
        # mid-TTL: lease still live
        mid = probe(rig["kernel"], TTL / 2, lambda: (
            dov_id in buffer, server_tm.leases.holders(dov_id)))
        late = probe(rig["kernel"], 2 * TTL, lambda: (
            rig["network"].messages_sent,
            server_tm.leases.holders(dov_id),
            buffer.get(dov_id, "da-1", rig["clock"].now)))
        rig["kernel"].run_until_quiescent()
        # the shipment was the last message; nothing was sent at expiry
        assert mid == [(True, {"ws-1"})]
        assert late == [(rig["network"].messages_sent, set(), None)]
        assert dov_id not in buffer
        assert buffer.invalidations == 0
        assert server_tm.invalidations_sent == 0

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
        # once the designer stops, the lease decays by itself: the
        # holder's term is the server's, and past it the copy misses
        kernel.run_until_quiescent()
        assert [hit for hit, _, _ in uses] == [True] * 4
        __, renewals, resident = uses[-1]
        assert renewals > 0 and resident
        entry = rig["buffer"]._entries[rig["dov0"].dov_id]
        lease = rig["server_tm"].leases.lease("ws-1", rig["dov0"].dov_id)
        assert entry.expires_at == lease.expires_at
        assert rig["buffer"].get(rig["dov0"].dov_id, "da-1",
                                 entry.expires_at) is None

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


class TestExpiryCostsNothing:
    """With a TTL, expiry is a fact both ends compute: the holder's
    entry carries the server's term, nothing is scheduled to end it,
    and nothing is sent when it ends."""

    def test_an_idle_holders_entry_misses_at_its_first_read_past_the_term(
            self):
        seen = {}
        for label, at in (("inside", TTL - 0.01), ("at the end", TTL)):
            rig = make_rig()
            client, buffer = rig["client"], rig["buffer"]
            dov_id = rig["dov0"].dov_id
            dop = client.begin_dop("da-1", tool="t")
            client.checkout(dop, dov_id)  # leased at 0: the term is TTL

            def read(client=client, buffer=buffer, dop=dop, dov_id=dov_id):
                term = buffer._entries[dov_id].expires_at
                client.checkout(dop, dov_id)
                return term, buffer.hits, buffer.misses, dov_id in buffer

            seen[label] = probe(rig["kernel"], at, read)
            rig["kernel"].run_until_quiescent()
        # inside the term the read hits; the renewal that hit sends
        # reaches the server after the term, so the holder drops the
        # copy at once, as the server will drop the lease.  At the
        # term's end the first read misses and fetches again
        assert seen == {"inside": [(TTL, 1, 1, False)],
                        "at the end": [(TTL, 0, 2, False)]}

    def test_a_superseding_commit_posts_nothing_to_an_expired_holder(self):
        sent = {}
        for label, at in (("live", TTL / 4), ("expired", 2 * TTL)):
            rig = make_rig()
            client, server_tm = rig["client"], rig["server_tm"]
            network, dov_id = rig["network"], rig["dov0"].dov_id
            dop = client.begin_dop("da-1", tool="t")
            client.checkout(dop, dov_id)

            def supersede(dop=dop, client=client, network=network,
                          server_tm=server_tm):
                before = network.messages_sent
                result = client.checkin(dop, "Cell", {"area": 50.0},
                                        parents=[dov_id])
                assert result.success
                return (network.messages_sent - before,
                        server_tm.invalidations_sent)

            sent[label] = probe(rig["kernel"], at, supersede)
            rig["kernel"].run_until_quiescent()
            assert server_tm.leases.holders(dov_id) == set()
        # the exchange is three messages; only a live holder is owed
        # the fourth, its invalidation
        assert sent == {"live": [(4, 1)], "expired": [(3, 0)]}

    def test_renewing_or_granting_files_no_kernel_event(self):
        rig = make_rig()
        kernel, server_tm = rig["kernel"], rig["server_tm"]
        dov_id = rig["dov0"].dov_id

        def lease_work() -> tuple[int, int]:
            pending = kernel.pending
            server_tm.leases.grant("ws-1", dov_id)
            server_tm.leases.grant("ws-2", dov_id)
            server_tm.renew_leases("ws-1")
            server_tm.leases.grant("ws-1", dov_id)
            return pending, kernel.pending

        seen = probe(kernel, 1.0, lease_work)
        kernel.run_until_quiescent()
        (before, after), = seen
        assert after == before
        assert [label for *_, label in kernel.events()] == ["probe"]


#: the campaign's library: its live frontier is one version per object
POOL = 5


def _campaign(team: int, ttl: float, reads: int, write_ratio: float,
              seed: int):
    return compile_scenario(validate_scenario({
        "scenario": {"name": "lease-coherence", "kind": "campaign",
                     "seed": seed},
        "team": {"size": team, "steps_per_session": 3,
                 "mean_step": 20.0},
        "objects": {"pool": POOL, "payload_bytes": 4000, "hotspots": 2,
                    "hotspot_bias": 0.5},
        "locality": {"reads_per_step": reads, "reread": 0.6},
        "writes": {"ratio": write_ratio},
        "leases": {"ttl": ttl},
        "campaign": {"days": 2, "sessions_per_day": 3, "churn": 0.25},
    }))


class TestLeaseCoherenceOverCampaigns:
    """Lease coherence on the campaign kind, whose reads always name the
    frontier.  Every buffer hit is covered by a live server lease or by
    an invalidation on its way; the holder's term is never later than
    the server's (or than the one a renewal on its way will set); and
    since a commit releases every lease of the version it supersedes,
    no superseded version is ever leased, so the table never holds more
    than workstations × the live frontier — dead leases included."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(team=st.integers(1, 4),
           ttl=st.sampled_from((3.0, 15.0, 40.0, 120.0)),
           reads=st.integers(1, 4),
           write_ratio=st.sampled_from((0.0, 0.1, 0.3, 0.6)),
           seed=st.integers(0, 10_000))
    def test_every_hit_is_covered_and_no_term_outlives_the_servers(
            self, team, ttl, reads, write_ratio, seed):
        #: the run's server-TM, caught at construction
        servers: list = []
        #: (workstation, dov_id) -> invalidations posted, not delivered
        in_flight: dict[tuple[str, str], int] = {}
        #: workstation -> the term a renewal on its way will set
        renewing: dict[str, float] = {}
        superseded: set[str] = set()
        hits: list[int] = []

        get, invalidate = ObjectBuffer.get, ObjectBuffer.invalidate
        post, commit = ServerTM._post_invalidation, \
            ServerTM._on_repository_commit
        send_renewal, apply_renewal = ClientTM.renew_leases, \
            ServerTM.renew_leases
        grant = LeaseTable.grant

        def watched_get(buffer, dov_id, da_id, now):
            dov = get(buffer, dov_id, da_id, now)
            if dov is not None:
                hits.append(1)
                ws = buffer.workstation
                lease = servers[0].leases.lease(ws, dov_id)
                if in_flight.get((ws, dov_id)):
                    return dov
                assert lease is not None, (ws, dov_id, now)
                term = buffer._entries[dov_id].expires_at
                assert term <= lease.expires_at \
                    or term == renewing.get(ws), (ws, dov_id, now)
            return dov

        def watched_invalidate(buffer, dov_id):
            in_flight[buffer.workstation, dov_id] -= 1
            return invalidate(buffer, dov_id)

        def watched_post(server_tm, workstation, dov_id, superseded_by):
            key = (workstation, dov_id)
            in_flight[key] = in_flight.get(key, 0) + 1
            return post(server_tm, workstation, dov_id, superseded_by)

        def watched_commit(server_tm, dov):
            superseded.update(dov.parents)
            return commit(server_tm, dov)

        def watched_send(client):
            delay = send_renewal(client)
            entries = client.buffer._entries.values()
            renewing[client.workstation] = max(
                (entry.expires_at for entry in entries), default=0.0)
            return delay

        def watched_apply(server_tm, workstation):
            renewing.pop(workstation, None)
            return apply_renewal(server_tm, workstation)

        def watched_grant(table, workstation, dov_id):
            lease = grant(table, workstation, dov_id)
            assert not superseded & set(table._holders)
            assert len(table) <= team * POOL
            return lease

        def watched_init(server_tm, *args, **kwargs):
            init(server_tm, *args, **kwargs)
            servers[:1] = [server_tm]

        init = ServerTM.__init__
        with patch.object(ObjectBuffer, "get", watched_get), \
                patch.object(ObjectBuffer, "invalidate",
                             watched_invalidate), \
                patch.object(ServerTM, "_post_invalidation", watched_post), \
                patch.object(ServerTM, "_on_repository_commit",
                             watched_commit), \
                patch.object(ServerTM, "renew_leases", watched_apply), \
                patch.object(ServerTM, "__init__", watched_init), \
                patch.object(ClientTM, "renew_leases", watched_send), \
                patch.object(LeaseTable, "grant", watched_grant):
            report = _campaign(team, ttl, reads, write_ratio, seed).run()
        assert len(hits) == report.hits
        assert not any(in_flight.values())
        assert not [label for label in report.signature[2]
                    if label.startswith("lease-expiry:")]
