"""Read leases with TTL renewal — the coherence half of data shipping.

PR 2 introduced explicit lease *recalls*: the server remembers every
``(workstation, dov_id)`` it shipped a version to and revokes the
lease with an invalidation message when a checkin supersedes it.  That
table is pure server state, and each recall is server work proportional
to the sharing degree.

TTL **renewal leases** shift the contract: a lease is granted for a
*time to live*; the workstation keeps it alive with metadata-only
renewal messages while it keeps using the copy, and an unrenewed lease
simply **expires** — the expiry behaves exactly like a recall (the
buffered copy is dropped), driven by an ordinary kernel timer event
rather than by an explicit server decision.  Cold entries therefore
decay out of the coherence protocol by themselves, bounding the lease
table by the *active* working set instead of everything ever shipped.

:class:`LeaseTable` implements both regimes behind one surface:
``ttl=None`` (the default) reproduces the recall-only behaviour —
leases never expire, nothing is scheduled — while a numeric ``ttl``
arms **bucketed** expiry checks on the attached kernel: every lease
expiring at the same instant shares ONE kernel event (label
``lease-expiry:...``), so a server holding 10^6 leases granted across
k distinct instants keeps k pending events, not 10^6.  Renewals and
releases are *lazy*: they only move the lease's bookkeeping — the old
bucket discovers the move when it fires and re-files (or skips) the
lease, so no kernel event is ever cancelled or rescheduled.  Renewals
never resurrect: extending a lease that already expired (or was
recalled) is a no-op, which is what makes a renewal racing an
in-flight expiry safe.

The table is indexed twice, per DOV and per workstation, so a batch
renewal and a workstation crash touch only that workstation's leases,
however many other workstations hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.sim.clock import SimClock

#: slack when comparing expiry instants against the clock
_EPS = 1e-12


@dataclass(slots=True)
class Lease:
    """One granted read lease."""

    workstation: str
    dov_id: str
    granted_at: float
    #: simulated expiry instant; None = no TTL (explicit recall only)
    expires_at: float | None
    #: expiry-bucket instant this lease is currently filed under
    #: (internal; None = not filed)
    bucket: float | None = None


class LeaseTable:
    """The server's lease table: grants, renewals, recalls, expiry.

    All mutators are synchronous bookkeeping; the only kernel activity
    is one expiry-check event per *distinct expiry instant* (label
    ``lease-expiry:<dov>@<ws>`` after the lease that armed it).  When
    the event fires, every lease still filed under that instant is
    settled: expired ones are released (firing :attr:`on_expire`,
    where the server-TM hangs the recall-equivalent invalidation),
    renewed ones are re-filed under their extended instant, and
    released ones are simply skipped — lazy cancellation, no bucket
    surgery.

    Every lease is filed twice, under its DOV and under its
    workstation: a renewal (:meth:`renew_workstation`) and a crash
    (:meth:`drop_workstation`) walk that workstation's leases only.
    """

    def __init__(self, clock: SimClock | None = None,
                 ttl: float | None = None,
                 kernel_source: Callable[[], Any] | None = None) -> None:
        self.clock = clock or SimClock()
        #: lease time-to-live (None = leases never expire)
        self.ttl = ttl
        #: zero-arg callable yielding the kernel to arm expiry checks
        #: on (resolved lazily — networks attach their kernel late)
        self._kernel_source = kernel_source
        #: dov_id -> workstation -> lease
        self._holders: dict[str, dict[str, Lease]] = {}
        #: workstation -> dov_id -> lease: the same leases, per holder
        self._held: dict[str, dict[str, Lease]] = {}
        #: fired with (workstation, dov_id) when a lease expires —
        #: expiry behaves like a recall
        self.on_expire: Callable[[str, str], None] | None = None
        self.grants = 0
        self.renewals = 0
        self.expirations = 0
        #: expiry instant -> leases filed under it (lazily maintained)
        self._buckets: dict[float, list[Lease]] = {}
        #: generation stamp: a server crash (clear) bumps it, so
        #: already-scheduled bucket events of the dead table are inert
        self._epoch = 0

    # -- grants -------------------------------------------------------------

    def grant(self, workstation: str, dov_id: str) -> Lease:
        """Grant (or refresh) the lease of *workstation* on *dov_id*.

        Re-granting an existing lease extends it like a renewal would.
        """
        now = self.clock.now
        ttl = self.ttl
        expires = now + ttl if ttl is not None else None
        holders = self._holders.get(dov_id)
        if holders is None:
            holders = self._holders[dov_id] = {}
        lease = holders.get(workstation)
        if lease is not None:
            lease.expires_at = expires
        else:
            lease = Lease(workstation, dov_id, now, expires)
            holders[workstation] = lease
            held = self._held.get(workstation)
            if held is None:
                self._held[workstation] = {dov_id: lease}
            else:
                held[dov_id] = lease
            self.grants += 1
        if expires is not None and lease.bucket != expires:
            self._file(lease, now)
        return lease

    def _file(self, lease: Lease, now: float) -> None:
        """File *lease* under its expiry instant's bucket.

        One kernel event is scheduled per *new* bucket; same-instant
        leases share it.  The caller skips a lease without a TTL and
        one already filed under its instant (a refresh without a TTL
        change).
        """
        instant = lease.expires_at
        lease.bucket = instant
        bucket = self._buckets.get(instant)
        if bucket is not None:
            bucket.append(lease)
            return
        source = self._kernel_source
        kernel = source() if source is not None else None
        if kernel is None:
            lease.bucket = None
            return  # no kernel: expiry via expire_due() sweeps
        self._buckets[instant] = [lease]
        kernel.defer(max(instant - now, 0.0),
                     partial(self._on_bucket, instant, self._epoch),
                     label=f"lease-expiry:{lease.dov_id}"
                           f"@{lease.workstation}")

    def _on_bucket(self, instant: float, epoch: int) -> None:
        """Settle every lease filed under *instant* (the bucket event).

        Expired leases are released; renewed ones re-filed under their
        extended instant (straight into its bucket when one is armed);
        moved/released ones skipped.
        """
        if epoch != self._epoch:
            return  # the table this bucket belonged to was cleared
        now = self.clock.now
        buckets = self._buckets
        held = self._held
        for lease in buckets.pop(instant, ()):
            if lease.bucket != instant:
                continue  # moved to a later bucket meanwhile
            leases = held.get(lease.workstation)
            expires = lease.expires_at
            if leases is None or leases.get(lease.dov_id) is not lease \
                    or expires is None:
                continue  # released/recalled, or TTL switched off
            if expires > now + _EPS:
                # renewed: check again later
                bucket = buckets.get(expires)
                if bucket is None:
                    self._file(lease, now)
                else:
                    lease.bucket = expires
                    bucket.append(lease)
            else:
                lease.bucket = None
                self._expire(lease)

    def _expire(self, lease: Lease) -> None:
        self.release(lease.workstation, lease.dov_id)
        self.expirations += 1
        if self.on_expire is not None:
            self.on_expire(lease.workstation, lease.dov_id)

    def expire_due(self) -> list[tuple[str, str]]:
        """Kernel-less sweep: expire every overdue lease *now*.

        Returns the expired ``(workstation, dov_id)`` pairs in grant
        order.  Deployments without a kernel (sequential rigs, unit
        tests) call this instead of relying on timer events.
        """
        now = self.clock.now
        due = [lease for holders in self._holders.values()
               for lease in holders.values()
               if lease.expires_at is not None
               and lease.expires_at <= now + _EPS]
        for lease in due:
            self._expire(lease)
        return [(lease.workstation, lease.dov_id) for lease in due]

    # -- renewal ------------------------------------------------------------

    def renew_workstation(self, workstation: str) -> int:
        """Renew every lease of *workstation* by a fresh TTL (the
        metadata-only batch renewal message); returns the number of
        leases extended.

        A lease that no longer exists stays dead — a renewal never
        resurrects an expired or recalled lease.  Lazy re-bucketing:
        only the expiry instant moves — the armed bucket event
        discovers the extension when it fires.
        """
        leases = self._held.get(workstation)
        if leases is None:
            return 0
        ttl = self.ttl
        if ttl is not None:
            expires = self.clock.now + ttl
            for lease in leases.values():
                lease.expires_at = expires
        renewed = len(leases)
        self.renewals += renewed
        return renewed

    # -- queries ------------------------------------------------------------

    def holders(self, dov_id: str) -> set[str]:
        """Workstations currently leasing *dov_id*."""
        return set(self._holders.get(dov_id, ()))

    def lease(self, workstation: str, dov_id: str) -> Lease | None:
        """The live lease of *(workstation, dov_id)*, if any."""
        return self._holders.get(dov_id, {}).get(workstation)

    def __len__(self) -> int:
        return sum(len(holders) for holders in self._holders.values())

    # -- recall / release ---------------------------------------------------

    def release(self, workstation: str, dov_id: str) -> bool:
        """Drop one lease (recall, expiry); True when held.

        Lazy: the lease's bucket entry stays behind and is skipped
        when the bucket event fires — O(1), no event cancellation.
        """
        holders = self._holders.get(dov_id)
        if not holders or workstation not in holders:
            return False
        del holders[workstation]
        if not holders:
            del self._holders[dov_id]
        leases = self._held[workstation]
        del leases[dov_id]
        if not leases:
            del self._held[workstation]
        return True

    def release_all(self, dov_id: str) -> list[str]:
        """Drop every lease on *dov_id* (supersession recall); returns
        the previous holders in grant order."""
        holders = list(self._holders.get(dov_id, ()))
        for workstation in holders:
            self.release(workstation, dov_id)
        return holders

    def drop_workstation(self, workstation: str) -> int:
        """Forget every lease of one workstation (its crash)."""
        dropped = 0
        for dov_id in list(self._held.get(workstation, ())):
            dropped += self.release(workstation, dov_id)
        return dropped

    def clear(self) -> None:
        """Server crash: the (volatile) lease table vanishes.

        The epoch bump makes every already-scheduled bucket event of
        the dead table inert — it fires, sees a stale epoch, returns.
        """
        self._holders.clear()
        self._held.clear()
        self._buckets.clear()
        self._epoch += 1
