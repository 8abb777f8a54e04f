"""Read leases with TTL renewal — the coherence half of data shipping.

PR 2 introduced explicit lease *recalls*: the server remembers every
``(workstation, dov_id)`` it shipped a version to and revokes the
lease with an invalidation message when a checkin supersedes it.  That
table is pure server state, and each recall is server work proportional
to the sharing degree.

TTL **renewal leases** shift the contract (Gray and Cheriton's
*Leases*): a lease is granted for a *time to live*; the workstation
keeps it alive with metadata-only renewal messages while it keeps
using the copy, and when the term ends the holder stops trusting its
copy by itself.  The term is a fact both ends compute, so expiry costs
no timer and no message: the server only honours it.  A lease is live
while ``expires_at > now + EXPIRY_SLACK``, and the table drops an
expired lease when it next touches it — :meth:`release_all` at a
superseding commit returns only the live holders, so a commit sends
nothing to an expired holder; :meth:`renew_workstation` extends the
live leases and drops the dead ones (a renewal never resurrects); a
re-grant of a dead lease drops it and grants afresh.  Every drop goes
through :meth:`expire_due`.

:class:`LeaseTable` implements both regimes behind one surface:
``ttl=None`` (the default) reproduces the recall-only behaviour —
leases never expire — while a numeric ``ttl`` gives every grant and
renewal the term ``now + ttl``.  Neither schedules a kernel event.

The bound: a commit that supersedes a version releases every lease on
it, dead ones included, so the table holds leases only on versions no
commit has superseded since their grant.  A workload whose reads name
the frontier (every session kind) keeps it within workstations × the
live frontier, however long a lease outlives its term.

The table is indexed twice, per DOV and per workstation, so a batch
renewal and a workstation crash touch only that workstation's leases,
however many other workstations hold.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.sim.clock import SimClock

#: slack when comparing expiry instants against the clock: a term
#: ending within it of *now* has ended (the holder's buffer uses the
#: same slack, so both ends agree on the instant a term ends)
EXPIRY_SLACK = 1e-12


@dataclass(slots=True)
class Lease:
    """One granted read lease."""

    workstation: str
    dov_id: str
    granted_at: float
    #: simulated expiry instant; None = no TTL (explicit recall only)
    expires_at: float | None


class LeaseTable:
    """The server's lease table: grants, renewals, recalls, expiry.

    All mutators are synchronous bookkeeping and schedule nothing:
    an expired lease stays filed until the table next touches it, then
    :meth:`expire_due` drops it.

    Every lease is filed twice, under its DOV and under its
    workstation: a renewal (:meth:`renew_workstation`) and a crash
    (:meth:`drop_workstation`) walk that workstation's leases only.
    """

    def __init__(self, clock: SimClock | None = None,
                 ttl: float | None = None) -> None:
        self.clock = clock or SimClock()
        #: lease time-to-live (None = leases never expire)
        self.ttl = ttl
        #: dov_id -> workstation -> lease
        self._holders: dict[str, dict[str, Lease]] = {}
        #: workstation -> dov_id -> lease: the same leases, per holder
        self._held: dict[str, dict[str, Lease]] = {}
        self.grants = 0
        self.renewals = 0
        self.expirations = 0

    # -- grants -------------------------------------------------------------

    def grant(self, workstation: str, dov_id: str) -> Lease:
        """Grant (or refresh) the lease of *workstation* on *dov_id*.

        Re-granting a live lease extends it like a renewal would; a
        dead one is dropped (:meth:`expire_due`) and granted afresh.
        """
        now = self.clock.now
        ttl = self.ttl
        expires = now + ttl if ttl is not None else None
        holders = self._holders.get(dov_id)
        if holders is not None:
            lease = holders.get(workstation)
            if lease is not None:
                if lease.expires_at is None \
                        or lease.expires_at > now + EXPIRY_SLACK:
                    lease.expires_at = expires
                    return lease
                self.expire_due((lease,))
                holders = self._holders.get(dov_id)
        if holders is None:
            holders = self._holders[dov_id] = {}
        lease = holders[workstation] = Lease(workstation, dov_id, now,
                                             expires)
        held = self._held.get(workstation)
        if held is None:
            self._held[workstation] = {dov_id: lease}
        else:
            held[dov_id] = lease
        self.grants += 1
        return lease

    def expire_due(self, leases: Iterable[Lease] | None = None
                   ) -> list[tuple[str, str]]:
        """Drop every lease of *leases* (default: the whole table)
        whose term has ended *now*.

        The one path an expired lease leaves the table by: the table
        calls it with the leases it is about to touch, and a sweep
        without arguments expires every overdue lease at once.
        Returns the dropped ``(workstation, dov_id)`` pairs in the
        order given (per DOV, then per holder, for a sweep).
        """
        if leases is None:
            leases = [lease for holders in self._holders.values()
                      for lease in holders.values()]
        due = self.clock.now + EXPIRY_SLACK
        expired = [(lease.workstation, lease.dov_id) for lease in leases
                   if lease.expires_at is not None
                   and lease.expires_at <= due]
        for workstation, dov_id in expired:
            self.release(workstation, dov_id)
        self.expirations += len(expired)
        return expired

    # -- renewal ------------------------------------------------------------

    def renew_workstation(self, workstation: str) -> int:
        """Renew every live lease of *workstation* by a fresh TTL (the
        metadata-only batch renewal message); returns the number of
        leases extended.

        A lease whose term already ended is dropped
        (:meth:`expire_due`), and one that no longer exists stays dead
        — a renewal never resurrects an expired or recalled lease.
        """
        leases = self._held.get(workstation)
        if leases is None:
            return 0
        ttl = self.ttl
        if ttl is not None:
            now = self.clock.now
            due, expires, dead = now + EXPIRY_SLACK, now + ttl, []
            for lease in leases.values():
                if lease.expires_at > due:
                    lease.expires_at = expires
                else:
                    dead.append(lease)
            if dead:
                self.expire_due(dead)
                leases = self._held.get(workstation, ())
        renewed = len(leases)
        self.renewals += renewed
        return renewed

    # -- queries ------------------------------------------------------------

    def holders(self, dov_id: str) -> set[str]:
        """Workstations holding a live lease on *dov_id*."""
        due = self.clock.now + EXPIRY_SLACK
        return {workstation for workstation, lease
                in self._holders.get(dov_id, {}).items()
                if lease.expires_at is None or lease.expires_at > due}

    def lease(self, workstation: str, dov_id: str) -> Lease | None:
        """The live lease of *(workstation, dov_id)*, if any."""
        lease = self._holders.get(dov_id, {}).get(workstation)
        if lease is None or lease.expires_at is None \
                or lease.expires_at > self.clock.now + EXPIRY_SLACK:
            return lease
        return None

    def __len__(self) -> int:
        """Leases filed, the expired ones not dropped yet included."""
        return sum(len(holders) for holders in self._holders.values())

    # -- recall / release ---------------------------------------------------

    def release(self, workstation: str, dov_id: str) -> bool:
        """Drop one lease (recall, expiry); True when held."""
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
        the holders whose lease was live, in grant order — the expired
        ones go through :meth:`expire_due` and are owed no recall."""
        holders = self._holders.get(dov_id)
        if not holders:
            return []
        if self.ttl is not None:
            due = self.clock.now + EXPIRY_SLACK
            for lease in holders.values():
                if lease.expires_at <= due:
                    self.expire_due(list(holders.values()))
                    holders = self._holders.get(dov_id, {})
                    break
        live = list(holders)
        for workstation in live:
            self.release(workstation, dov_id)
        return live

    def drop_workstation(self, workstation: str) -> int:
        """Forget every lease of one workstation (its crash)."""
        dropped = 0
        for dov_id in list(self._held.get(workstation, ())):
            dropped += self.release(workstation, dov_id)
        return dropped

    def clear(self) -> None:
        """Server crash: the (volatile) lease table vanishes."""
        self._holders.clear()
        self._held.clear()
