"""Per-workstation object buffers for checked-out DOVs.

The TE level is a workstation-server architecture: DOPs check design
object versions *out* of the server repository into the workstation and
check results back in (Sect.5.1).  That split only pays off when the
workstation keeps the shipped versions resident instead of re-fetching
every DOV over the LAN on each read.  :class:`ObjectBuffer` is that
residence: a per-workstation cache of immutable DOV snapshots.

Coherence is lease-based: the server-TM records a read lease per
``(workstation, dov_id)`` whenever it ships a version to a buffering
workstation, and revokes it — with an asynchronous invalidation message
over the simulated LAN — when a checkin supersedes the version (the
new DOV's parents are no longer the frontier of the design state).
Because DOVs themselves are immutable, an entry that outlives its lease
is never *wrong*, merely superseded; the invalidation keeps designers
from continuing work on versions a colleague has already replaced.

Under TTL leases each entry also carries its lease's **term**, the
instant the server's lease ends, set where the server grants or
renews it (the checkout, the write-through checkin, the flush's
:meth:`rebind`, restart :meth:`revalidate`, :meth:`renew`).  The
holder never trusts a copy past the server's term: :meth:`get` drops
an entry whose term has ended and misses, so an expired lease costs
no timer and no message at either end.  Without a TTL every term is
infinite.

Scope discipline survives caching: each entry remembers the DAs whose
checkouts were admitted by the server's scope check, and only those DAs
hit locally — any other DA falls through to the server, which
revalidates its scope on the miss path.

Beyond the read cache, the buffer is also the *write-back* staging area
of the data-shipping protocol: a client-TM in write-back mode records
checkins as **dirty** entries (provisional versions plus their checkin
request records) instead of shipping them eagerly.  Dirty entries stay
resident until the client-TM flushes them as one batched group-checkin;
successive checkins of the same lineage coalesce, so intermediate
versions superseded before they were ever shipped cost zero LAN bytes.

The buffer has no byte capacity: no workload in the tree bounds it, so
an entry leaves only by invalidation, the end of its term,
re-validation or a crash.

Workstation crashes wipe the buffer (it is volatile state) *including
any dirty, not-yet-flushed checkins* — the write-back trade-off: that
work is recovered from repository state through the normal recovery
chain, not from the buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.repository.versions import DesignObjectVersion
from repro.txn.leases import EXPIRY_SLACK

if TYPE_CHECKING:
    from repro.txn.gateway import CheckinRecord


@dataclass
class BufferEntry:
    """One resident DOV: the snapshot plus its cache bookkeeping."""

    dov: DesignObjectVersion
    size: int
    #: DA ids whose server-validated checkouts shipped/refreshed this
    #: entry — the only DAs allowed to hit it locally
    authorized: set[str] = field(default_factory=set)
    #: True for a write-back entry not yet shipped to the server
    dirty: bool = False
    #: the deferred checkin request of a dirty entry; None once flushed
    record: CheckinRecord | None = None
    #: the instant the server's lease on this copy ends (its term);
    #: infinite without a TTL and for a dirty entry, which no server
    #: lease covers
    expires_at: float = math.inf


class ObjectBuffer:
    """The DOV object buffer of one workstation.

    * :meth:`get` — scope- and term-aware lookup; counts hits and
      misses.
    * :meth:`put` — install a shipped (or freshly checked-in) version.
    * :meth:`put_dirty` — write-back: stage a provisional checkin as a
      dirty entry, coalescing dirty parents it supersedes.
    * :meth:`invalidate` — drop a superseded version (the delivery
      side of a server lease revocation); recalls dirty dependents.
    * :meth:`rebind` — swap flushed provisional entries for their
      durable versions (group-checkin commit).
    * :meth:`renew` — the holder's side of a lease renewal: extend the
      entries still live when the server applies it, drop the rest.
    * :meth:`revalidate` — keep/drop resident entries against fresh
      repository stamps (server-restart re-validation).
    * :meth:`clear` — crash/flush semantics: everything vanishes,
      dirty entries included.

    All mutators run synchronously on the caller's stack and never
    schedule kernel events themselves; the *callback* they fire
    (``on_recall``) is where the client-TM hangs network activity, so
    any event scheduling is attributable to the TM that installed the
    hook.
    """

    def __init__(self, workstation: str) -> None:
        self.workstation = workstation
        #: dov_id -> entry, in insertion (residence) order
        self._entries: dict[str, BufferEntry] = {}
        #: insertion-ordered index of the dirty ids — the flush set is
        #: read on every write-back checkin, so it must not scan the
        #: whole (growing) residence map
        self._dirty: dict[str, None] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: dirty provisional versions dropped without ever shipping
        #: because a later dirty checkin superseded them (write-back's
        #: byte saving)
        self.coalesced = 0
        #: dirty entries lost to a workstation crash (clear())
        self.dirty_lost = 0
        #: entries kept warm across a server restart (stamp matched)
        self.revalidated = 0
        #: entries dropped at re-validation (stamp gone or changed)
        self.revalidation_drops = 0
        #: fired when an invalidation recalls a version some dirty
        #: entry derives from — the client-TM hangs its flush here
        #: (write-back trigger 2: lease recall)
        self.on_recall: Callable[[], object] | None = None

    # -- lookups ----------------------------------------------------------------

    def __contains__(self, dov_id: str) -> bool:
        return dov_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def dirty_count(self) -> int:
        """Number of dirty (unflushed write-back) entries — O(1)."""
        return len(self._dirty)

    def dirty_ids(self) -> list[str]:
        """Dirty ids in admission (checkin) order."""
        return list(self._dirty)

    def get(self, dov_id: str, da_id: str,
            now: float) -> DesignObjectVersion | None:
        """The cached version, or None on a miss.

        A hit requires the entry to be resident, authorized for
        *da_id* — an unauthorized DA misses so the server's scope check
        runs on the fetch path — and inside its term at *now*: an entry
        whose term has ended is dropped and misses, as the server's
        lease on it has ended too.  Pure local bookkeeping: a hit costs
        zero network events and zero kernel events.
        """
        entry = self._entries.get(dov_id)
        if entry is None or da_id not in entry.authorized:
            self.misses += 1
            return None
        if entry.expires_at <= now + EXPIRY_SLACK:
            del self._entries[dov_id]
            self.misses += 1
            return None
        self.hits += 1
        return entry.dov

    def dirty_entries(self) -> list[BufferEntry]:
        """Dirty entries in admission (checkin) order — the flush set."""
        return [self._entries[dov_id] for dov_id in self._dirty]

    def dirty_depends_on(self, dov_id: str) -> bool:
        """True when some dirty entry lists *dov_id* among its parents."""
        for dirty_id in self._dirty:
            record = self._entries[dirty_id].record
            if record is not None and dov_id in record.parents:
                return True
        return False

    # -- mutation ----------------------------------------------------------------

    def put(self, dov: DesignObjectVersion, da_id: str,
            expires_at: float = math.inf) -> BufferEntry:
        """Install (or re-authorize) a version shipped to this node
        under a lease whose term ends at *expires_at*."""
        entry = self._entries.get(dov.dov_id)
        if entry is not None:
            entry.authorized.add(da_id)
            entry.expires_at = expires_at
            return entry
        entry = self._entries[dov.dov_id] = BufferEntry(
            dov, dov.payload_size, {da_id}, expires_at=expires_at)
        return entry

    def put_dirty(self, dov: DesignObjectVersion, da_id: str,
                  record: CheckinRecord) -> BufferEntry:
        """Stage a provisional (write-back) checkin as a dirty entry.

        Coalescing: any *dirty* parent of *record* is superseded before
        it was ever shipped — it is dropped from the buffer, its own
        parents spliced into *record*'s lineage, and its bytes never
        cross the LAN.  The caller (client-TM) maintains the
        provisional-id forwarding map.  Returns the staged entry.
        """
        spliced: list[str] = []
        for parent in record.parents:
            stale = self._entries.get(parent)
            if stale is not None and stale.dirty \
                    and stale.record is not None:
                for grand in stale.record.parents:
                    if grand not in spliced:
                        spliced.append(grand)
                del self._entries[parent]
                self._dirty.pop(parent, None)
                self.coalesced += 1
            elif parent not in spliced:
                spliced.append(parent)
        entry = self._entries[dov.dov_id] = BufferEntry(
            dov, dov.payload_size, {da_id}, dirty=True,
            record=record._replace(parents=spliced))
        self._dirty[dov.dov_id] = None
        return entry

    def invalidate(self, dov_id: str) -> bool:
        """Drop a superseded version; True when it was resident.

        This is the delivery side of a server lease revocation —
        executed as an ordinary timed kernel event under the
        concurrent kernel.  When the recalled version is the parent of
        a dirty entry, ``on_recall`` fires so the client-TM can ship
        its derived work before the frontier moves further.
        """
        recalled = self._entries.pop(dov_id, None) is not None
        if recalled:
            self._dirty.pop(dov_id, None)
            self.invalidations += 1
        if self.on_recall is not None and self._dirty \
                and self.dirty_depends_on(dov_id):
            self.on_recall()
        return recalled

    def discard_dirty(self, dop_id: str) -> list[str]:
        """Drop the unflushed checkins of one aborted DOP.

        End-of-DOP (abort) in write-back mode: the DOP's provisional
        versions were never shipped, so there is nothing to undo at
        the server — they simply vanish here.  Returns the discarded
        provisional ids (the client-TM retires its forwarding entries
        for them).
        """
        doomed = [dov_id for dov_id in self._dirty
                  if self._entries[dov_id].record is not None
                  and self._entries[dov_id].record.dop_id == dop_id]
        for dov_id in doomed:
            del self._entries[dov_id]
            del self._dirty[dov_id]
        return doomed

    def rebind(self, mapping: dict[str, DesignObjectVersion],
               expires_at: float) -> int:
        """Swap flushed provisional entries for their durable versions.

        Called by the client-TM when a group checkin commits:
        ``mapping`` takes each provisional id to the durable DOV the
        server assigned.  The entry keeps its authorizations and hit
        counts, is clean, is resident under the durable id from now
        on, and holds the lease the commit granted, whose term ends at
        *expires_at*.  Returns the number of entries rebound.
        """
        rebound = 0
        for provisional_id, dov in mapping.items():
            entry = self._entries.pop(provisional_id, None)
            if entry is None:
                continue
            # the durable version carries the *same* payload the
            # provisional entry staged (the server adopts the shipped
            # data), so the resident size is already right — only a
            # genuinely different payload re-sizes the entry
            if dov.data is not entry.dov.data:
                entry.size = dov.payload_size
            entry.dov = dov
            entry.dirty = False
            entry.record = None
            entry.expires_at = expires_at
            self._dirty.pop(provisional_id, None)
            self._entries[dov.dov_id] = entry
            rebound += 1
        return rebound

    def revalidate(self, descriptions: dict[str, dict[str, Any]],
                   expires_at: float) -> int:
        """Keep entries whose repository stamp still matches; drop the
        rest.

        The server-restart path: *descriptions* maps dov ids to
        ``repository.describe``-shaped metadata for the ids that are
        (still) durable.  A clean entry survives iff its id is present
        and the stamp matches the resident snapshot — then the warm
        copy is byte-identical to the durable version and need not be
        re-shipped — and holds the fresh lease the restarted server
        grants it, whose term ends at *expires_at*.  Dirty entries are
        not the repository's to judge (they were never shipped) and
        always survive.  Returns the number of entries kept warm.
        """
        doomed: list[str] = []
        kept = 0
        for dov_id, entry in self._entries.items():
            if entry.dirty:
                continue
            description = descriptions.get(dov_id)
            if description is not None \
                    and tuple(description.get("stamp", ())) \
                    == entry.dov.stamp:
                entry.expires_at = expires_at
                kept += 1
            else:
                doomed.append(dov_id)
        for dov_id in doomed:
            del self._entries[dov_id]
        self.revalidated += kept
        self.revalidation_drops += len(doomed)
        return kept

    def renew(self, applied_at: float, expires_at: float) -> None:
        """The holder's side of a lease renewal the server applies at
        *applied_at*: every clean entry whose term runs past that
        instant now ends at *expires_at*; the others are dropped, as
        the server drops their leases instead of extending them."""
        due, inf, dead = applied_at + EXPIRY_SLACK, math.inf, []
        for dov_id, entry in self._entries.items():
            # a dirty entry's infinite term is no lease's: it stays
            if due < entry.expires_at < inf:
                entry.expires_at = expires_at
            elif entry.expires_at <= due:
                dead.append(dov_id)
        for dov_id in dead:
            del self._entries[dov_id]

    def clean_ids(self) -> list[str]:
        """Ids of the clean (flushed/fetched) resident entries."""
        return [dov_id for dov_id, e in self._entries.items()
                if not e.dirty]

    def clear(self) -> int:
        """Crash/flush: drop every entry; returns how many were lost.

        Dirty entries are lost too — the workstation-crash semantics
        of write-back: unflushed checkins die with the volatile buffer
        and are recovered from repository state, not from here.
        """
        lost = len(self._entries)
        self.dirty_lost += len(self._dirty)
        self._entries.clear()
        self._dirty.clear()
        return lost
