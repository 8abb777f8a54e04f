"""Lock management for DOVs: short and scope locks.

Sect.5.2 and 5.4 of the paper describe three lock families, of which
two are modelled here:

* **short locks** protect the brief critical sections of checkin and
  checkout ("short locks are fully sufficient to protect a checkin or
  checkout operation");
* **scope locks** realise the CM's dissemination control: every DOV in
  a DA's scope carries a scope lock held by that DA.  Unlike nested
  transactions [Mo81], (a) only locks on *final* DOVs are inherited
  upward when a sub-DA terminates, and (b) a scope lock may be granted
  to an *additional* DA when a usage relationship to the retaining DA
  exists and the DOV was propagated with sufficient quality.

The third, the long *derivation lock* a DA may take on a DOV "to
prevent multiple checkout (and concurrent processing) of this DOV for
application-specific reasons", is not modelled: no design activity of
this reproduction has such a reason, so nothing would ever take one.

The manager is conflict-raising rather than blocking: a conflicting
request raises :class:`LockConflictError` immediately, and the workload
layer models waiting (so blocked time is measurable in experiment T1/T4).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

from repro.util.errors import LockConflictError


class LockMode(str, Enum):
    """Lock modes on DOV resources."""

    SHORT_READ = "short_read"     # checkout critical section
    SHORT_WRITE = "short_write"   # checkin critical section
    SCOPE = "scope"               # membership of a DOV in a DA's scope


#: (granted, requested) -> compatible?
_COMPATIBLE: dict[tuple[LockMode, LockMode], bool] = {
    (LockMode.SHORT_READ, LockMode.SHORT_READ): True,
    (LockMode.SHORT_READ, LockMode.SHORT_WRITE): False,
    (LockMode.SHORT_WRITE, LockMode.SHORT_READ): False,
    (LockMode.SHORT_WRITE, LockMode.SHORT_WRITE): False,
}

#: requested processing mode -> the granted modes it conflicts with
_CONFLICTS: dict[LockMode, tuple[LockMode, ...]] = {
    requested: tuple(granted for granted, wanted in _COMPATIBLE
                     if wanted is requested
                     and not _COMPATIBLE[(granted, wanted)])
    for requested in (LockMode.SHORT_READ, LockMode.SHORT_WRITE)}


class Lock(NamedTuple):
    """One granted lock: a tuple, built in one allocation, whose
    fields cannot be reassigned."""

    resource: str   # DOV id
    holder: str     # DA id (scope) or DOP id / txn id (short)
    mode: LockMode


@dataclass
class LockStats:
    """Counters for experiment T4."""

    granted: int = 0
    conflicts: int = 0
    released: int = 0
    inherited: int = 0
    usage_grants: int = 0


class LockManager:
    """Lock table over DOV ids with CONCORD's special scope semantics.

    Grants are indexed twice: per resource, keyed ``(mode, holder)`` in
    grant order, and per holder.  A request, a release, a holder's
    locks and a terminate-time inheritance therefore cost the grants
    they touch, not the whole table or every grant on a shared DOV.
    """

    def __init__(self) -> None:
        #: resource -> its grants, keyed (mode, holder), in grant order
        self._table: dict[str, dict[tuple[LockMode, str], Lock]] = {}
        #: resource -> how many of its grants each mode has; made when
        #: a second grant arrives (a sole grant is its own count)
        self._modes: dict[str, dict[LockMode, int]] = {}
        #: holder -> its grants, in grant order, each with the birth of
        #: its resource's entry in ``_table``: :meth:`locks_of` lists a
        #: holder's grants in table order
        self._held: dict[str, dict[Lock, int]] = {}
        self._births = 0
        #: callback(requestor_da, holder_da, dov_id) -> bool, installed by
        #: the CM to authorise scope-lock sharing along usage relationships
        self.usage_allows: Callable[[str, str, str], bool] = \
            lambda *_: False
        self.stats = LockStats()

    # -- queries ----------------------------------------------------------------

    def holders(self, resource: str,
                mode: LockMode | None = None) -> list[Lock]:
        """Current grants on *resource*, optionally filtered by mode."""
        grants = self._table.get(resource)
        if grants is None:
            return []
        if mode is None:
            return list(grants.values())
        return [g for g in grants.values() if g.mode is mode]

    def holds(self, resource: str, holder: str, mode: LockMode) -> bool:
        """True when *holder* holds a *mode* lock on *resource*."""
        grants = self._table.get(resource)
        return grants is not None and (mode, holder) in grants

    def locks_of(self, holder: str,
                 mode: LockMode | None = None) -> list[Lock]:
        """All grants held by *holder*, in the order of the table:
        by resource, oldest entry first, then in grant order."""
        held = self._held.get(holder)
        if held is None:
            return []
        found = [(born, i, g) for i, (g, born) in enumerate(held.items())
                 if mode is None or g.mode is mode]
        found.sort()
        return [g for _, _, g in found]

    def scope_of(self, da_id: str) -> set[str]:
        """DOV ids currently scope-locked by *da_id*."""
        held = self._held.get(da_id)
        if held is None:
            return set()
        return {g.resource for g in held if g.mode is LockMode.SCOPE}

    # -- the two indexes ------------------------------------------------------------

    def _count(self, resource: str, grants: dict, mode: LockMode) -> int:
        """How many *mode* grants the held *resource* has."""
        modes = self._modes.get(resource)
        if modes is None:
            (only,) = grants.values()
            return only.mode is mode
        return modes.get(mode, 0)

    def _add(self, resource: str, holder: str, mode: LockMode) -> Lock:
        """Enter a new grant in both indexes."""
        lock = tuple.__new__(Lock, (resource, holder, mode))
        grants = self._table.get(resource)
        if grants is None:
            self._table[resource] = {(mode, holder): lock}
            born = self._births
            self._births += 1
        else:
            modes = self._modes.get(resource)
            if modes is None:
                (only,) = grants.values()
                modes = self._modes[resource] = {only.mode: 1}
            modes[mode] = modes.get(mode, 0) + 1
            # the resource's birth, as any of its grants carries it
            first = next(iter(grants.values()))
            born = self._held[first.holder][first]
            grants[mode, holder] = lock
        self._held.setdefault(holder, {})[lock] = born
        return lock

    # -- acquire/release -----------------------------------------------------------

    def acquire(self, resource: str, holder: str, mode: LockMode) -> Lock:
        """Grant a lock or raise :class:`LockConflictError`.

        Re-acquiring an identical lock is idempotent.  A refusal names
        the first conflicting grant, in grant order.
        """
        grants = self._table.get(resource)
        if grants is None:
            # a free resource: nothing to conflict with
            lock = tuple.__new__(Lock, (resource, holder, mode))
            self._table[resource] = {(mode, holder): lock}
            self._held.setdefault(holder, {})[lock] = self._births
            self._births += 1
            self.stats.granted += 1
            return lock
        lock = grants.get((mode, holder))
        if lock is not None:
            return lock  # idempotent
        if mode is LockMode.SCOPE:
            # the requestor holds no scope lock here: every scope grant
            # is another DA's, and each must share along a usage
            if self._count(resource, grants, mode):
                scope = self.holders(resource, mode)
                for grant in scope:
                    if not self.usage_allows(holder, grant.holder,
                                             resource):
                        self.stats.conflicts += 1
                        raise LockConflictError(
                            f"scope lock on {resource!r} for {holder!r} "
                            f"denied: no usage relationship to holder "
                            f"{scope[0].holder!r}", holder=scope[0].holder)
                self.stats.usage_grants += 1
        else:
            # own locks never conflict with each other, and scope
            # membership does not block processing
            conflicting = _CONFLICTS[mode]
            for held_mode in conflicting:
                if self._count(resource, grants, held_mode) \
                        > ((held_mode, holder) in grants):
                    grant = next(g for g in grants.values()
                                 if g.mode in conflicting
                                 and g.holder != holder)
                    self.stats.conflicts += 1
                    raise LockConflictError(
                        f"{mode.value} on {resource!r} for {holder!r} "
                        f"conflicts with {grant.mode.value} held by "
                        f"{grant.holder!r}", holder=grant.holder)
        self.stats.granted += 1
        return self._add(resource, holder, mode)

    def try_acquire(self, resource: str, holder: str,
                    mode: LockMode) -> Lock | None:
        """Like :meth:`acquire` but returns None instead of raising."""
        try:
            return self.acquire(resource, holder, mode)
        except LockConflictError:
            return None

    def release(self, resource: str, holder: str,
                mode: LockMode | None = None) -> int:
        """Release *holder*'s lock(s) on *resource*; returns #released."""
        grants = self._table.get(resource)
        if grants is None:
            return 0
        if mode is None:
            return sum(self.release(resource, holder, each)
                       for each in LockMode)
        lock = grants.pop((mode, holder), None)
        if lock is None:
            return 0
        if not grants:
            # the resource's last grant: its entries go
            del self._table[resource]
            if resource in self._modes:
                del self._modes[resource]
        else:
            self._modes[resource][mode] -= 1
        held = self._held[holder]
        if len(held) == 1:
            del self._held[holder]
        else:
            del held[lock]
        self.stats.released += 1
        return 1

    def forget(self, mode: LockMode) -> int:
        """Every *mode* grant is gone with the process that held the
        table (a crash: nobody released them, so nothing is counted).
        Returns how many went."""
        forgotten = 0
        for resource, grants in list(self._table.items()):
            for key in [key for key in grants if key[0] is mode]:
                lock = grants.pop(key)
                held = self._held[lock.holder]
                del held[lock]
                if not held:
                    del self._held[lock.holder]
                forgotten += 1
            if not grants:
                del self._table[resource]
                self._modes.pop(resource, None)
            elif resource in self._modes:
                self._modes[resource][mode] = 0
        return forgotten

    def release_all(self, holder: str, mode: LockMode | None = None) -> int:
        """Release every lock of *holder* (optionally one mode)."""
        held = self._held.get(holder)
        if held is None:
            return 0
        return sum(self.release(g.resource, holder, g.mode)
                   for g in list(held) if mode is None or g.mode is mode)

    # -- CONCORD scope-lock specials ------------------------------------------------

    def inherit_scope_locks(self, from_da: str, to_da: str,
                            final_dovs: set[str]) -> list[str]:
        """Terminate-time inheritance: move scope locks on *final* DOVs.

        "Referring to delegation relationships a super-DA inherits the
        scope-locks on the final DOVs of its terminated sub-DAs and
        then retains these locks" (Sect.5.4).  Non-final DOV locks of
        the sub-DA are simply released (they leave every scope).

        Returns the DOV ids whose locks were inherited.
        """
        inherited: list[str] = []
        for lock in self.locks_of(from_da, LockMode.SCOPE):
            resource = lock.resource
            self.release(resource, from_da, LockMode.SCOPE)
            if resource in final_dovs:
                if not self.holds(resource, to_da, LockMode.SCOPE):
                    self._add(resource, to_da, LockMode.SCOPE)
                    self.stats.inherited += 1
                inherited.append(resource)
        return inherited
