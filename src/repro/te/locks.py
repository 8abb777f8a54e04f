"""Lock management for DOVs: short, derivation and scope locks.

Sect.5.2 and 5.4 of the paper describe three lock families:

* **short locks** protect the brief critical sections of checkin and
  checkout ("short locks are fully sufficient to protect a checkin or
  checkout operation");
* **derivation locks** are long locks a DA may acquire on a DOV "to
  prevent multiple checkout (and concurrent processing) of this DOV for
  application-specific reasons";
* **scope locks** realise the CM's dissemination control: every DOV in
  a DA's scope carries a scope lock held by that DA.  Unlike nested
  transactions [Mo81], (a) only locks on *final* DOVs are inherited
  upward when a sub-DA terminates, and (b) a scope lock may be granted
  to an *additional* DA when a usage relationship to the retaining DA
  exists and the DOV was propagated with sufficient quality.

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
    DERIVATION = "derivation"     # long lock against multiple checkout
    SCOPE = "scope"               # membership of a DOV in a DA's scope


#: (granted, requested) -> compatible?
_COMPATIBLE: dict[tuple[LockMode, LockMode], bool] = {
    (LockMode.SHORT_READ, LockMode.SHORT_READ): True,
    (LockMode.SHORT_READ, LockMode.SHORT_WRITE): False,
    (LockMode.SHORT_READ, LockMode.DERIVATION): True,
    (LockMode.SHORT_WRITE, LockMode.SHORT_READ): False,
    (LockMode.SHORT_WRITE, LockMode.SHORT_WRITE): False,
    (LockMode.SHORT_WRITE, LockMode.DERIVATION): False,
    (LockMode.DERIVATION, LockMode.SHORT_READ): True,
    (LockMode.DERIVATION, LockMode.SHORT_WRITE): False,
    (LockMode.DERIVATION, LockMode.DERIVATION): False,
}


class Lock(NamedTuple):
    """One granted lock: a tuple, built in one allocation, whose
    fields cannot be reassigned."""

    resource: str   # DOV id
    holder: str     # DA id (scope/derivation) or DOP id (short)
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
    """Lock table over DOV ids with CONCORD's special scope semantics."""

    def __init__(self) -> None:
        #: resource -> list of grants
        self._table: dict[str, list[Lock]] = {}
        #: callback(requestor_da, holder_da, dov_id) -> bool, installed by
        #: the CM to authorise scope-lock sharing along usage relationships
        self.usage_allows: Callable[[str, str, str], bool] = \
            lambda *_: False
        self.stats = LockStats()

    # -- helpers ---------------------------------------------------------------

    def holders(self, resource: str,
                mode: LockMode | None = None) -> list[Lock]:
        """Current grants on *resource*, optionally filtered by mode."""
        grants = self._table.get(resource)
        if not grants:
            return []
        if mode is None:
            return list(grants)
        return [g for g in grants if g.mode is mode]

    def holds(self, resource: str, holder: str) -> bool:
        """True when *holder* holds a lock on *resource*."""
        return any(g.holder == holder
                   for g in self._table.get(resource, []))

    def locks_of(self, holder: str,
                 mode: LockMode | None = None) -> list[Lock]:
        """All grants held by *holder*."""
        found = []
        for grants in self._table.values():
            found.extend(g for g in grants
                         if g.holder == holder
                         and (mode is None or g.mode is mode))
        return found

    def _scope_compatible(self, requestor: str, resource: str) -> bool:
        """Scope locks coexist only along usage relationships."""
        for grant in self.holders(resource, LockMode.SCOPE):
            if grant.holder == requestor:
                continue
            if not self.usage_allows(requestor, grant.holder, resource):
                return False
        return True

    # -- acquire/release -----------------------------------------------------------

    def acquire(self, resource: str, holder: str, mode: LockMode) -> Lock:
        """Grant a lock or raise :class:`LockConflictError`.

        Re-acquiring an identical lock is idempotent.
        """
        grants = self._table.setdefault(resource, [])
        for grant in grants:
            if grant.holder == holder and grant.mode is mode:
                return grant  # idempotent
        if mode is LockMode.SCOPE:
            if not self._scope_compatible(holder, resource):
                blocker = next(g.holder for g in grants
                               if g.mode is LockMode.SCOPE
                               and g.holder != holder)
                self.stats.conflicts += 1
                raise LockConflictError(
                    f"scope lock on {resource!r} for {holder!r} denied: "
                    f"no usage relationship to holder {blocker!r}",
                    holder=blocker)
            was_shared = any(g.mode is LockMode.SCOPE and g.holder != holder
                             for g in grants)
            if was_shared:
                self.stats.usage_grants += 1
        else:
            for grant in grants:
                if grant.holder == holder:
                    continue  # own locks never conflict with each other
                if grant.mode is LockMode.SCOPE:
                    continue  # scope membership does not block processing
                if not _COMPATIBLE[(grant.mode, mode)]:
                    self.stats.conflicts += 1
                    raise LockConflictError(
                        f"{mode.value} on {resource!r} for {holder!r} "
                        f"conflicts with {grant.mode.value} held by "
                        f"{grant.holder!r}", holder=grant.holder)
        lock = tuple.__new__(Lock, (resource, holder, mode))
        grants.append(lock)
        self.stats.granted += 1
        return lock

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
        if not grants:
            return 0
        keep = [g for g in grants
                if not (g.holder == holder
                        and (mode is None or g.mode is mode))]
        released = len(grants) - len(keep)
        if keep:
            self._table[resource] = keep
        else:
            self._table.pop(resource, None)
        self.stats.released += released
        return released

    def release_all(self, holder: str, mode: LockMode | None = None) -> int:
        """Release every lock of *holder* (optionally one mode)."""
        released = 0
        for resource in list(self._table):
            released += self.release(resource, holder, mode)
        return released

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
            self.release(lock.resource, from_da, LockMode.SCOPE)
            if lock.resource in final_dovs:
                grants = self._table.setdefault(lock.resource, [])
                if not any(g.holder == to_da and g.mode is LockMode.SCOPE
                           for g in grants):
                    grants.append(Lock(lock.resource, to_da, LockMode.SCOPE))
                    self.stats.inherited += 1
                inherited.append(lock.resource)
        return inherited

    def scope_of(self, da_id: str) -> set[str]:
        """DOV ids currently scope-locked by *da_id*."""
        return {lock.resource
                for lock in self.locks_of(da_id, LockMode.SCOPE)}

