"""Unit tests for the lock manager: short / derivation / scope locks."""

from __future__ import annotations

from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.te.locks import _COMPATIBLE, Lock, LockManager, LockMode, \
    LockStats
from repro.util.errors import LockConflictError


class TestShortLocks:
    def test_shared_reads(self):
        locks = LockManager()
        locks.acquire("dov-1", "dop-1", LockMode.SHORT_READ)
        locks.acquire("dov-1", "dop-2", LockMode.SHORT_READ)
        assert len(locks.holders("dov-1")) == 2

    def test_write_excludes_read(self):
        locks = LockManager()
        locks.acquire("dov-1", "dop-1", LockMode.SHORT_WRITE)
        with pytest.raises(LockConflictError):
            locks.acquire("dov-1", "dop-2", LockMode.SHORT_READ)

    def test_write_excludes_write(self):
        locks = LockManager()
        locks.acquire("g", "t1", LockMode.SHORT_WRITE)
        with pytest.raises(LockConflictError) as info:
            locks.acquire("g", "t2", LockMode.SHORT_WRITE)
        assert info.value.holder == "t1"

    def test_reacquire_is_idempotent(self):
        locks = LockManager()
        lock = locks.acquire("dov-1", "dop-1", LockMode.SHORT_READ)
        assert locks.acquire("dov-1", "dop-1", LockMode.SHORT_READ) is lock
        assert len(locks.holders("dov-1")) == 1
        with pytest.raises(AttributeError):    # a grant is a value
            lock.holder = "dop-2"
        assert locks.holders("dov-1") == [lock]
        assert lock == ("dov-1", "dop-1", LockMode.SHORT_READ)

    def test_release_specific_mode(self):
        locks = LockManager()
        locks.acquire("dov-1", "da-1", LockMode.DERIVATION)
        locks.acquire("dov-1", "da-1", LockMode.SCOPE)
        released = locks.release("dov-1", "da-1", LockMode.DERIVATION)
        assert released == 1
        assert [g.mode for g in locks.holders("dov-1")] == [LockMode.SCOPE]
        # a resource's only grant: released by its holder and mode alone
        assert locks.release("dov-1", "da-2", LockMode.SCOPE) == 0
        assert locks.release("dov-1", "da-1", LockMode.DERIVATION) == 0
        assert len(locks.holders("dov-1")) == 1
        assert locks.release("dov-1", "da-1", LockMode.SCOPE) == 1
        assert locks.holders("dov-1") == []
        assert locks.stats.released == 2

    def test_release_all_modes(self):
        locks = LockManager()
        locks.acquire("dov-1", "da-1", LockMode.DERIVATION)
        locks.acquire("dov-1", "da-1", LockMode.SCOPE)
        assert locks.release("dov-1", "da-1") == 2


class TestDerivationLocks:
    def test_exclusive_between_das(self):
        locks = LockManager()
        locks.acquire("dov-1", "da-1", LockMode.DERIVATION)
        with pytest.raises(LockConflictError):
            locks.acquire("dov-1", "da-2", LockMode.DERIVATION)

    def test_compatible_with_short_read(self):
        locks = LockManager()
        locks.acquire("dov-1", "da-1", LockMode.DERIVATION)
        locks.acquire("dov-1", "dop-9", LockMode.SHORT_READ)

    def test_blocks_short_write(self):
        locks = LockManager()
        locks.acquire("dov-1", "da-1", LockMode.DERIVATION)
        with pytest.raises(LockConflictError):
            locks.acquire("dov-1", "t-1", LockMode.SHORT_WRITE)

    def test_try_acquire(self):
        locks = LockManager()
        assert locks.try_acquire("dov-1", "da-1",
                                 LockMode.DERIVATION) is not None
        assert locks.try_acquire("dov-1", "da-2",
                                 LockMode.DERIVATION) is None

    def test_release_all_for_holder(self):
        locks = LockManager()
        locks.acquire("dov-1", "da-1", LockMode.DERIVATION)
        locks.acquire("dov-2", "da-1", LockMode.DERIVATION)
        assert locks.release_all("da-1", LockMode.DERIVATION) == 2
        assert locks.locks_of("da-1") == []


class TestScopeLocks:
    def test_single_scope_lock(self):
        locks = LockManager()
        locks.acquire("dov-1", "da-1", LockMode.SCOPE)
        assert locks.scope_of("da-1") == {"dov-1"}

    def test_second_scope_denied_without_usage(self):
        locks = LockManager()
        locks.acquire("dov-1", "da-1", LockMode.SCOPE)
        with pytest.raises(LockConflictError):
            locks.acquire("dov-1", "da-2", LockMode.SCOPE)
        assert locks.stats.conflicts == 1

    def test_usage_relationship_allows_sharing(self):
        locks = LockManager()
        locks.usage_allows = lambda req, holder, dov: req == "da-2"
        locks.acquire("dov-1", "da-1", LockMode.SCOPE)
        locks.acquire("dov-1", "da-2", LockMode.SCOPE)
        assert locks.stats.usage_grants == 1
        with pytest.raises(LockConflictError):
            locks.acquire("dov-1", "da-3", LockMode.SCOPE)

    def test_scope_lock_does_not_block_processing_locks(self):
        locks = LockManager()
        locks.acquire("dov-1", "da-1", LockMode.SCOPE)
        locks.acquire("dov-1", "da-1", LockMode.DERIVATION)
        locks.acquire("dov-1", "dop-1", LockMode.SHORT_READ)


class TestScopeInheritance:
    def test_only_final_dovs_inherited(self):
        locks = LockManager()
        locks.acquire("final-1", "sub", LockMode.SCOPE)
        locks.acquire("final-2", "sub", LockMode.SCOPE)
        locks.acquire("preliminary", "sub", LockMode.SCOPE)
        inherited = locks.inherit_scope_locks(
            "sub", "super", {"final-1", "final-2"})
        assert sorted(inherited) == ["final-1", "final-2"]
        assert locks.scope_of("super") == {"final-1", "final-2"}
        # the sub's locks are gone, incl. the preliminary one
        assert locks.scope_of("sub") == set()
        assert locks.holders("preliminary") == []

    def test_inheritance_idempotent_if_super_already_holds(self):
        locks = LockManager()
        locks.usage_allows = lambda *a: True
        locks.acquire("final-1", "sub", LockMode.SCOPE)
        locks.acquire("final-1", "super", LockMode.SCOPE)
        locks.inherit_scope_locks("sub", "super", {"final-1"})
        grants = locks.holders("final-1", LockMode.SCOPE)
        assert len(grants) == 1
        assert grants[0].holder == "super"

    def test_inherited_counted(self):
        locks = LockManager()
        locks.acquire("f", "sub", LockMode.SCOPE)
        locks.inherit_scope_locks("sub", "super", {"f"})
        assert locks.stats.inherited == 1


class TestStats:
    def test_counters(self):
        locks = LockManager()
        locks.acquire("r", "a", LockMode.SHORT_READ)
        locks.try_acquire("r", "b", LockMode.SHORT_WRITE)
        locks.release("r", "a")
        assert locks.stats.granted == 1
        assert locks.stats.conflicts == 1
        assert locks.stats.released == 1



# ---------------------------------------------------------------------------
# the indexed table against the list-based one
# ---------------------------------------------------------------------------

class _ReferenceLockManager:
    """The list-based lock table the indexed one replaced, verbatim:
    every query scans a resource's grants or the whole table."""

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
        grants = self._table.get(resource)
        if not grants:
            # a free resource: nothing to conflict with
            lock = tuple.__new__(Lock, (resource, holder, mode))
            self._table[resource] = [lock]
            self.stats.granted += 1
            return lock
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
        if len(grants) == 1:
            # the resource's only grant: drop the entry, no list rebuilt
            grant = grants[0]
            if grant.holder != holder \
                    or (mode is not None and grant.mode is not mode):
                return 0
            del self._table[resource]
            self.stats.released += 1
            return 1
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


RESOURCES = ("r0", "r1")
HOLDERS = ("h0", "h1", "h2")
MODES = tuple(LockMode)


@st.composite
def lock_programs(draw):
    """A usage relation (requestor, holder) and 20-60 calls of the five
    mutators over two resources and three holders; most calls are
    requests, half of them for scope locks, so that grants pile up on
    a resource and are shared."""
    pairs = [(requestor, holder) for requestor in HOLDERS
             for holder in HOLDERS if requestor != holder]
    allowed = {pair for pair, allows in draw(st.fixed_dictionaries(
        {pair: st.booleans() for pair in pairs})).items() if allows}
    resource, holder, mode = (st.sampled_from(RESOURCES),
                              st.sampled_from(HOLDERS),
                              st.sampled_from(MODES + (LockMode.SCOPE,) * 3))
    request = st.tuples(st.sampled_from(("acquire", "try_acquire")),
                        resource, holder, mode)
    call = st.one_of(
        request, request, request,
        st.tuples(st.just("release"), resource, holder,
                  st.none() | mode),
        st.tuples(st.just("release_all"), holder, st.none() | mode),
        st.tuples(st.just("inherit_scope_locks"), holder, holder,
                  st.frozensets(resource).map(set)))
    return allowed, draw(st.lists(call, min_size=20, max_size=60))


def _run(table, name: str, args: tuple) -> tuple:
    try:
        return "ok", getattr(table, name)(*args)
    except LockConflictError as exc:
        return "conflict", exc.holder, str(exc)


class TestTheIndexedTableIsTheListTable:
    @given(lock_programs())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_equal_answers_after_every_call(self, program):
        allowed, calls = program
        asked: dict[str, list] = {"new": [], "ref": []}

        def usage(side: str) -> Callable[[str, str, str], bool]:
            def allows(requestor: str, holder: str, resource: str) -> bool:
                asked[side].append((requestor, holder, resource))
                return (requestor, holder) in allowed
            return allows

        new, ref = LockManager(), _ReferenceLockManager()
        new.usage_allows, ref.usage_allows = usage("new"), usage("ref")
        for name, *args in calls:
            assert _run(new, name, tuple(args)) \
                == _run(ref, name, tuple(args)), (name, args)
            assert asked["new"] == asked["ref"]
            assert new.stats == ref.stats
            for resource in RESOURCES:
                assert new.holders(resource) == ref.holders(resource)
                for mode in MODES:
                    granted = ref.holders(resource, mode)
                    assert new.holders(resource, mode) == granted
                    for holder in HOLDERS:
                        assert new.holds(resource, holder, mode) \
                            == any(g.holder == holder for g in granted)
                        assert new.blocker(resource, holder, mode) \
                            == next((g for g in granted
                                     if g.holder != holder), None)
            for holder in HOLDERS:
                assert new.locks_of(holder) == ref.locks_of(holder)
                assert new.scope_of(holder) == ref.scope_of(holder)
                for mode in MODES:
                    assert new.locks_of(holder, mode) \
                        == ref.locks_of(holder, mode)
