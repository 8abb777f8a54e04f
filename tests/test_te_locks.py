"""Unit tests for the lock manager: short / derivation / scope locks."""

from __future__ import annotations

import pytest

from repro.te.locks import LockManager, LockMode
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
        locks.acquire("dov-1", "dop-1", LockMode.SHORT_READ)
        locks.acquire("dov-1", "dop-1", LockMode.SHORT_READ)
        assert len(locks.holders("dov-1")) == 1

    def test_release_specific_mode(self):
        locks = LockManager()
        locks.acquire("dov-1", "da-1", LockMode.DERIVATION)
        locks.acquire("dov-1", "da-1", LockMode.SCOPE)
        released = locks.release("dov-1", "da-1", LockMode.DERIVATION)
        assert released == 1
        assert [g.mode for g in locks.holders("dov-1")] == [LockMode.SCOPE]

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

