"""Stable version storage with crash semantics.

The server's data repository must survive server crashes: committed
DOVs are durable, in-flight (uncommitted) checkins are not.  The
:class:`VersionStore` models this with a *stable* map written only under
WAL protection, plus a redo pass at restart.  It deliberately stays
page-less — experiments here care about which writes survive a crash,
not about buffer-pool mechanics.
"""

from __future__ import annotations

from typing import Iterator

from repro.repository.versions import DesignObjectVersion
from repro.repository.wal import LogRecordKind, WriteAheadLog
from repro.util.errors import StorageError, UnknownObjectError


class VersionStore:
    """Durable DOV storage: WAL-protected writes, crash, redo recovery."""

    def __init__(self, wal: WriteAheadLog | None = None) -> None:
        self.wal = wal if wal is not None else WriteAheadLog("version-store")
        self._stable: dict[str, DesignObjectVersion] = {}
        #: uncommitted versions staged by in-flight transactions
        self._staged: dict[str, DesignObjectVersion] = {}
        self._up = True

    # -- availability ---------------------------------------------------------

    @property
    def is_up(self) -> bool:
        """False while the (simulated) server is crashed."""
        return self._up

    def _require_up(self) -> None:
        if not self._up:
            raise StorageError("version store is down (server crash)")

    # -- writes ---------------------------------------------------------------

    def stage(self, dov: DesignObjectVersion) -> None:
        """Stage an uncommitted version (phase 1 of checkin)."""
        if not self._up:
            self._require_up()
        dov_id = dov.dov_id
        if dov_id in self._stable or dov_id in self._staged:
            raise StorageError(f"DOV {dov_id!r} already stored")
        self._staged[dov_id] = dov

    def commit_batch(self, dov_ids: list[str]) -> list[DesignObjectVersion]:
        """Make a group of staged versions durable *atomically*; a
        single version is a batch of one.

        All checkin records are appended to the volatile WAL tail and
        made stable by **one** force at the end: a crash anywhere
        before that force loses the whole unforced tail, so either the
        entire batch survives recovery or none of it does — the
        durability half of group-checkin atomicity (the staging half
        is the server-TM's all-or-nothing prepare).  Also the cheaper
        path: one forced log write for the batch instead of one per
        version.

        A checkin record is the committed version itself: a DOV is
        immutable (it carries ``__frozen_payload__``), so the log keeps
        the reference and redo takes it back as it is.
        """
        if not self._up:
            self._require_up()
        staged = self._staged
        dovs = []
        for dov_id in dov_ids:
            dov = staged.get(dov_id)
            if dov is None:
                missing = [other for other in dov_ids
                           if other not in staged]
                raise StorageError(
                    f"DOVs not staged for group commit: {missing}")
            dovs.append(dov)
        wal = self.wal
        for dov in dovs:
            del staged[dov.dov_id]
            wal.append(LogRecordKind.DOV_CHECKIN, {"dov": dov})
        wal.force()
        stable = self._stable
        for dov in dovs:
            stable[dov.dov_id] = dov
        return dovs

    def discard(self, dov_id: str) -> bool:
        """Drop a staged version (abort path); True when it existed."""
        self._require_up()
        return self._staged.pop(dov_id, None) is not None

    def replace_staged(self, dov: DesignObjectVersion) -> None:
        """Swap a staged version (federation patches cross-member
        lineage onto it before commit)."""
        self._require_up()
        if dov.dov_id not in self._staged:
            raise StorageError(f"DOV {dov.dov_id!r} is not staged")
        self._staged[dov.dov_id] = dov

    # -- reads ----------------------------------------------------------------

    def __contains__(self, dov_id: str) -> bool:
        return dov_id in self._stable

    def __len__(self) -> int:
        return len(self._stable)

    def __iter__(self) -> Iterator[DesignObjectVersion]:
        return iter(self._stable.values())

    def get(self, dov_id: str) -> DesignObjectVersion:
        """Read a durable version; staged versions are invisible."""
        if not self._up:
            self._require_up()
        try:
            return self._stable[dov_id]
        except KeyError:
            raise UnknownObjectError(f"DOV {dov_id!r} not stored") from None

    def staged_ids(self) -> set[str]:
        """Ids of currently staged (uncommitted) versions."""
        return set(self._staged)

    def staged(self, dov_id: str) -> DesignObjectVersion:
        """A staged (uncommitted) version — the prepare-record source
        of the federated commit's redo information."""
        self._require_up()
        try:
            return self._staged[dov_id]
        except KeyError:
            raise StorageError(f"DOV {dov_id!r} is not staged") from None

    # -- failure & recovery -----------------------------------------------------

    def crash(self) -> dict[str, int]:
        """Server crash: staged versions and the unforced WAL tail vanish.

        The stable map itself is also cleared — restart must *redo* from
        the WAL, which is exactly what :meth:`recover` does.  Returns a
        small loss report used by the F8/T2 experiments.
        """
        lost_staged = len(self._staged)
        lost_wal = self.wal.crash()
        self._staged.clear()
        self._stable.clear()
        self._up = False
        return {"staged_lost": lost_staged, "wal_tail_lost": lost_wal}

    def recover(self) -> int:
        """Restart after a crash: redo committed checkins from the WAL.

        Returns the number of versions recovered.
        """
        recovered = 0
        for record in self.wal.stable_records(LogRecordKind.DOV_CHECKIN):
            dov = record.payload["dov"]
            if dov.dov_id not in self._stable:
                self._stable[dov.dov_id] = dov
                recovered += 1
        self._up = True
        return recovered
