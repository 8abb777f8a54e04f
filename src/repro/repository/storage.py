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

from repro.repository.versions import (
    DesignObjectVersion,
    FrozenList,
    adopt_payload,
)
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
        self._require_up()
        if dov.dov_id in self._stable or dov.dov_id in self._staged:
            raise StorageError(f"DOV {dov.dov_id!r} already stored")
        self._staged[dov.dov_id] = dov

    @staticmethod
    def _checkin_payload(dov: DesignObjectVersion) -> dict:
        return {
            "dov_id": dov.dov_id,
            "dot": dov.dot_name,
            "created_by": dov.created_by,
            "created_at": dov.created_at,
            "parents": FrozenList(dov.parents),
            "data": dov.data,
        }

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
        """
        self._require_up()
        missing = [dov_id for dov_id in dov_ids
                   if dov_id not in self._staged]
        if missing:
            raise StorageError(
                f"DOVs not staged for group commit: {missing}")
        dovs = [self._staged.pop(dov_id) for dov_id in dov_ids]
        for dov in dovs:
            self.wal.append(LogRecordKind.DOV_CHECKIN,
                            self._checkin_payload(dov), force=False)
        self.wal.force()
        for dov in dovs:
            self._stable[dov.dov_id] = dov
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
            payload = record.payload
            dov = DesignObjectVersion(
                dov_id=payload["dov_id"],
                dot_name=payload["dot"],
                data=adopt_payload(payload["data"]),
                created_by=payload["created_by"],
                created_at=payload["created_at"],
                parents=tuple(payload["parents"]),
            )
            if dov.dov_id not in self._stable:
                self._stable[dov.dov_id] = dov
                recovered += 1
        self._up = True
        return recovered
