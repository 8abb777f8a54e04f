"""Write-ahead log.

Durability of derived DOVs "is guaranteed by the data repository, i.e.
by the logging and recovery methods of the server-TM" (Sect.5.2).  This
module provides that logging substrate: an append-only log with explicit
*force* (flush-to-stable) semantics.  A simulated crash discards the
unforced tail; recovery replays the stable prefix.

The same mechanism backs the DM's persistent script/log, the CM's
state log and the federation's decision log — each component owns its
own :class:`WriteAheadLog` instance on its node's stable storage.  The
two that bound their log share one checkpoint-and-truncate:
:meth:`WriteAheadLog.checkpoint` and
:meth:`WriteAheadLog.since_checkpoint`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterator

from repro.repository.versions import is_frozen_payload


class LogRecordKind(str, Enum):
    """Record types used across the activity managers."""

    # repository / server-TM
    DOV_CHECKIN = "dov_checkin"
    GRAPH_CREATE = "graph_create"
    TXN_PREPARE = "txn_prepare"
    TXN_COMMIT = "txn_commit"
    TXN_ABORT = "txn_abort"
    # client-TM
    RECOVERY_POINT = "recovery_point"
    SAVEPOINT = "savepoint"
    # DM
    DOP_START = "dop_start"
    DOP_FINISH = "dop_finish"
    SCRIPT_POSITION = "script_position"
    DOV_USED = "dov_used"
    # CM
    COOP_OPERATION = "coop_operation"
    DA_STATE = "da_state"
    # federated atomic commit (txn layer)
    GLOBAL_DECISION = "global_decision"
    # generic
    CHECKPOINT = "checkpoint"


@dataclass(frozen=True)
class LogRecord:
    """One immutable log entry."""

    lsn: int
    kind: LogRecordKind
    payload: dict[str, Any] = field(default_factory=dict)


class WriteAheadLog:
    """Append-only log with a volatile tail and a stable prefix.

    ``append`` adds to the volatile tail, ``force`` moves the tail to
    stable storage (counted, because experiment T3 measures forced log
    writes), ``crash`` discards the tail, and ``stable_records`` is what
    recovery sees after a crash.
    """

    def __init__(self, name: str = "wal") -> None:
        self.name = name
        self._stable: list[LogRecord] = []
        #: stable records bucketed by kind — recovery scans ask for one
        #: kind at a time, and a full-log filter per query is wasted
        #: work once logs grow past checkpoint windows
        self._stable_by_kind: dict[LogRecordKind, list[LogRecord]] = {}
        self._volatile: list[LogRecord] = []
        self._next_lsn = 1
        #: number of force() calls that actually flushed something
        self.forced_writes = 0

    # -- writing ------------------------------------------------------------

    def _snapshot_payload(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Defensive copy of a record payload, zero-copy for frozen values.

        The WAL must never share mutable state with its callers (a
        later in-place edit would corrupt the durable history), hence
        the deep copy — but a value whose type carries the
        ``__frozen_payload__`` marker (stable storage's rule) cannot be
        mutated through any reference, so it is shared as-is and the
        walk is skipped.
        """
        return {key: value if is_frozen_payload(value)
                else copy.deepcopy(value)
                for key, value in payload.items()}

    def append(self, kind: LogRecordKind,
               payload: dict[str, Any] | None = None,
               force: bool = False) -> LogRecord:
        """Append a record; optionally force it to stable storage."""
        record = LogRecord(self._next_lsn, kind,
                           self._snapshot_payload(payload or {}))
        self._next_lsn += 1
        self._volatile.append(record)
        if force:
            self.force()
        return record

    def force(self) -> int:
        """Flush the volatile tail; returns the number of records flushed."""
        flushed = len(self._volatile)
        if flushed:
            self._stable.extend(self._volatile)
            for record in self._volatile:
                self._stable_by_kind.setdefault(record.kind,
                                                []).append(record)
            self._volatile.clear()
            self.forced_writes += 1
        return flushed

    # -- failure ------------------------------------------------------------

    def crash(self) -> int:
        """Simulate a crash: the unforced tail is lost. Returns #lost."""
        lost = len(self._volatile)
        self._volatile.clear()
        return lost

    # -- reading ------------------------------------------------------------

    def stable_records(self,
                       kind: LogRecordKind | None = None) -> list[LogRecord]:
        """The crash-surviving prefix, optionally filtered by kind.

        By-kind queries read a maintained per-kind bucket instead of
        filtering the whole log, so recovery scans stay proportional
        to the records they actually consume.
        """
        if kind is None:
            return list(self._stable)
        return list(self._stable_by_kind.get(kind, ()))

    def all_records(self) -> list[LogRecord]:
        """Stable prefix plus volatile tail (pre-crash view)."""
        return self._stable + self._volatile

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self.all_records())

    def __len__(self) -> int:
        return len(self._stable) + len(self._volatile)

    # -- checkpointing ------------------------------------------------------

    def checkpoint(self, payload: dict[str, Any]) -> int:
        """One forced ``CHECKPOINT`` record carrying the log's whole
        live state, then every record behind it dropped.

        Returns the number of records dropped.
        """
        self.append(LogRecordKind.CHECKPOINT, payload, force=True)
        return self._drop_behind_checkpoint()

    def since_checkpoint(self) -> list[LogRecord]:
        """The stable records from the last checkpoint on — what
        recovery replays.

        A crash between a checkpoint's append and its truncate leaves
        older records in front of it; they are dropped first, so
        reading twice is reading once.
        """
        self._drop_behind_checkpoint()
        return list(self._stable)

    def _drop_behind_checkpoint(self) -> int:
        checkpoints = self._stable_by_kind.get(LogRecordKind.CHECKPOINT)
        if not checkpoints or self._stable[0] is checkpoints[-1]:
            return 0
        return self.truncate(checkpoints[-1].lsn - 1)

    def truncate(self, up_to_lsn: int) -> int:
        """Discard stable records with ``lsn <= up_to_lsn`` (checkpointing).

        Returns the number of records discarded.
        """
        before = len(self._stable)
        self._stable = [r for r in self._stable if r.lsn > up_to_lsn]
        self._stable_by_kind = {}
        for record in self._stable:
            self._stable_by_kind.setdefault(record.kind,
                                            []).append(record)
        return before - len(self._stable)
