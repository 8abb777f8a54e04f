"""The global decision log of the federated atomic commit.

The paper's Sect.6 assumes "heterogeneous and distributed data
management does not influence the major model of operation" — but a
federation whose ``commit_group`` is atomic only *per member* breaks
exactly that promise when a member crashes mid-batch.  The missing
piece is the classic one: a durable, coordinator-side **decision log**.

:class:`GlobalDecisionLog` records the COMMIT decision of a
cross-member batch — together with its *manifest* (which member owns
which staged versions) — in **one forced log write** before any member
is told to commit.  The protocol is presumed abort:

* a logged decision *is* the commit point — members that crash after
  it redo their portion from their own forced prepare records when
  they recover;
* a missing decision *means* abort — a member that finds a prepared
  but undecided batch at restart discards it, no abort record needed.

Completion records (all members applied the decision) are appended
un-forced: losing one merely makes recovery re-examine a batch whose
redo is idempotent.

Checkpoint/truncation (the bounded-log story): a coordinator that
serves millions of batches cannot keep every decision forever.
:meth:`GlobalDecisionLog.checkpoint` — taken every
:data:`CHECKPOINT_WINDOW` completed batches — advances a **stable
frontier**: every decision whose batch is fully completed is forgotten
— from memory *and* from the log, whose
:meth:`~repro.repository.wal.WriteAheadLog.checkpoint` replaces every
record with one carrying the still-live (incomplete) decisions.  The
frontier rule that makes forgetting safe: a
batch is only marked complete once every manifest member has durably
applied it, and a durably-applied portion can never come back
in-doubt (the member's own log answers it locally), so no recovering
member will ever ask about a forgotten decision.  Presumed abort then
gives the right answer *by construction* for everything behind the
frontier.
"""

from __future__ import annotations

from typing import Callable

from repro.repository.versions import FrozenDict, freeze_payload
from repro.repository.wal import LogRecordKind, WriteAheadLog
from repro.txn.gateway import Decision

#: completed batches between two checkpoints: the log holds the
#: incomplete set plus at most one window, however many batches ever
#: committed
CHECKPOINT_WINDOW = 64


class GlobalDecisionLog:
    """Durable commit decisions for cross-member batches (presumed abort).

    The log is coordinator-side stable storage: its forced records
    survive any member crash (and whole-site recovery rebuilds the
    in-memory maps from them via :meth:`recover`).
    """

    def __init__(self) -> None:
        self.wal = WriteAheadLog("global-decision-log")
        #: gtxn id -> {member: [dov ids]} batch manifest of every
        #: retained decision, in log order (COMMIT only: presumed
        #: abort) — frozen once: the log's record, this map and every
        #: reader share it
        self._manifests: dict[str, FrozenDict] = {}
        #: gtxn ids every member has completed
        self._completed: set[str] = set()
        #: decided-but-not-completed gtxn ids in log order — maintained
        #: O(1) per transition instead of re-scanned per query
        self._incomplete: dict[str, None] = {}
        #: checkpoints taken (each truncates the log behind it)
        self.truncations = 0
        #: completed decisions forgotten past checkpoint frontiers
        self.forgotten_decisions = 0
        #: fired *after* the decision record is durable and *before*
        #: any participant is notified — the exact window the T10
        #: crash-injection (and the coordinator-crash test) target
        self.on_decision: Callable[[str, dict[str, list[str]]],
                                   None] | None = None

    # -- writing ------------------------------------------------------------

    def record(self, gtxn_id: str,
               manifest: dict[str, list[str]]) -> None:
        """Durably log the COMMIT decision for *gtxn_id* (one force).

        This is the commit point of a cross-member batch: after this
        returns, the batch **will** become durable at every manifest
        member — immediately, or at member recovery via redo.
        """
        if gtxn_id in self._manifests:
            return  # idempotent: the decision is already durable
        manifest = freeze_payload(manifest)
        self.wal.append(LogRecordKind.GLOBAL_DECISION, {
            "gtxn": gtxn_id,
            "decision": Decision.COMMIT.value,
            "manifest": manifest,
        }, force=True)
        self._decide(gtxn_id, manifest)
        if self.on_decision is not None:
            self.on_decision(gtxn_id, manifest)

    def _decide(self, gtxn_id: str, manifest: FrozenDict) -> None:
        self._manifests[gtxn_id] = manifest
        self._incomplete[gtxn_id] = None

    def mark_complete(self, gtxn_id: str) -> None:
        """Every member applied the decision (un-forced end record)."""
        if gtxn_id in self._completed:
            return
        self.wal.append(LogRecordKind.GLOBAL_DECISION,
                        {"gtxn": gtxn_id, "complete": True}, force=False)
        self._completed.add(gtxn_id)
        self._incomplete.pop(gtxn_id, None)
        if len(self._completed) >= CHECKPOINT_WINDOW:
            self.checkpoint()

    def checkpoint(self) -> dict[str, int]:
        """Advance the frontier: forget every fully-completed batch.

        The log's checkpoint carries the still-live (incomplete)
        decisions — everything recovery could ever be asked about —
        and the completed decisions leave memory.  Safe by the
        frontier rule (module docstring): completed batches are
        durable at every manifest member, so presumed abort never
        gives a wrong answer for a forgotten gtxn.

        Returns ``{"live": .., "forgotten": .., "truncated": ..}``.
        """
        live = FrozenDict((gtxn_id, self._manifests[gtxn_id])
                          for gtxn_id in self._incomplete)
        truncated = self.wal.checkpoint({"live": live})
        forgotten = 0
        for gtxn_id in list(self._manifests):
            if gtxn_id not in self._incomplete:
                del self._manifests[gtxn_id]
                self._completed.discard(gtxn_id)
                forgotten += 1
        self.truncations += 1
        self.forgotten_decisions += forgotten
        return {"live": len(live), "forgotten": forgotten,
                "truncated": truncated}

    # -- reading ------------------------------------------------------------

    def resolve(self, gtxn_id: str) -> Decision:
        """Answer a recovering member's in-doubt query (presumed abort):
        a missing decision record *means* the batch aborted."""
        return Decision.COMMIT if gtxn_id in self._manifests \
            else Decision.ABORT

    def manifest(self, gtxn_id: str) -> dict[str, list[str]]:
        """The batch manifest of a logged decision (member -> dov ids),
        read-only; empty when nothing was recorded."""
        return self._manifests.get(gtxn_id) or FrozenDict()

    def decisions(self) -> list[str]:
        """Every retained COMMIT decision, in log order (a stable
        copy; decisions behind the checkpoint frontier are gone)."""
        return list(self._manifests)

    def incomplete(self) -> list[str]:
        """Logged COMMIT decisions not yet marked complete, in log
        order — the recovery work list after a coordinator crash.
        A stable copy of the maintained incomplete-set: O(incomplete),
        not O(all decisions ever logged)."""
        return list(self._incomplete)

    # -- recovery -----------------------------------------------------------

    def crash(self) -> int:
        """Coordinator crash: the in-memory maps and the un-forced log
        tail vanish; forced decision records survive.  Returns the
        number of tail records lost."""
        lost = self.wal.crash()
        self._manifests.clear()
        self._completed.clear()
        self._incomplete.clear()
        return lost

    def recover(self) -> int:
        """Rebuild the in-memory maps from the stable log records.

        The last checkpoint's ``live`` set *is* the log's state at
        that frontier; the decision/completion records past it are
        applied on top.  Returns the number of decisions recovered.
        The unforced tail (completion records of batches finished just
        before a crash) is gone — harmless, redo is idempotent.
        """
        self._manifests.clear()
        self._completed.clear()
        self._incomplete.clear()
        for record in self.wal.since_checkpoint():
            payload = record.payload
            if record.kind is LogRecordKind.CHECKPOINT:
                for gtxn_id, manifest in payload["live"].items():
                    self._decide(gtxn_id, manifest)
            elif payload.get("complete"):
                self._completed.add(payload["gtxn"])
                self._incomplete.pop(payload["gtxn"], None)
            else:
                self._decide(payload["gtxn"], payload["manifest"])
        return len(self._manifests)
