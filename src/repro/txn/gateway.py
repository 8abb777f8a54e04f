"""The commit gateway: one drive for every commit shape.

Before this layer existed, every commit path re-implemented its own
slice of the protocol: write-through checkin stashed a request, posted
an upload and ran a 2PC; the write-back flush stashed a *group*
request, posted a batch and ran another 2PC; the federation batched
per member with no decision at all.  :class:`CommitGateway` extracts
the shared drive — txn-id allocation, request stashing over the
control RPC, sized payload shipment, and the prepare/decide/complete
run of the :class:`~repro.net.two_phase_commit.TwoPhaseCoordinator` —
so the transaction managers are thin participants: they validate,
stage and apply; the *decision* happens here.

Commit shapes:

* :meth:`CommitGateway.single_checkin` — one write-through checkin
  (one control RPC, one sized upload, one 2PC);
* :meth:`CommitGateway.group_checkin` — one workstation's write-back
  flush: its dirty set ships as one sized batch message and the
  server stages it as *one* batch under *one* decision and *one*
  forced WAL write (:meth:`~repro.te.transaction_manager.ClientTM.flush`
  drives it).

The third shape lives one layer down: a **cross-member federation
batch** (:meth:`~repro.repository.federation.FederatedRepository.commit_group`)
runs the same prepare/decide/complete skeleton with the
:class:`~repro.txn.decision_log.GlobalDecisionLog` as its decision
point — homes resolved O(batch) through the staged-home map, the
decision forced in one coordinator-side write, and the log kept
bounded by the checkpoint frontier
(:meth:`~repro.txn.decision_log.GlobalDecisionLog.checkpoint`), so
the shape survives member *and* coordinator loss without ever
replaying history past the frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.net.rpc import TransactionalRpc
from repro.net.two_phase_commit import CommitOutcome, TwoPhaseCoordinator
from repro.repository.versions import payload_sizeof
from repro.util.ids import IdGenerator


class SingleCommitResult(NamedTuple):
    """Outcome of one write-through checkin drive: a tuple, built in
    one allocation."""

    outcome: CommitOutcome
    #: True when the decision was COMMIT
    committed: bool
    dov: Any = None
    reason: str = ""


@dataclass
class GroupCommitResult:
    """Outcome of one group-checkin drive."""

    outcome: CommitOutcome
    #: provisional id -> durable id
    mapping: dict[str, str] = field(default_factory=dict)
    #: the durable versions in batch order
    dovs: list[Any] = field(default_factory=list)
    reason: str = ""

    @property
    def committed(self) -> bool:
        """True when the decision was COMMIT."""
        return self.outcome.committed


def _arrived() -> None:
    """Delivery of an upload: the server stages from the request the
    control RPC stashed, so the bytes only cost their transport."""


class CommitGateway:
    """Drives the commit protocol from one coordinator node.

    Each client-TM owns a gateway anchored at its workstation.
    """

    def __init__(self, rpc: TransactionalRpc, server_tm: Any,
                 node_id: str,
                 ids: IdGenerator | None = None) -> None:
        self.rpc = rpc
        self.server_tm = server_tm
        self.node_id = node_id
        self.ids = ids or IdGenerator()
        self.coordinator = TwoPhaseCoordinator(rpc.network, node_id)
        #: the id prefix of this coordinator's transactions
        self._txn_prefix = f"txn-{node_id}"
        #: reentrancy guard of :meth:`group_checkin`: a flush's own
        #: commit schedules invalidations that could recall the flush
        #: mid-flight
        self.flushing = False

    # -- single checkin (write-through) -------------------------------------

    def single_checkin(self, da_id: str, dot_name: str,
                       payload: dict[str, Any], lineage: list[str],
                       lease: bool = False,
                       renew: bool = False) -> SingleCommitResult:
        """One write-through checkin: control RPC, sized upload, 2PC.

        With ``renew=True`` the control RPC carries the coordinator
        workstation's lease-renewal metadata (piggybacked — no
        dedicated renewal message).
        """
        txn_id = self.ids.next(self._txn_prefix)
        node_id = self.node_id
        server = self.server_tm
        rpc = self.rpc
        rpc.call(node_id, server.node_id,
                 "request_group_checkin", txn_id, [{
                     "provisional_id": txn_id,
                     "da_id": da_id,
                     "dot_name": dot_name,
                     "data": payload,
                     "parents": lineage,
                 }], workstation=node_id, lease=lease, renew=renew)
        # the derived data ships workstation -> server (the checkin
        # direction of the data-shipping path; the RPC is control)
        rpc.network.post(node_id, server.node_id, _arrived,
                         label=f"dov-upload:{txn_id}",
                         size=payload_sizeof(payload))
        outcome = self.coordinator.execute(txn_id, [server])
        txn = server.end_txn(txn_id)
        if not outcome.committed:
            return SingleCommitResult(
                outcome, False, reason=(txn and txn.error) or "2PC abort")
        return tuple.__new__(SingleCommitResult,
                             (outcome, True, txn.dovs[0], ""))

    # -- group checkin (write-back flush) ----------------------------------

    def group_checkin(self, records: list[dict[str, Any]],
                      sizes: list[int],
                      renew: bool = False) -> GroupCommitResult:
        """Commit one workstation's deferred checkins as ONE decision.

        One control RPC carries the record list, one sized batch
        message carries the payloads, the server stages the whole
        batch all-or-nothing and ONE 2PC decides it — so the
        repository forces its WAL exactly once per flush.  The
        committed versions are leased to this workstation.  While the
        drive runs, :attr:`flushing` is set: a recall that the
        commit's own invalidations raise does not start a second
        flush.
        """
        txn_id = self.ids.next(self._txn_prefix)
        server = self.server_tm
        self.flushing = True
        try:
            self.rpc.call(self.node_id, server.node_id,
                          "request_group_checkin", txn_id, records,
                          workstation=self.node_id, lease=True,
                          renew=renew)
            self.rpc.network.post_batch(
                self.node_id, server.node_id, _arrived,
                label=f"group-checkin:{txn_id}", sizes=sizes)
            outcome = self.coordinator.execute(txn_id, [server])
        finally:
            self.flushing = False
        txn = server.end_txn(txn_id)
        if not outcome.committed:
            return GroupCommitResult(
                outcome, reason=(txn and txn.error) or "2PC abort")
        return GroupCommitResult(outcome, mapping=txn.mapping,
                                 dovs=txn.dovs)
