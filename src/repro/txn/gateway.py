"""The commit gateway: one drive for every commit shape.

Before this layer existed, every commit path re-implemented its own
slice of the protocol: write-through checkin stashed a request, posted
an upload and ran a 2PC; the write-back flush stashed a *group*
request, posted a batch and ran another 2PC; the federation batched
per member with no decision at all.  :class:`CommitGateway` extracts
the client side of the drive — txn-id allocation, sized payload
shipment and the one control RPC — so the transaction managers stay
thin: the client-TM collects, the server-TM stages and applies.

Every TE checkin has one participant, the server-TM, so it commits in
one exchange ([SBCM93]'s one-phase commit for a sole participant, the
"optimization alternatives" Sect.6 points at): the request carries the
record list and the reply carries the decision, which the participant
takes itself (:meth:`~repro.te.transaction_manager.ServerTM.checkin`).
The payload bytes ship first, as their own sized message, so they are
filed before the invalidations the commit raises.  A checkin costs
three messages: the upload, the request and the reply.  Its outcome
names :attr:`~repro.net.two_phase_commit.CommitProtocol.ONE_PHASE`
and counts the two control messages and the repository's one forced
WAL write; the two-phase variants stay in
:mod:`repro.net.two_phase_commit`, where T3 compares them with it.

Commit shapes:

* :meth:`CommitGateway.single_checkin` — one write-through checkin
  (one sized upload, one control RPC);
* :meth:`CommitGateway.group_checkin` — one workstation's write-back
  flush: its dirty set ships as one sized batch message and the
  server stages it as *one* batch under *one* decision and *one*
  forced WAL write (:meth:`~repro.te.transaction_manager.ClientTM.flush`
  drives it).

The third shape lives one layer down: a **cross-member federation
batch** (:meth:`~repro.repository.federation.FederatedRepository.commit_group`)
has several participants and runs a prepare/decide/complete skeleton
with the :class:`~repro.txn.decision_log.GlobalDecisionLog` as its
decision point — homes resolved O(batch) through the staged-home map,
the decision forced in one coordinator-side write, and the log kept
bounded by the checkpoint frontier
(:meth:`~repro.txn.decision_log.GlobalDecisionLog.checkpoint`), so
the shape survives member *and* coordinator loss without ever
replaying history past the frontier.

A server that crashes after its forced write but before it replies
leaves the checkin committed while the workstation sees the reply's
:class:`~repro.util.errors.RpcError` ("reply ... lost"): the in-doubt
case of one-phase commit, stated in ``docs/coherence.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.net.rpc import TransactionalRpc
from repro.net.two_phase_commit import CommitOutcome, CommitProtocol, Decision
from repro.repository.versions import payload_sizeof
from repro.util.ids import IdGenerator

_COMMIT = Decision.COMMIT
_ABORT = Decision.ABORT
_ONE_PHASE = CommitProtocol.ONE_PHASE


class CheckinRecord(NamedTuple):
    """One checkin of a request, as the server-TM stages it: a tuple,
    built in one allocation.

    A write-through checkin sends one whose ``provisional_id`` is the
    transaction id; a write-back flush sends its dirty entries' in
    checkin order, where a parent may name an earlier record's
    provisional id."""

    provisional_id: str
    da_id: str
    dot_name: str
    #: the frozen payload the durable version adopts
    data: Any
    parents: list[str]
    #: the write-back DOP that made it (None for write-through)
    dop_id: str | None = None


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
    """Delivery of an upload: the server stages from the records the
    control RPC carries, so the bytes only cost their transport."""


class CommitGateway:
    """Drives the commit protocol from one workstation.

    Each client-TM owns a gateway anchored at its workstation.
    """

    def __init__(self, rpc: TransactionalRpc, server_tm: Any,
                 node_id: str,
                 ids: IdGenerator | None = None) -> None:
        self.rpc = rpc
        self.node_id = node_id
        self.ids = ids or IdGenerator()
        #: the id prefix of this workstation's transactions
        self._txn_prefix = f"txn-{node_id}"
        #: the sole participant's node and its id
        self._server_node = server_tm.node
        self._server_id = server_id = server_tm.node_id
        network = rpc.network
        #: the transport latency of one exchange: request and reply
        self._round_trip = 2 * (
            network.local_latency if node_id == server_id
            else network.lan_latency)
        #: reentrancy guard of :meth:`group_checkin`: a flush's own
        #: commit schedules invalidations that could recall the flush
        #: mid-flight
        self.flushing = False

    def _outcome(self, txn_id: str, reply: Any) -> CommitOutcome:
        """The one-phase outcome of *txn_id*: two control messages, and
        the repository's one forced write when *reply* commits; a
        refusal (a reason string) forces nothing, and the server is its
        NO voter."""
        if reply.__class__ is str:
            return tuple.__new__(CommitOutcome, (
                txn_id, _ABORT, _ONE_PHASE, 2, 0, self._round_trip, (),
                (self._server_id,)))
        return tuple.__new__(CommitOutcome, (
            txn_id, _COMMIT, _ONE_PHASE, 2, 1, self._round_trip, (), ()))

    # -- single checkin (write-through) -------------------------------------

    def single_checkin(self, da_id: str, dot_name: str,
                       payload: dict[str, Any], lineage: list[str],
                       lease: bool = False,
                       renew: bool = False) -> SingleCommitResult:
        """One write-through checkin: sized upload, then one control
        RPC that commits it — a record list of one whose
        ``provisional_id`` is the transaction id.

        With ``renew=True`` the control RPC carries the workstation's
        lease-renewal metadata (piggybacked — no dedicated renewal
        message).  A down server is refused with the call's
        :class:`~repro.util.errors.RpcError` before anything ships.
        """
        txn_id = self.ids.next(self._txn_prefix)
        node_id = self.node_id
        server_id = self._server_id
        rpc = self.rpc
        if not self._server_node.up:
            rpc.require_reachable(node_id, server_id, "checkin")
        # the derived data ships workstation -> server first (the
        # checkin direction of the data-shipping path; the RPC is
        # control), so it is filed before the commit's invalidations
        rpc.network.post(node_id, server_id, _arrived,
                         f"dov-upload:{txn_id}", payload_sizeof(payload))
        record = tuple.__new__(CheckinRecord, (
            txn_id, da_id, dot_name, payload, lineage, None))
        reply = rpc.call(node_id, server_id, "checkin", txn_id, [record],
                         node_id, lease, renew)
        outcome = self._outcome(txn_id, reply)
        if reply.__class__ is str:
            return SingleCommitResult(outcome, False, reason=reply)
        return tuple.__new__(SingleCommitResult,
                             (outcome, True, reply[1][0], ""))

    # -- group checkin (write-back flush) ----------------------------------

    def group_checkin(self, records: list[CheckinRecord],
                      sizes: list[int],
                      renew: bool = False) -> GroupCommitResult:
        """Commit one workstation's deferred checkins as ONE decision.

        One sized batch message carries the payloads, one control RPC
        carries the record list, and the server stages the whole batch
        all-or-nothing and commits it — so the repository forces its
        WAL exactly once per flush.  The committed versions are leased
        to this workstation.  While the drive runs, :attr:`flushing`
        is set: a recall that the commit's own invalidations raise
        does not start a second flush.
        """
        txn_id = self.ids.next(self._txn_prefix)
        node_id = self.node_id
        server_id = self._server_id
        rpc = self.rpc
        if not self._server_node.up:
            rpc.require_reachable(node_id, server_id, "checkin")
        self.flushing = True
        try:
            rpc.network.post_batch(node_id, server_id, _arrived, sizes,
                                   f"group-checkin:{txn_id}")
            reply = rpc.call(node_id, server_id, "checkin", txn_id,
                             records, node_id, True, renew)
        finally:
            self.flushing = False
        if reply.__class__ is str:
            return GroupCommitResult(self._outcome(txn_id, reply),
                                     reason=reply)
        mapping, dovs = reply
        return GroupCommitResult(self._outcome(txn_id, reply),
                                 mapping=mapping, dovs=dovs)
