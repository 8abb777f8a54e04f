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
* :meth:`CommitGateway.group_checkin` — a batched group checkin.  With
  one :class:`GroupRequest` this is the per-workstation write-back
  flush; with several it is the **cross-workstation group commit**:
  every workstation posts its own sized batch message, but the
  combined record list is staged as *one* server batch under *one*
  coordinator, *one* decision and *one* forced WAL write.
* :func:`flush_group` — the one flush driver: collect the dirty sets
  of one client-TM (:meth:`~repro.te.transaction_manager.ClientTM.flush`)
  or several and commit them under one decision, then hand each
  client its slice of the id mapping.

The fourth shape lives one layer down: a **cross-member federation
batch** (:meth:`~repro.repository.federation.FederatedRepository.commit_group`)
runs the same prepare/decide/complete skeleton with the
:class:`~repro.txn.decision_log.GlobalDecisionLog` as its decision
point — homes resolved O(batch) through the placement index, the
decision forced in one coordinator-side write, and the log kept
bounded by the checkpoint frontier
(:meth:`~repro.txn.decision_log.GlobalDecisionLog.checkpoint`), so
the shape survives member *and* coordinator loss without ever
replaying history past the frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.net.rpc import TransactionalRpc
from repro.net.two_phase_commit import CommitOutcome, TwoPhaseCoordinator
from repro.repository.versions import payload_sizeof
from repro.util.ids import IdGenerator


@dataclass
class GroupRequest:
    """One workstation's slice of a group commit."""

    workstation: str
    #: deferred checkin records in that workstation's checkin order
    records: list[dict[str, Any]]
    #: modelled payload bytes per record (the batch-message sizes)
    sizes: list[int]


@dataclass
class SingleCommitResult:
    """Outcome of one write-through checkin drive."""

    outcome: CommitOutcome
    dov: Any = None
    reason: str = ""

    @property
    def committed(self) -> bool:
        """True when the decision was COMMIT."""
        return self.outcome.committed


@dataclass
class GroupCommitResult:
    """Outcome of one group-commit drive (single- or cross-shape)."""

    outcome: CommitOutcome
    #: provisional id -> durable id, across every request
    mapping: dict[str, str] = field(default_factory=dict)
    #: the durable versions in batch order
    dovs: list[Any] = field(default_factory=list)
    reason: str = ""

    @property
    def committed(self) -> bool:
        """True when the decision was COMMIT."""
        return self.outcome.committed


@dataclass
class GroupFlushReport:
    """What :func:`flush_group` did, across every participating client."""

    success: bool
    #: checkins shipped under the one decision (all workstations)
    count: int = 0
    #: payload bytes the cross-workstation batch messages carried
    bytes_shipped: int = 0
    #: workstations that contributed dirty records, in client order
    workstations: list[str] = field(default_factory=list)
    #: provisional id -> durable id across every contributor
    mapping: dict[str, str] = field(default_factory=dict)
    reason: str = ""
    outcome: CommitOutcome | None = None


class CommitGateway:
    """Drives the commit protocol from one coordinator node.

    Each client-TM owns a gateway anchored at its workstation; the
    cross-workstation shape reuses the first contributor's gateway as
    the single coordinator of the shared decision.
    """

    def __init__(self, rpc: TransactionalRpc, server_tm: Any,
                 node_id: str,
                 ids: IdGenerator | None = None) -> None:
        self.rpc = rpc
        self.server_tm = server_tm
        self.node_id = node_id
        self.ids = ids or IdGenerator()
        self.coordinator = TwoPhaseCoordinator(rpc.network, node_id)
        #: reentrancy guard of :func:`flush_group`: a flush's own
        #: commit schedules invalidations that could recall the flush
        #: mid-flight
        self.flushing = False

    def next_txn_id(self) -> str:
        """Allocate the next transaction id of this coordinator."""
        return self.ids.next(f"txn-{self.node_id}")

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
        txn_id = self.next_txn_id()
        server = self.server_tm
        self.rpc.call(self.node_id, server.node_id,
                      "request_group_checkin", txn_id, [{
                          "provisional_id": txn_id,
                          "da_id": da_id,
                          "dot_name": dot_name,
                          "data": payload,
                          "parents": lineage,
                      }], workstation=self.node_id, lease=lease,
                      renew=renew)
        # the derived data ships workstation -> server (the checkin
        # direction of the data-shipping path; the RPC is control)
        self.rpc.network.post(
            self.node_id, server.node_id, lambda: None,
            label=f"dov-upload:{txn_id}", size=payload_sizeof(payload))
        outcome = self.coordinator.execute(txn_id, [server])
        txn = server.end_txn(txn_id)
        if not outcome.committed:
            return SingleCommitResult(
                outcome, reason=(txn and txn.error) or "2PC abort")
        return SingleCommitResult(outcome, dov=txn.dovs[0])

    # -- group checkin (per-workstation and cross-workstation) --------------

    def group_checkin(self, requests: Sequence[GroupRequest],
                      lease: bool = True,
                      renew: bool = False) -> GroupCommitResult:
        """Commit one or several workstations' batches as ONE decision.

        One control RPC carries the combined record list; each
        contributing workstation posts its own sized batch message
        (bytes stay attributed to their origin); the server stages the
        whole combined batch all-or-nothing and ONE 2PC decides it —
        so the repository forces its WAL exactly once for the entire
        cross-workstation group.  Records of a cross-shape batch are
        stamped with their origin workstation so the server grants the
        resulting read leases per contributor.
        """
        requests = [r for r in requests if r.records]
        if not requests:
            raise ValueError("group_checkin needs at least one "
                             "non-empty request")
        txn_id = self.next_txn_id()
        server = self.server_tm
        if len(requests) == 1:
            records = requests[0].records
        else:
            records = [dict(record, workstation=request.workstation)
                       for request in requests
                       for record in request.records]
        self.rpc.call(self.node_id, server.node_id,
                      "request_group_checkin", txn_id, records,
                      workstation=self.node_id, lease=lease,
                      renew=renew)
        for request in requests:
            # one sized batch message per contributing workstation
            self.rpc.network.post_batch(
                request.workstation, server.node_id, lambda: None,
                label=f"group-checkin:{txn_id}"
                      + (f":{request.workstation}"
                         if len(requests) > 1 else ""),
                sizes=request.sizes)
        outcome = self.coordinator.execute(txn_id, [server])
        txn = server.end_txn(txn_id)
        if not outcome.committed:
            return GroupCommitResult(
                outcome, reason=(txn and txn.error) or "2PC abort")
        return GroupCommitResult(outcome, mapping=txn.mapping,
                                 dovs=txn.dovs)


def flush_group(clients: Sequence[Any]) -> GroupFlushReport:
    """Ship the dirty sets of *clients* as one group checkin.

    The only flush driver: with one client this is the per-workstation
    write-back flush, with several the cross-workstation group commit
    — instead of each workstation flushing under its own coordinator
    (one 2PC and one forced WAL write apiece), the dirty sets ship
    under **one** coordinator — the first contributor's gateway, whose
    control RPC also carries that workstation's lease renewal when one
    is due — and **one** decision.  Every contributing workstation
    posts its own sized batch message (byte accounting per node is
    unchanged), but the server stages one combined batch and the
    repository forces its WAL once for all of them.  On commit each
    client rebinds its own provisional entries from its slice of the
    mapping; on abort every client keeps its dirty set intact for a
    later retry — the batch is all-or-nothing.

    Clients without a buffer, without write-back, without dirty
    entries, or already inside a flush (a recall raised by the flush's
    own commit) simply do not contribute; with no contributors at all
    the report is a trivial success.
    """
    active = [client for client in clients
              if client.write_back
              and client.buffer is not None
              and client.buffer.dirty_count
              and not client.gateway.flushing]
    if not active:
        return GroupFlushReport(True)
    requests: list[GroupRequest] = []
    try:
        for client in active:
            client.gateway.flushing = True
            records, sizes = client.collect_flush_records()
            requests.append(GroupRequest(client.workstation, records,
                                         sizes))
        result = active[0].gateway.group_checkin(
            requests, lease=True,
            renew=active[0].consume_renewal_window())
        count = sum(len(request.records) for request in requests)
        shipped = sum(sum(request.sizes) for request in requests)
        if not result.committed:
            for client, request in zip(active, requests):
                client.fail_flush(request.records, result.reason)
            return GroupFlushReport(
                False, count=count, bytes_shipped=shipped,
                workstations=[r.workstation for r in requests],
                reason=result.reason, outcome=result.outcome)
        for client, request in zip(active, requests):
            client.apply_flush_commit(request.records, request.sizes,
                                      result.mapping, result.dovs)
        return GroupFlushReport(
            True, count=count, bytes_shipped=shipped,
            workstations=[r.workstation for r in requests],
            mapping=dict(result.mapping), outcome=result.outcome)
    finally:
        for client in active:
            client.gateway.flushing = False
