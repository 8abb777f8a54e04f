"""The unified transaction-coordinator layer (``repro.txn``).

Every commit shape of the reproduction — a single write-through
checkin, a per-workstation write-back group flush, a cross-workstation
group commit, and a cross-member federation batch — runs the same
prepare/decide/complete protocol.  This package owns that protocol:

* :mod:`repro.txn.gateway` — the client-side
  :class:`~repro.txn.gateway.CommitGateway` that drives every commit
  shape over the simulated LAN (txn ids, request stashing, sized
  payload shipment, the 2PC itself) plus
  :func:`~repro.txn.gateway.flush_group`, the one flush driver (one
  client-TM's dirty set, or several under one coordinator and one
  decision — the cross-workstation group commit);
* :mod:`repro.txn.decision_log` — the durable
  :class:`~repro.txn.decision_log.GlobalDecisionLog` that makes
  cross-member federation batches atomic under presumed-abort
  recovery (the paper Sect.6's distributed-commit direction);
* :mod:`repro.txn.leases` — the
  :class:`~repro.txn.leases.LeaseTable` of the data-shipping
  protocol, grown with TTL renewal leases driven by kernel timer
  events (expiry behaves like a recall; renewal is a metadata-only
  message).

The TE-level transaction managers and the federated repository are
thin participants of this layer: they validate, stage and apply —
the decision belongs here.
"""

from repro.txn.decision_log import GlobalDecisionLog
from repro.txn.gateway import (
    CommitGateway,
    GroupCommitResult,
    GroupFlushReport,
    GroupRequest,
    SingleCommitResult,
    flush_group,
)
from repro.txn.leases import Lease, LeaseTable

__all__ = [
    "CommitGateway",
    "GlobalDecisionLog",
    "GroupCommitResult",
    "GroupFlushReport",
    "GroupRequest",
    "Lease",
    "LeaseTable",
    "SingleCommitResult",
    "flush_group",
]
