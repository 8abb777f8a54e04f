"""The unified transaction-coordinator layer (``repro.txn``).

Every commit shape of the reproduction — a single write-through
checkin, a per-workstation write-back group flush, and a cross-member
federation batch — stages, decides and completes.  A checkin has one
participant, the server-TM, which decides in one exchange (one-phase
commit); a federation batch has several and runs prepare/decide/
complete under a logged decision.  This package owns both drives:

* :mod:`repro.txn.gateway` — the client-side
  :class:`~repro.txn.gateway.CommitGateway` that drives both checkin
  shapes over the simulated LAN (txn ids, sized payload shipment, the
  one control RPC whose reply carries the outcome);
* :mod:`repro.txn.decision_log` — the durable
  :class:`~repro.txn.decision_log.GlobalDecisionLog` that makes
  cross-member federation batches atomic under presumed-abort
  recovery (the paper Sect.6's distributed-commit direction);
* :mod:`repro.txn.leases` — the
  :class:`~repro.txn.leases.LeaseTable` of the data-shipping
  protocol, grown with TTL renewal leases whose term both ends
  compute (expiry costs no timer and no message; renewal is a
  metadata-only message).

The TE-level transaction managers and the federated repository are
thin participants of this layer: they validate, stage and apply.  A
federation batch's decision belongs here; a checkin's sole
participant takes its own.
"""

from repro.txn.gateway import (
    CommitGateway,
    GroupCommitResult,
    SingleCommitResult,
)
from repro.txn.leases import Lease, LeaseTable

__all__ = [
    "CommitGateway",
    "GroupCommitResult",
    "Lease",
    "LeaseTable",
    "SingleCommitResult",
]
