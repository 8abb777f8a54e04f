"""Two-phase commit with the optimisations the paper points at.

Sect.5.2 requires that "client-TM and server-TM have to accomplish a
two-phase-commit protocol for all their critical interactions", and the
conclusion proposes using "the (X/OPEN) two-phase-commit protocol and
its optimization alternatives [SBCM93]" for LAN communications.  This
module implements:

* the **basic** (presumed-nothing) protocol,
* **presumed abort** — no forced abort record, no acknowledgements on
  abort,
* the **read-only optimisation** — participants that did not write vote
  ``READ_ONLY`` and drop out of phase 2 entirely.

A transaction with one participant needs no coordinator at all:
[SBCM93]'s **one-phase commit** lets the sole participant decide, so
the request carries the work and the reply the outcome.  Every TE
checkin has exactly one participant, the server-TM, and commits that
way (:class:`~repro.txn.gateway.CommitGateway`,
:meth:`~repro.te.transaction_manager.ServerTM.checkin`); its outcome
names :attr:`CommitProtocol.ONE_PHASE`.  The coordinator here serves
the multi-participant comparison.

Experiment T3 measures the message and forced-log-write counts of each
variant, the one-phase checkin measured on the stack beside them; every
run returns a detailed :class:`CommitOutcome` per transaction.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Protocol, Sequence

from repro.net.network import Network
from repro.util.errors import NodeDownError


class Vote(str, Enum):
    """A participant's phase-1 answer."""

    YES = "yes"
    NO = "no"
    READ_ONLY = "read_only"


class Decision(str, Enum):
    """The coordinator's phase-2 decision."""

    COMMIT = "commit"
    ABORT = "abort"


class CommitProtocol(str, Enum):
    """Which commit protocol decided a transaction."""

    BASIC = "basic"
    PRESUMED_ABORT = "presumed_abort"
    #: a sole participant decides itself: no prepare round, no
    #: coordinator decision record (:mod:`repro.txn.gateway`)
    ONE_PHASE = "one_phase"


class TwoPhaseParticipant(Protocol):
    """Interface a resource manager exposes to the coordinator."""

    @property
    def node_id(self) -> str:
        """LAN node the participant lives on."""
        ...

    def prepare(self, txn_id: str) -> Vote:
        """Phase 1: persist enough to commit later; return a vote."""
        ...

    def commit(self, txn_id: str) -> None:
        """Phase 2: make the transaction's effects durable."""
        ...

    def abort(self, txn_id: str) -> None:
        """Phase 2: undo the transaction's effects."""
        ...


class CommitOutcome(NamedTuple):
    """Everything T3 needs to know about one protocol run: a tuple,
    built once when the run ends, whose fields cannot be reassigned."""

    txn_id: str
    decision: Decision
    protocol: CommitProtocol
    messages: int
    forced_log_writes: int
    latency: float
    #: participants that used the read-only optimisation
    read_only_participants: Sequence[str]
    #: participants that voted NO (empty on commit)
    no_voters: Sequence[str]

    @property
    def committed(self) -> bool:
        """True when the decision was COMMIT."""
        return self.decision is Decision.COMMIT


class TwoPhaseCoordinator:
    """Drives 2PC over the simulated LAN and accounts its costs."""

    def __init__(self, network: Network, coordinator_node: str,
                 protocol: CommitProtocol = CommitProtocol.PRESUMED_ABORT,
                 read_only_optimisation: bool = True) -> None:
        self.network = network
        self.node_id = coordinator_node
        self.protocol = protocol
        self.read_only_optimisation = read_only_optimisation

    # -- the protocol -----------------------------------------------------------

    def execute(self, txn_id: str,
                participants: Sequence[TwoPhaseParticipant]) -> CommitOutcome:
        """Run 2PC for *txn_id* across *participants*.

        Returns a :class:`CommitOutcome`; a NO vote or an unreachable
        participant yields an ABORT outcome (never an exception), so
        callers treat abort as a normal result, as the paper's
        commit/abort discussion does.
        """
        network = self.network
        coordinator = self.node_id
        basic = self.protocol is CommitProtocol.BASIC
        latency = 0.0
        messages = forced = 0
        read_only: list[str] = []
        no_voters: list[str] = []

        # ---- phase 1: prepare ------------------------------------------------
        # the participants phase 2 visits: every YES voter, in order
        voted: list[TwoPhaseParticipant] = []
        for part in participants:
            node_id = part.node_id
            try:
                latency += network.send(coordinator, node_id)
                vote = part.prepare(txn_id)
                latency += network.send(node_id, coordinator)
                messages += 2
            except NodeDownError:
                vote = Vote.NO
                messages += 1  # the unanswered request
            if vote is Vote.YES or (vote is Vote.READ_ONLY
                                    and not self.read_only_optimisation):
                # a YES vote requires a forced prepare record (with the
                # optimisation disabled a read-only participant is a
                # plain YES participant)
                forced += 1
                voted.append(part)
            elif vote is Vote.READ_ONLY:
                # drops out after phase 1
                read_only.append(node_id)
            else:
                # already aborted locally when voting no
                no_voters.append(node_id)

        commit = not no_voters

        # ---- coordinator decision record --------------------------------------
        # counted, not written, like the participants' records: nothing
        # reads a decision back; presumed abort logs no abort at all
        ack_needed = commit or basic
        if ack_needed:
            forced += 1

        # ---- phase 2: decide --------------------------------------------------
        for part in voted:
            try:
                latency += network.send(coordinator, part.node_id)
                messages += 1
                if commit:
                    part.commit(txn_id)
                    forced += 1  # participant decision record
                else:
                    part.abort(txn_id)
                    if basic:
                        forced += 1
                if ack_needed:
                    latency += network.send(part.node_id, coordinator)
                    messages += 1
            except NodeDownError:
                continue
        return tuple.__new__(CommitOutcome, (
            txn_id, Decision.COMMIT if commit else Decision.ABORT,
            self.protocol, messages, forced, latency, read_only, no_voters))
