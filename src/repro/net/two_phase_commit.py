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

Experiment T3 measures the message and forced-log-write counts of each
variant; the class therefore returns a detailed :class:`CommitOutcome`
per transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Protocol, Sequence

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
    """Which 2PC variant the coordinator runs."""

    BASIC = "basic"
    PRESUMED_ABORT = "presumed_abort"


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


@dataclass
class CommitOutcome:
    """Everything T3 needs to know about one protocol run."""

    txn_id: str
    decision: Decision
    protocol: CommitProtocol
    messages: int = 0
    forced_log_writes: int = 0
    latency: float = 0.0
    #: participants that used the read-only optimisation
    read_only_participants: list[str] = field(default_factory=list)
    #: participants that voted NO (empty on commit)
    no_voters: list[str] = field(default_factory=list)

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

    # -- durable decision log -------------------------------------------------

    @staticmethod
    def _decision_key(txn_id: str) -> str:
        # one record per decision: logging the n-th decision writes one
        # string, whatever the log already holds
        return f"2pc-decisions:{txn_id}"

    def _log_decision(self, txn_id: str, decision: Decision,
                      outcome: CommitOutcome, forced: bool) -> None:
        node = self.network.node(self.node_id)
        node.stable.put(self._decision_key(txn_id), decision.value)
        if forced:
            outcome.forced_log_writes += 1

    # -- the protocol -----------------------------------------------------------

    def execute(self, txn_id: str,
                participants: Sequence[TwoPhaseParticipant]) -> CommitOutcome:
        """Run 2PC for *txn_id* across *participants*.

        Returns a :class:`CommitOutcome`; a NO vote or an unreachable
        participant yields an ABORT outcome (never an exception), so
        callers treat abort as a normal result, as the paper's
        commit/abort discussion does.
        """
        outcome = CommitOutcome(txn_id, Decision.ABORT, self.protocol)

        # ---- phase 1: prepare ------------------------------------------------
        votes: list[tuple[TwoPhaseParticipant, Vote]] = []
        all_yes = True
        for part in participants:
            try:
                outcome.latency += self.network.send(self.node_id,
                                                     part.node_id)
                vote = part.prepare(txn_id)
                outcome.latency += self.network.send(part.node_id,
                                                     self.node_id)
                outcome.messages += 2
            except NodeDownError:
                vote = Vote.NO
                outcome.messages += 1  # the unanswered request
            if vote is Vote.YES:
                # a YES vote requires a forced prepare record
                outcome.forced_log_writes += 1
            elif vote is Vote.READ_ONLY and self.read_only_optimisation:
                outcome.read_only_participants.append(part.node_id)
            elif vote is Vote.READ_ONLY:
                # optimisation disabled: treat as a plain YES participant
                outcome.forced_log_writes += 1
                vote = Vote.YES
            else:
                all_yes = False
                outcome.no_voters.append(part.node_id)
            votes.append((part, vote))

        decision = Decision.COMMIT if all_yes else Decision.ABORT
        outcome.decision = decision

        # ---- coordinator decision record --------------------------------------
        if decision is Decision.COMMIT:
            self._log_decision(txn_id, decision, outcome, forced=True)
        elif self.protocol is CommitProtocol.BASIC:
            self._log_decision(txn_id, decision, outcome, forced=True)
        # presumed abort: an abort is not logged at all

        # ---- phase 2: decide --------------------------------------------------
        ack_needed = (decision is Decision.COMMIT
                      or self.protocol is CommitProtocol.BASIC)
        for part, vote in votes:
            if vote is Vote.READ_ONLY and self.read_only_optimisation:
                continue  # dropped out after phase 1
            if vote is Vote.NO:
                continue  # already aborted locally when voting no
            try:
                outcome.latency += self.network.send(self.node_id,
                                                     part.node_id)
                outcome.messages += 1
                if decision is Decision.COMMIT:
                    part.commit(txn_id)
                    outcome.forced_log_writes += 1  # participant decision rec
                else:
                    part.abort(txn_id)
                    if self.protocol is CommitProtocol.BASIC:
                        outcome.forced_log_writes += 1
                if ack_needed:
                    outcome.latency += self.network.send(part.node_id,
                                                         self.node_id)
                    outcome.messages += 1
            except NodeDownError:
                # the participant resolves the in-doubt txn at restart
                # from the logged decision; nothing more to do now.
                continue
        return outcome
