"""Simulated LAN substrate: nodes, transactional RPC, and the two-phase
commit variants T3 compares with the one-phase checkin."""

from repro.net.network import Network, Node, NodeKind, StableStorage
from repro.net.rpc import TransactionalRpc
from repro.net.two_phase_commit import (
    CommitOutcome,
    CommitProtocol,
    Decision,
    TwoPhaseCoordinator,
    TwoPhaseParticipant,
    Vote,
)

__all__ = [
    "CommitOutcome",
    "CommitProtocol",
    "Decision",
    "Network",
    "Node",
    "NodeKind",
    "StableStorage",
    "TransactionalRpc",
    "TwoPhaseCoordinator",
    "TwoPhaseParticipant",
    "Vote",
]
