"""Exception hierarchy shared by all CONCORD subsystems.

Every error raised by the library derives from :class:`ConcordError`, so
applications can catch library failures with a single ``except`` clause.
The sub-hierarchies mirror the architectural levels of the paper: the
repository (advanced DBMS), the TE level (transactions, recovery),
the DC level (scripts, rules, constraints) and the AC level (cooperation
protocol, DA lifecycle).
"""

from __future__ import annotations


class ConcordError(Exception):
    """Base class of all errors raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# Repository (design data repository / advanced DBMS substrate)
# ---------------------------------------------------------------------------

class RepositoryError(ConcordError):
    """Base class for design-data-repository failures."""


class SchemaError(RepositoryError):
    """A design object type (DOT) definition is invalid or violated."""


class IntegrityError(RepositoryError):
    """A DOV violates schema integrity constraints on checkin."""


class UnknownObjectError(RepositoryError):
    """A referenced DOV / DOT / derivation graph does not exist."""


class StorageError(RepositoryError):
    """The simulated persistent store failed (e.g. during a crash
    window) or refused a value (stable storage holds only immutable
    ones)."""


# ---------------------------------------------------------------------------
# TE level (transactions, recovery)
# ---------------------------------------------------------------------------

class TransactionError(ConcordError):
    """Base class for TE-level failures."""


class TransactionStateError(TransactionError):
    """An operation is illegal in the transaction's current state."""


class RecoveryError(TransactionError):
    """A recovery point / savepoint operation failed."""


class TwoPhaseCommitError(TransactionError):
    """The 2PC protocol aborted or could not complete."""


# ---------------------------------------------------------------------------
# Network substrate
# ---------------------------------------------------------------------------

class NetworkError(ConcordError):
    """Base class for simulated-network failures."""


class NodeDownError(NetworkError):
    """The destination node is crashed."""

    def __init__(self, node: str) -> None:
        super().__init__(f"node {node!r} is down")
        self.node = node


class RpcError(NetworkError):
    """A transactional RPC could not be completed."""


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------

class KernelError(ConcordError):
    """The discrete-event kernel could not complete a run (e.g. the
    event budget was exhausted before quiescence)."""


# ---------------------------------------------------------------------------
# DC level (workflow)
# ---------------------------------------------------------------------------

class WorkflowError(ConcordError):
    """Base class for DC-level failures."""


class ScriptError(WorkflowError):
    """A script definition is malformed."""


class ConstraintViolationError(WorkflowError):
    """A DOP sequence violates a domain ordering constraint."""


class RuleError(WorkflowError):
    """An ECA rule definition or firing failed."""


# ---------------------------------------------------------------------------
# AC level (cooperation)
# ---------------------------------------------------------------------------

class CooperationError(ConcordError):
    """Base class for AC-level failures."""


class IllegalTransitionError(CooperationError):
    """A DA operation is not permitted in the DA's current state (Fig.7)."""

    def __init__(self, message: str, state: str | None = None,
                 operation: str | None = None) -> None:
        super().__init__(message)
        self.state = state
        self.operation = operation


class ScopeViolationError(CooperationError):
    """A DA accessed a DOV outside its scope."""


class RelationshipError(CooperationError):
    """A cooperation operation used a missing/invalid relationship."""


class SpecificationError(CooperationError):
    """A design specification is invalid (e.g. not a legal refinement)."""


class NegotiationError(CooperationError):
    """A negotiation protocol step is illegal."""


class DelegationError(CooperationError):
    """A delegation is invalid (e.g. DOT not part of the super-DA's DOT)."""
