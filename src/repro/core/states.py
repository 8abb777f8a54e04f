"""The DA lifecycle state machine (Fig.7).

"In order to enforce proper DA reactions, different states are
distinguished within the lifetime of a DA" (Sect.5.4):

* ``generated`` — initiated via a description vector, work not begun;
* ``active`` — performing design work;
* ``negotiating`` — internal processing suspended while negotiating;
* ``ready_for_termination`` — produced a final DOV (or reported an
  impossible specification) and awaits the super-DA's verdict;
* ``terminated`` — terminated by the super-DA, vanished from the
  hierarchy.

The transition table below encodes Fig.7's simplified state/transition
graph, including which of the 15 numbered operations are performed *by
a cooperating DA* (marked in the figure with an asterisk) — the CM uses
that flag to check who may issue what.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.util.errors import IllegalTransitionError


class DaState(str, Enum):
    """Lifecycle states of a design activity."""

    GENERATED = "generated"
    ACTIVE = "active"
    NEGOTIATING = "negotiating"
    READY_FOR_TERMINATION = "ready_for_termination"
    TERMINATED = "terminated"


class DaOperation(str, Enum):
    """The 15 operations of Fig.7, in the figure's numbering order."""

    INIT_DESIGN = "Init_Design"                            # 1
    CREATE_SUB_DA = "Create_Sub_DA"                        # 2
    START = "Start"                                        # 3
    MODIFY_SUB_DA_SPEC = "Modify_Sub_DA_Specification"     # 4 *
    SUB_DA_READY_TO_COMMIT = "Sub_DA_Ready_To_Commit"      # 5
    TERMINATE_SUB_DA = "Terminate_Sub_DA"                  # 6 *
    EVALUATE = "Evaluate"                                  # 7
    SUB_DA_IMPOSSIBLE_SPEC = "Sub_DA_Impossible_Specification"  # 8
    PROPAGATE = "Propagate"                                # 9
    REQUIRE = "Require"                                    # 10 *
    CREATE_NEGOTIATION_REL = "Create_Negotiation_Relationship"  # 11 *
    PROPOSE = "Propose"                                    # 12 *
    AGREE = "Agree"                                        # 13
    DISAGREE = "Disagree"                                  # 14
    SUB_DA_SPEC_CONFLICT = "Sub_DAs_Specification_Conflict"  # 15


#: operations performed *on* a DA by a cooperating DA (Fig.7 asterisks):
#: the super-DA modifies/terminates, peers require/propose, etc.
ISSUED_BY_COOPERATING_DA: frozenset[DaOperation] = frozenset({
    DaOperation.MODIFY_SUB_DA_SPEC,
    DaOperation.TERMINATE_SUB_DA,
    DaOperation.REQUIRE,
    DaOperation.CREATE_NEGOTIATION_REL,
    DaOperation.PROPOSE,
})

#: (current state, operation) -> next state.  Operations not listed for
#: a state are illegal in it.
_TRANSITIONS: dict[tuple[DaState, DaOperation], DaState] = {
    # creation: Init_Design / Create_Sub_DA put a *new* DA in GENERATED;
    # they are listed for completeness on the creating side (no state
    # change for an already-living DA performing Create_Sub_DA).
    (DaState.GENERATED, DaOperation.START): DaState.ACTIVE,
    (DaState.GENERATED, DaOperation.MODIFY_SUB_DA_SPEC): DaState.GENERATED,
    (DaState.GENERATED, DaOperation.TERMINATE_SUB_DA): DaState.TERMINATED,

    (DaState.ACTIVE, DaOperation.CREATE_SUB_DA): DaState.ACTIVE,
    (DaState.ACTIVE, DaOperation.EVALUATE): DaState.ACTIVE,
    (DaState.ACTIVE, DaOperation.PROPAGATE): DaState.ACTIVE,
    (DaState.ACTIVE, DaOperation.REQUIRE): DaState.ACTIVE,
    (DaState.ACTIVE, DaOperation.CREATE_NEGOTIATION_REL): DaState.ACTIVE,
    (DaState.ACTIVE, DaOperation.PROPOSE): DaState.NEGOTIATING,
    (DaState.ACTIVE, DaOperation.MODIFY_SUB_DA_SPEC): DaState.ACTIVE,
    (DaState.ACTIVE, DaOperation.SUB_DA_READY_TO_COMMIT):
        DaState.READY_FOR_TERMINATION,
    (DaState.ACTIVE, DaOperation.SUB_DA_IMPOSSIBLE_SPEC):
        DaState.READY_FOR_TERMINATION,
    (DaState.ACTIVE, DaOperation.TERMINATE_SUB_DA): DaState.TERMINATED,

    (DaState.NEGOTIATING, DaOperation.PROPOSE): DaState.NEGOTIATING,
    (DaState.NEGOTIATING, DaOperation.AGREE): DaState.ACTIVE,
    (DaState.NEGOTIATING, DaOperation.DISAGREE): DaState.NEGOTIATING,
    (DaState.NEGOTIATING, DaOperation.SUB_DA_SPEC_CONFLICT): DaState.ACTIVE,
    (DaState.NEGOTIATING, DaOperation.EVALUATE): DaState.NEGOTIATING,

    # "it should not do any more work until the super-DA has issued a
    # corresponding request": the super may modify the spec (back to
    # work) or terminate.
    (DaState.READY_FOR_TERMINATION, DaOperation.MODIFY_SUB_DA_SPEC):
        DaState.ACTIVE,
    (DaState.READY_FOR_TERMINATION, DaOperation.TERMINATE_SUB_DA):
        DaState.TERMINATED,
    (DaState.READY_FOR_TERMINATION, DaOperation.PROPAGATE):
        DaState.READY_FOR_TERMINATION,
}


@dataclass
class DaStateMachine:
    """Per-DA state holder enforcing the Fig.7 transitions."""

    da_id: str
    state: DaState = DaState.GENERATED
    #: (operation, from-state, to-state) history for experiment F7
    history: list[tuple[DaOperation, DaState, DaState]] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.history is None:
            self.history = []

    def can(self, operation: DaOperation) -> bool:
        """True when *operation* is legal in the current state."""
        return (self.state, operation) in _TRANSITIONS

    def check(self, operation: DaOperation) -> None:
        """Raise :class:`IllegalTransitionError` unless *operation* is
        legal in the current state; nothing moves."""
        if not self.can(operation):
            raise IllegalTransitionError(
                f"DA {self.da_id!r}: operation {operation.value!r} illegal "
                f"in state {self.state.value!r}",
                state=self.state.value, operation=operation.value)

    def apply(self, operation: DaOperation) -> DaState:
        """Perform a transition; raises :class:`IllegalTransitionError`."""
        self.check(operation)
        old = self.state
        self.state = _TRANSITIONS[old, operation]
        self.history.append((operation, old, self.state))
        return self.state


def legal_operations(state: DaState) -> list[DaOperation]:
    """All operations permitted in *state* (experiment F7 coverage)."""
    return [op for (s, op) in _TRANSITIONS if s is state]


def transition_table() -> dict[tuple[DaState, DaOperation], DaState]:
    """A copy of the full Fig.7 transition table."""
    return dict(_TRANSITIONS)
