"""Design operations (DOPs) — the TE level's long ACID transactions.

"From the viewpoint of the DBMS or data repository, a DOP is an ACID
transaction.  Due to long duration, it is internally structured by
save/restore and suspend/resume facilities" (Sect.2).  A DOP processes
design object versions in three steps: checkout of the input versions,
tool processing of the loaded data, and checkin of the derived version.

This module holds the passive DOP object (identity, lifecycle state,
context, savepoints, accounting); the active behaviour lives in the
client/server transaction managers
(:mod:`repro.te.transaction_manager`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.te.context import DopContext, SavepointStack
from repro.te.recovery import CheckoutRecord, RecoveryPoint
from repro.util.errors import TransactionStateError


class DopState(str, Enum):
    """Lifecycle of a design operation."""

    CREATED = "created"      # Begin-of-DOP issued, no work yet
    ACTIVE = "active"        # processing
    SUSPENDED = "suspended"  # designer issued Suspend
    COMMITTED = "committed"  # End-of-DOP with commit
    ABORTED = "aborted"      # End-of-DOP with abort


#: state -> operations legal in it (guarding the TM entry points)
_ALLOWED: dict[DopState, frozenset[str]] = {
    DopState.CREATED: frozenset({"activate", "abort"}),
    DopState.ACTIVE: frozenset({"checkout", "work", "save", "restore",
                                "suspend", "checkin", "commit", "abort"}),
    DopState.SUSPENDED: frozenset({"resume", "abort"}),
    DopState.COMMITTED: frozenset(),
    DopState.ABORTED: frozenset(),
}


@dataclass
class DesignOperation:
    """One tool execution as a long-duration transaction.

    Attributes
    ----------
    dop_id / da_id / workstation:
        Identity and placement ("a DA is running on a single
        workstation ... all actions executed within a DA are managed
        and executed on that workstation too", Sect.5.1).
    tool:
        Name of the design tool this DOP runs (e.g. ``chip_planner``).
    start_params:
        The Begin-of-DOP parameters handed over by the DM.
    context / savepoints:
        Volatile working state; lost on workstation crash, rebuilt from
        the latest recovery point.
    """

    dop_id: str
    da_id: str
    workstation: str
    tool: str
    start_params: dict[str, Any] = field(default_factory=dict)
    state: DopState = DopState.CREATED
    context: DopContext = field(default_factory=DopContext)
    savepoints: SavepointStack = field(default_factory=SavepointStack)
    started_at: float = 0.0
    finished_at: float | None = None
    #: id of the DOV produced by a successful checkin
    output_dov: str | None = None
    #: DOV ids read via checkout (inputs; also logged by the DM)
    input_dovs: list[str] = field(default_factory=list)
    #: simulated work invested since the last recovery point
    work_since_recovery_point: float = 0.0
    #: the stored recovery point the next checkout record may build
    #: on; None while the next point has to be a full image: no point
    #: yet, the context was rebuilt from storage, or a tool has changed
    #: it since.  Volatile like the rest — set where a point is taken,
    #: never read back from stable storage.
    delta_base: RecoveryPoint | CheckoutRecord | None = field(
        default=None, repr=False, compare=False)

    def require(self, operation: str) -> None:
        """Guard: raise unless *operation* is legal in the current state."""
        if operation not in _ALLOWED[self.state]:
            raise TransactionStateError(
                f"DOP {self.dop_id!r}: operation {operation!r} illegal in "
                f"state {self.state.value!r}")

    def transition(self, new_state: DopState) -> None:
        """Move to *new_state* (no checks — callers use :meth:`require`)."""
        self.state = new_state

