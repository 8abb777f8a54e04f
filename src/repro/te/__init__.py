"""Tool Execution level: long ACID transactions (DOPs) and recovery.

Provides the TE-level concepts of the paper's Sect.4.3 and Sect.5.2:
design operations with checkout/checkin, save/restore, suspend/resume,
automatic recovery points, and the client-TM / server-TM pair — a
checkin commits in one exchange with its sole participant, and the
short locks of its and a checkout's critical section are counted
(:attr:`ServerTM.short_locks`), not tabled — wired, once, by
:class:`~repro.te.rig.TeRig`.  The scope locks of Sect.5.4 are the
cooperation manager's visibility registry (:mod:`repro.core`).
"""

from repro.te.context import ContextImage, DopContext, SavepointStack
from repro.te.dop import DesignOperation, DopState
from repro.te.object_buffer import BufferEntry, ObjectBuffer
from repro.te.recovery import (
    CheckoutRecord,
    RecoveryManager,
    RecoveryPoint,
)
from repro.te.rig import TeRig
from repro.te.transaction_manager import (
    CheckinResult,
    ClientTM,
    ServerTM,
    register_server_endpoints,
)

__all__ = [
    "BufferEntry",
    "CheckinResult",
    "CheckoutRecord",
    "ClientTM",
    "ContextImage",
    "DesignOperation",
    "ObjectBuffer",
    "DopContext",
    "DopState",
    "RecoveryManager",
    "RecoveryPoint",
    "SavepointStack",
    "ServerTM",
    "TeRig",
    "register_server_endpoints",
]
