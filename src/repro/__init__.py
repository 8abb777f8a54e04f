"""CONCORD — Capturing Design Dynamics (Ritter et al., ICDE 1994).

A full reproduction of the CONCORD model: a three-level processing
model for cooperative design applications.

* **AC level** (:mod:`repro.core`) — design activities, delegation /
  usage / negotiation relationships, the cooperation manager;
* **DC level** (:mod:`repro.dc`) — scripts, domain constraints, ECA
  rules, the design manager with recoverable script execution;
* **TE level** (:mod:`repro.te`) — design operations as long ACID
  transactions with savepoints, suspend/resume and recovery points,
  run by the client/server transaction-manager pair;

on top of the substrates the paper assumes: a versioned design data
repository (:mod:`repro.repository`), a simulated workstation/server
LAN with transactional RPC and two-phase commit (:mod:`repro.net`),
and the PLAYOUT-style VLSI design domain (:mod:`repro.vlsi`).

Quickstart::

    from repro import ConcordSystem, DesignSpecification, RangeFeature
    from repro.dc import Script, Sequence, DopStep

    system = ConcordSystem()
    system.add_workstation("ws-1")
    ...

See ``examples/quickstart.py`` for a complete runnable walkthrough.
"""

from repro.core import (
    ConcordSystem,
    CooperationManager,
    DaOperation,
    DaState,
    DesignActivity,
    DesignSpecification,
    QualityState,
    RangeFeature,
    TestToolFeature,
)
from repro.dc import (
    Alternative,
    DaOpStep,
    DesignManager,
    DesignerPolicy,
    DopStep,
    Iteration,
    Open,
    Parallel,
    Script,
    Sequence,
    ToolRegistry,
)
from repro.repository import (
    AttributeDef,
    AttributeKind,
    DesignDataRepository,
    DesignObjectType,
)
from repro.sim import Kernel
from repro.te import ClientTM, DesignOperation, DopState, ServerTM
from repro.util import ConcordError

__version__ = "1.0.0"

__all__ = [
    "Alternative",
    "AttributeDef",
    "AttributeKind",
    "ClientTM",
    "ConcordError",
    "ConcordSystem",
    "CooperationManager",
    "DaOpStep",
    "DaOperation",
    "DaState",
    "DesignActivity",
    "DesignDataRepository",
    "DesignManager",
    "DesignObjectType",
    "DesignOperation",
    "DesignSpecification",
    "DesignerPolicy",
    "DopState",
    "DopStep",
    "Iteration",
    "Kernel",
    "Open",
    "Parallel",
    "QualityState",
    "RangeFeature",
    "Script",
    "Sequence",
    "ServerTM",
    "TestToolFeature",
    "ToolRegistry",
    "__version__",
]
