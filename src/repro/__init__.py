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

The names below are resolved on first access (PEP 562), so importing
any ``repro.<subpackage>`` loads that subpackage and what it imports,
not the AC and DC levels with it.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

__version__ = "1.0.0"

#: public name -> the subpackage that defines it
_EXPORTS = {
    "ConcordSystem": "repro.core",
    "CooperationManager": "repro.core",
    "DaOperation": "repro.core",
    "DaState": "repro.core",
    "DesignActivity": "repro.core",
    "DesignSpecification": "repro.core",
    "QualityState": "repro.core",
    "RangeFeature": "repro.core",
    "TestToolFeature": "repro.core",
    "Alternative": "repro.dc",
    "DaOpStep": "repro.dc",
    "DesignManager": "repro.dc",
    "DesignerPolicy": "repro.dc",
    "DopStep": "repro.dc",
    "Iteration": "repro.dc",
    "Open": "repro.dc",
    "Parallel": "repro.dc",
    "Script": "repro.dc",
    "Sequence": "repro.dc",
    "ToolRegistry": "repro.dc",
    "AttributeDef": "repro.repository",
    "AttributeKind": "repro.repository",
    "DesignDataRepository": "repro.repository",
    "DesignObjectType": "repro.repository",
    "Kernel": "repro.sim",
    "ClientTM": "repro.te",
    "DesignOperation": "repro.te",
    "DopState": "repro.te",
    "ServerTM": "repro.te",
    "ConcordError": "repro.util",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str) -> Any:
    """Import the subpackage that defines *name* on first access."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
