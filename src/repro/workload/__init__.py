"""Synthetic design-team workloads, simulators and metrics.

The names below are resolved on first access (PEP 562), so a session
scenario that draws its workload from ``repro.workload.generator``
loads the generator alone, not the analytic simulator, its metrics and
the baseline models behind them.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

#: public name -> the module that defines it
_EXPORTS = {
    "Dependency": "repro.workload.generator",
    "SessionSpec": "repro.workload.generator",
    "TeamWorkload": "repro.workload.generator",
    "integration_workload": "repro.workload.generator",
    "team_workload": "repro.workload.generator",
    "CrashMetrics": "repro.workload.metrics",
    "SessionMetrics": "repro.workload.metrics",
    "TeamMetrics": "repro.workload.metrics",
    "TeamSimulator": "repro.workload.simulator",
    "crash_lost_work": "repro.workload.simulator",
    "work_position": "repro.workload.simulator",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    """Import the module that defines *name* on first access."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
