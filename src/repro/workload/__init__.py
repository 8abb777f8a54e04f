"""Synthetic design-team workloads, simulators and metrics."""

from repro.workload.generator import (
    Dependency,
    SessionSpec,
    TeamWorkload,
    integration_workload,
    team_workload,
)
from repro.workload.metrics import CrashMetrics, SessionMetrics, TeamMetrics
from repro.workload.simulator import (
    TeamSimulator,
    crash_lost_work,
    work_position,
)

__all__ = [
    "CrashMetrics",
    "Dependency",
    "SessionMetrics",
    "SessionSpec",
    "TeamMetrics",
    "TeamSimulator",
    "TeamWorkload",
    "crash_lost_work",
    "integration_workload",
    "team_workload",
    "work_position",
]
