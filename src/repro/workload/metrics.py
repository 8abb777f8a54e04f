"""Metric records produced by the workload simulators."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SessionMetrics:
    """Outcome of one designer session in a team run."""

    session_id: str
    start: float = 0.0
    end: float = 0.0
    work_time: float = 0.0
    blocked_time: float = 0.0
    rework_time: float = 0.0

@dataclass
class TeamMetrics:
    """Aggregate outcome of one team run under one processing model."""

    model: str
    sessions: dict[str, SessionMetrics] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        """Completion time of the last session."""
        return max((s.end for s in self.sessions.values()), default=0.0)

    @property
    def total_blocked(self) -> float:
        """Sum of all sessions' blocked time."""
        return sum(s.blocked_time for s in self.sessions.values())

    @property
    def total_work(self) -> float:
        """Sum of all productive work time."""
        return sum(s.work_time for s in self.sessions.values())

    @property
    def total_rework(self) -> float:
        """Sum of all invalidation-induced redo time."""
        return sum(s.rework_time for s in self.sessions.values())

    def row(self) -> dict[str, float | str]:
        """One table row for the T1 report."""
        return {
            "model": self.model,
            "makespan": round(self.makespan, 1),
            "blocked": round(self.total_blocked, 1),
            "rework": round(self.total_rework, 1),
            "work": round(self.total_work, 1),
        }


@dataclass(frozen=True)
class CrashMetrics:
    """Outcome of one crash experiment (T2) for one model."""

    model: str
    crash_time: float
    lost_work: float
    recovery_overhead: float = 0.0

    def row(self) -> dict[str, float | str]:
        """One table row for the T2 report."""
        return {
            "model": self.model,
            "crash_time": round(self.crash_time, 1),
            "lost_work": round(self.lost_work, 1),
            "overhead": round(self.recovery_overhead, 1),
        }
