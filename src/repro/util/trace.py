"""Structured event tracing across all CONCORD levels.

The paper's Fig.1 and Fig.8 describe how operations at the AC, DC and TE
levels nest and how the activity managers interact.  To *regenerate*
those figures we need a machine-readable record of every operation each
manager performs.  :class:`EventTrace` is that record: a flat, ordered
list of :class:`TraceEvent` rows tagged with the architectural level and
the acting component, plus helpers to filter and summarise.

The trace is purely observational — no component behaviour depends on
it — so it can be disabled (``enabled=False``) in throughput benchmarks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Iterator


class Level(str, Enum):
    """Architectural level of an event (paper Sect.2)."""

    AC = "AC"            # administration / cooperation
    DC = "DC"            # design control (workflow)
    TE = "TE"            # tool execution (transactions)
    REPOSITORY = "REPO"  # design data repository
    NET = "NET"          # network substrate
    SIM = "SIM"          # simulation driver


@dataclass(frozen=True)
class TraceEvent:
    """One operation performed by one component at one instant."""

    seq: int
    time: float
    level: Level
    component: str      # e.g. 'CM', 'DM:da-2', 'client-TM:ws-1'
    operation: str      # e.g. 'Create_Sub_DA', 'checkout', 'Propagate'
    subject: str        # entity acted upon, e.g. 'da-3', 'dov-7'
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"[{self.time:9.3f}] {self.level.value:4s} "
                f"{self.component:16s} {self.operation:28s} {self.subject}")


class EventTrace:
    """Ordered collection of :class:`TraceEvent` with query helpers."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._events: list[TraceEvent] = []
        self._seq = 0

    # -- recording ----------------------------------------------------------

    def record(self, time: float, level: Level, component: str,
               operation: str, subject: str = "",
               **detail: Any) -> TraceEvent | None:
        """Append an event; returns it (or None when tracing is disabled)."""
        if not self.enabled:
            return None
        self._seq += 1
        event = TraceEvent(self._seq, time, level, component,
                           operation, subject, detail)
        self._events.append(event)
        return event

    def clear(self) -> None:
        """Drop all recorded events."""
        self._events.clear()
        self._seq = 0

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> list[TraceEvent]:
        """All events, in order (a copy is *not* made; do not mutate)."""
        return self._events

    def operations(self, *names: str) -> list[TraceEvent]:
        """Events whose operation is one of *names*."""
        wanted = set(names)
        return [e for e in self._events if e.operation in wanted]

    def count_by_level(self) -> dict[Level, int]:
        """Histogram of events per level (the Fig.1 summary)."""
        return dict(Counter(e.level for e in self._events))

    def count_by_operation(self, level: Level | None = None) -> dict[str, int]:
        """Histogram of events per operation name, optionally per level."""
        events: Iterable[TraceEvent] = self._events
        if level is not None:
            events = (e for e in self._events if e.level is level)
        return dict(Counter(e.operation for e in events))

    def render(self, limit: int | None = None) -> str:
        """Human-readable dump (used by examples and bench output)."""
        rows = self._events if limit is None else self._events[:limit]
        return "\n".join(str(e) for e in rows)
