"""Simulated time.

CONCORD DOPs are *long-duration* transactions ("several hours or days",
Sect.4.3).  Reproducing the failure and turnaround experiments therefore
requires a virtual clock: tool executions advance simulated time, and
crashes are injected at chosen simulated instants.  :class:`SimClock` is
a monotonically advancing float clock shared by all components of one
simulated world.
"""

from __future__ import annotations


class SimClock:
    """A monotone simulated clock measured in abstract minutes."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def advance(self, delta: float) -> float:
        """Move time forward by *delta* (must be non-negative)."""
        if delta < 0:
            raise ValueError(f"cannot move time backwards (delta={delta})")
        self._now += delta
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimClock(now={self._now:.3f})"
