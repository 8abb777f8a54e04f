"""Discrete-event scheduler.

The workload experiments (T1, T2, T6) simulate a *team* of designers
working concurrently: each designer is a sequence of timed steps (start
a DOP, run a tool for two hours, check in, negotiate, ...).  The
scheduler interleaves those step streams in global timestamp order, so
concurrency effects (lock conflicts, pre-release visibility, crash
windows) play out deterministically.

Events are callbacks ordered by ``(time, priority, seq)``; ties resolve
by insertion order, which keeps runs reproducible.  The queue is one
binary heap of plain ``(time, priority, seq, label, action)`` tuples,
so every heap comparison is C-speed and never reaches the label or the
action (``seq`` is unique).  A filed event always runs: there are no
handles and no cancellation.  Every executed event is recorded as
``(time, priority, seq, label)`` in :attr:`EventScheduler.event_log`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from repro.sim.clock import SimClock


class EventScheduler:
    """Priority-queue discrete-event loop driving a :class:`SimClock`."""

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock or SimClock()
        #: heap of ``(time, priority, seq, label, action)`` tuples
        self._queue: list[tuple] = []
        self._seq = 0
        #: executed events as ``(time, priority, seq, label)`` — the
        #: determinism guard and the record/replay stream
        self.event_log: list[tuple[float, int, int, str]] = []

    # -- scheduling ---------------------------------------------------------

    def _file(self, time: float, action: Callable[[], Any], label: str,
              priority: int) -> None:
        if not time >= self.clock.now:  # also refuses NaN
            raise ValueError(
                f"cannot schedule at {time} before now={self.clock.now}")
        self._seq += 1
        heappush(self._queue, (time, priority, self._seq, label, action))

    def at(self, time: float, action: Callable[[], Any],
           label: str = "", priority: int = 0) -> None:
        """Schedule *action* at absolute simulated *time*; a lower
        *priority* runs first among events of the same instant."""
        self._file(time, action, label, priority)

    def after(self, delay: float, action: Callable[[], Any],
              label: str = "") -> None:
        """Schedule *action* *delay* time units from now."""
        self.at(self.clock.now + delay, action, label)

    def defer(self, delay: float, action: Callable[[], Any],
              label: str = "") -> None:
        """:meth:`after` for the network transport and the concurrent
        drivers: a negative *delay* counts as zero.

        It runs once per message and per lease bucket, so it reads the
        clock once and files the event itself (``run`` writes the same
        ``_now``)."""
        now = self.clock._now
        if delay < 0.0:
            delay = 0.0
        time = now + delay
        if not time >= now:  # a NaN delay
            raise ValueError(f"cannot schedule at {time} before now={now}")
        self._seq += 1
        heappush(self._queue, (time, 0, self._seq, label, action))

    # -- execution ----------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of events in the queue."""
        return len(self._queue)

    @property
    def executed(self) -> int:
        """Number of events executed so far."""
        return len(self.event_log)

    def run(self, max_events: int | None = None) -> int:
        """Run events until exhaustion or *max_events*.

        Returns the number of events executed by this call; the clock
        stays at the last executed event.
        """
        ran = 0
        queue = self._queue
        clock = self.clock
        record = self.event_log.append
        while queue:
            if max_events is not None and ran >= max_events:
                break
            time, priority, seq, label, action = heappop(queue)
            if time > clock._now:
                clock._now = time
            ran += 1
            record((time, priority, seq, label))
            action()
        return ran
