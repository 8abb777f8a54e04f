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
handles and no cancellation.

Every executed event is logged as three numbers and a label: its
``(time, priority, seq)`` go unboxed into one ``bytearray`` as one
packed record (a double and two 64-bit ints) and its label into one
list, so a run keeps 24 bytes plus a list slot per event and no
tuple, float or int object.  :meth:`EventScheduler.events` is the
log's only view: it builds the ``(time, priority, seq, label)`` tuples
when a reader asks.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from struct import Struct
from typing import Any, Callable

from repro.sim.clock import SimClock

#: one logged event key, ``(time, priority, seq)``: a precompiled
#: struct packs it in one C call (``array("d").extend`` of the three
#: numbers parses each item through a format string, ~2.5x the time)
_LOG_KEY = Struct("=dqq")


class EventScheduler:
    """Priority-queue discrete-event loop driving a :class:`SimClock`."""

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock or SimClock()
        #: heap of ``(time, priority, seq, label, action)`` tuples
        self._queue: list[tuple] = []
        self._seq = 0
        #: the event log — the determinism guard and the record/replay
        #: stream: each executed event's packed ``_LOG_KEY``, and its
        #: label (read both through :meth:`events`)
        self._keys = bytearray()
        self._labels: list[str] = []

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
        *priority* (an ``int``: the log packs it as one) runs first
        among events of the same instant."""
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
        return len(self._labels)

    def events(self) -> list[tuple[float, int, int, str]]:
        """The executed events as ``(time, priority, seq, label)``,
        oldest first, built from the log on each call."""
        return [(time, priority, seq, label)
                for (time, priority, seq), label
                in zip(_LOG_KEY.iter_unpack(self._keys), self._labels)]

    def run(self, max_events: int | None = None) -> int:
        """Run events until exhaustion or *max_events*.

        Returns the number of events executed by this call; the clock
        stays at the last executed event.
        """
        ran = 0
        limit = sys.maxsize if max_events is None else max_events
        queue = self._queue
        clock = self.clock
        log_key = self._keys.extend
        pack = _LOG_KEY.pack
        log_label = self._labels.append
        while queue and ran < limit:
            time, priority, seq, label, action = heappop(queue)
            if time > clock._now:
                clock._now = time
            ran += 1
            log_key(pack(time, priority, seq))
            log_label(label)
            action()
        return ran
