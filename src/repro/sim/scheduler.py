"""Discrete-event scheduler.

The workload experiments (T1, T2, T6) simulate a *team* of designers
working concurrently: each designer is a sequence of timed steps (start
a DOP, run a tool for two hours, check in, negotiate, ...).  The
scheduler interleaves those step streams in global timestamp order, so
concurrency effects (lock conflicts, pre-release visibility, crash
windows) play out deterministically.

Events are callbacks ordered by ``(time, priority, seq)``; ties resolve
by insertion order, which keeps runs reproducible.  The queue is one
binary heap of plain ``(time, priority, seq, event)`` tuples, so every
heap comparison is C-speed and never reaches the event object (``seq``
is unique).  Cancellation is lazy: a cancelled event stays in the heap
and is discarded when it surfaces.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from repro.sim.clock import SimClock


class _ScheduledEvent:
    """One pending callback."""

    __slots__ = ("time", "priority", "seq", "action", "label",
                 "cancelled", "done")

    def __init__(self, time: float, priority: int, seq: int,
                 action: Callable[[], Any], label: str = "") -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = False
        #: True once the event left the queue (executed or discarded) —
        #: guards the live counter against cancels of finished events
        self.done = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"_ScheduledEvent(t={self.time}, prio={self.priority}, "
                f"seq={self.seq}, label={self.label!r})")


class EventScheduler:
    """Priority-queue discrete-event loop driving a :class:`SimClock`."""

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock or SimClock()
        #: heap of ``(time, priority, seq, event)`` tuples
        self._queue: list[tuple] = []
        self._seq = 0
        self._executed = 0
        #: queued events that are neither cancelled nor done — kept
        #: incrementally so :attr:`pending` is O(1), not an O(n) scan
        self._live = 0

    # -- scheduling ---------------------------------------------------------

    def _file(self, time: float, action: Callable[[], Any],
              label: str, priority: int) -> _ScheduledEvent:
        self._seq += 1
        event = _ScheduledEvent(time, priority, self._seq, action, label)
        heappush(self._queue, (time, priority, self._seq, event))
        self._live += 1
        return event

    def at(self, time: float, action: Callable[[], Any],
           label: str = "", priority: int = 0) -> _ScheduledEvent:
        """Schedule *action* at absolute simulated *time*."""
        if not time >= self.clock.now:  # also refuses NaN
            raise ValueError(
                f"cannot schedule at {time} before now={self.clock.now}")
        return self._file(time, action, label, priority)

    def after(self, delay: float, action: Callable[[], Any],
              label: str = "", priority: int = 0) -> _ScheduledEvent:
        """Schedule *action* *delay* time units from now."""
        return self.at(self.clock.now + delay, action, label, priority)

    def defer(self, delay: float, action: Callable[[], Any],
              label: str = "", priority: int = 0) -> None:
        """Fire-and-forget :meth:`after`: no handle is returned.

        The form used by the network transport and the concurrent
        drivers — same ordering semantics as :meth:`after` (a negative
        *delay* counts as zero), but the caller gives up the handle: a
        deferred event cannot be cancelled.
        """
        self._file(self.clock.now + max(delay, 0.0), action, label,
                   priority)

    def cancel(self, event: _ScheduledEvent) -> None:
        """Cancel a pending event (lazy removal).

        Idempotent, and a no-op for events that already ran: only the
        first cancel of a still-queued event decrements the live
        counter.
        """
        if event.cancelled or event.done:
            return
        event.cancelled = True
        self._live -= 1

    # -- execution ----------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(1))."""
        return self._live

    @property
    def executed(self) -> int:
        """Number of events executed so far."""
        return self._executed

    def _peek(self) -> tuple | None:
        """The earliest live heap entry (cancelled heads are dropped)."""
        queue = self._queue
        while queue:
            head = queue[0]
            if not head[3].cancelled:
                return head
            heappop(queue)
            head[3].done = True
        return None

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        if self._peek() is None:
            return False
        event = heappop(self._queue)[3]
        event.done = True
        self._live -= 1
        self.clock.advance_to(event.time)
        self._executed += 1
        self._execute(event)
        return True

    def _execute(self, event: _ScheduledEvent) -> None:
        """Run one due event (subclasses hook in tracing here)."""
        event.action()

    def run(self, until: float | None = None,
            max_events: int | None = None) -> int:
        """Run events until exhaustion, *until* time, or *max_events*.

        Returns the number of events executed by this call.  The clock
        only advances to *until* when every event at or before it was
        dispatched — an exit via *max_events* leaves the clock at the
        last executed event, never past undispatched ones.
        """
        ran = 0
        queue = self._queue
        clock = self.clock
        execute = self._execute
        # when no subclass hooks into dispatch, skip the indirection
        # and call the event's action straight from the loop
        direct = getattr(execute, "__func__", None) \
            is EventScheduler._execute
        drained = False
        while True:
            head = self._peek()
            if head is None or (until is not None and head[0] > until):
                drained = True
                break
            if max_events is not None and ran >= max_events:
                break
            heappop(queue)
            time, _, _, event = head
            event.done = True
            self._live -= 1
            if time > clock._now:
                clock._now = time
            ran += 1
            if direct:
                event.action()
            else:
                execute(event)
        self._executed += ran
        if until is not None and drained:
            clock.advance_to(until)
        return ran
