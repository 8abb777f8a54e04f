"""The unified discrete-event kernel.

Every layer of the reproduction — the workload simulator, the network
transport and the design managers — schedules against one
:class:`Kernel`: a :class:`~repro.sim.scheduler.EventScheduler`
extended with the execution services the concurrent system needs:

* **quiescence detection** — :meth:`run_until_quiescent` drains the
  event queue to a fixed point (bounded by an event budget), which is
  the natural termination condition of a concurrent DA run: no DM has
  a step pending, no message is in flight, no failure is armed;
* **failure injection** — :meth:`crash_at` arms a node crash (and its
  restart) at arbitrary simulated instants; it is the only crash
  injector, so every scenario's crashes land in :attr:`injections`;
* **a deterministic event trace** — every executed event is logged
  (unboxed ``time, priority, seq`` plus its label) and read back as
  ``(time, priority, seq, label)`` tuples through :meth:`events`, so
  two identically seeded runs can be compared event by event (and the
  full stream can be persisted/replayed through :mod:`repro.sim.trace`).
  The ``(time, priority, seq)`` tie-breaking of the underlying
  scheduler makes the trace — and therefore the whole simulation —
  reproducible.

The :attr:`running` flag is True only while the kernel is executing
events; components use it to decide between queued asynchronous
delivery (inside a run) and synchronous handoff (outside).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.clock import SimClock
from repro.sim.scheduler import EventScheduler
from repro.util.errors import KernelError

if TYPE_CHECKING:  # avoid the sim <-> net package-init cycle
    from repro.net.network import Network

#: events one :meth:`Kernel.run_until_quiescent` may execute before it
#: gives up on reaching quiescence
EVENT_BUDGET = 1_000_000


@dataclass
class InjectionLogEntry:
    """Record of one enacted crash or restart."""

    at: float
    action: str        # 'crash' | 'restart'
    node: str


class Kernel(EventScheduler):
    """The single execution kernel shared by all layers of one world."""

    def __init__(self, clock: SimClock | None = None) -> None:
        super().__init__(clock)
        #: True while the kernel is inside :meth:`run`
        self.running = False
        #: enacted crash/restart events (kernel-native failure log)
        self.injections: list[InjectionLogEntry] = []

    # -- execution ----------------------------------------------------------

    def run(self, max_events: int | None = None) -> int:
        """Run with the :attr:`running` flag set for the whole batch."""
        was_running = self.running
        self.running = True
        try:
            return super().run(max_events)
        finally:
            self.running = was_running

    def run_until_quiescent(self) -> int:
        """Run until no event is pending.

        Quiescence is the fixed point of a concurrent run: every DM
        chain has ended, every queued message was delivered, every
        armed failure fired.  Raises :class:`KernelError` when the
        event budget (:data:`EVENT_BUDGET`) is exhausted first — the
        guard against a non-terminating event cascade.  Returns the
        number of events executed by this call.
        """
        ran = self.run(EVENT_BUDGET)
        if ran >= EVENT_BUDGET and self.pending:
            raise KernelError(
                f"no quiescence after {EVENT_BUDGET} events "
                f"({self.pending} still pending at t={self.clock.now})")
        return ran

    # -- failure injection --------------------------------------------------

    def crash_at(self, network: "Network", node_id: str, at: float,
                 restart_after: float | None = 1.0,
                 restart_action: Callable[[], Any] | None = None) -> None:
        """Arm a crash of *node_id* at simulated instant *at*.

        When *restart_after* is not None the node restarts that many
        time units later (running its recovery hooks); *restart_action*
        replaces the plain ``network.restart_node`` when a caller owns
        a richer recovery chain (e.g. the system-level workstation
        recovery).  Crash/restart events carry priority -1 so they beat
        same-instant work events — a crash "in the middle of" a step
        interrupts the step.
        """

        def crash() -> None:
            network.crash_node(node_id)
            self.injections.append(InjectionLogEntry(
                self.clock.now, "crash", node_id))

        def restart() -> None:
            if restart_action is not None:
                restart_action()
            else:
                network.restart_node(node_id)
            self.injections.append(InjectionLogEntry(
                self.clock.now, "restart", node_id))

        self.at(at, crash, label=f"crash:{node_id}", priority=-1)
        if restart_after is not None:
            self.at(at + restart_after, restart,
                    label=f"restart:{node_id}", priority=-1)

    # -- trace --------------------------------------------------------------

    def trace_signature(self) -> tuple[int, float, tuple[str, ...]]:
        """Compact fingerprint of the run: (#events, final time, labels).

        Two identically seeded runs of the same scenario must produce
        identical signatures — the determinism contract of the
        ``(time, priority, seq)`` tie-breaking.
        """
        return (len(self._labels), self.clock.now, tuple(self._labels))
