"""Discrete-event simulation substrate: clock, scheduler, kernel."""

from repro.sim.clock import SimClock
from repro.sim.kernel import InjectionLogEntry, Kernel
from repro.sim.scheduler import EventScheduler

__all__ = [
    "EventScheduler",
    "InjectionLogEntry",
    "Kernel",
    "SimClock",
]
