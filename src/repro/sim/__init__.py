"""Discrete-event simulation substrate: clock, scheduler, kernel, failures."""

from repro.sim.clock import SimClock
from repro.sim.failures import FailureEvent, FailureKind, FailurePlan
from repro.sim.injector import FailureInjector, InjectionLogEntry
from repro.sim.kernel import Kernel
from repro.sim.scheduler import EventScheduler

__all__ = [
    "EventScheduler",
    "FailureEvent",
    "FailureInjector",
    "FailureKind",
    "FailurePlan",
    "InjectionLogEntry",
    "Kernel",
    "SimClock",
]
