"""Discrete-event simulation substrate: clock, scheduler, kernel, failures."""

from repro.sim.clock import SimClock
from repro.sim.failures import FailureEvent, FailureKind, FailurePlan
from repro.sim.injector import FailureInjector, InjectionLogEntry
from repro.sim.kernel import Kernel, Timer
from repro.sim.scheduler import EventScheduler, kernel_fast_path
from repro.sim.wheel import HierarchicalTimerWheel

__all__ = [
    "EventScheduler",
    "FailureEvent",
    "FailureInjector",
    "FailureKind",
    "FailurePlan",
    "HierarchicalTimerWheel",
    "InjectionLogEntry",
    "Kernel",
    "SimClock",
    "Timer",
    "kernel_fast_path",
]
