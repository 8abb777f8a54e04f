"""A fixed yardstick for the host's speed, sampled inside every timed region.

The box this benchmark is gated on does not run at one speed: a pure
CPU loop measured in 20 s windows varies by ±12 % around its median
from one window to the next (a shared 2-vCPU guest; ``/proc/stat``
reports no steal time to subtract), and the speed changes several
times a second — wider and faster than any bound worth gating on.  The
drift is common to everything the interpreter executes, so
:class:`Yardstick` interrupts the timed region every ``INTERVAL_S``
with an interval timer, times one short reference loop in the handler,
and reports host times in *reference seconds*:

    reference seconds = (wall - time spent in the loops)
                        * mean(REFERENCE_S / each loop's time)

The samples are uniform in wall time, so the mean of the sampled
speeds is the time-weighted speed the region ran at.  On a host where
the loop always takes ``REFERENCE_S`` the two are the same number.

Measured on this box: over 30 repetitions of one workload at one seed
the wall time follows the sampled speed with a log-log slope of -0.9 to
-1.0, and their spread (quartile distance over median) falls from
14-39 % in raw seconds to 4-6 % in reference seconds.  With runs back
to back in one process, the medians of 20 s windows spread 6-14 % raw,
6-7 % scaled by a loop timed only before and after each run, and
1.5-2.7 % scaled by the speed sampled inside it.

The loop is interpreter work of the kind the program does (recursive
container rebuilding in pure Python); it calls nothing in ``src/repro``
and not ``copy.deepcopy``, so neither a change to the program nor the
tracer's patches can move it, and the handler touches no state of the
program: the simulation cannot tell that it ran.
"""

from __future__ import annotations

import signal
import time
from typing import Any

#: what one reference loop takes on the reference host (this box at
#: its median speed, Python 3.11); only ratios against it are used
REFERENCE_S = 0.00225
#: wall time between two samples
INTERVAL_S = 0.025

_ROUNDS = 10

_SAMPLE: dict[str, Any] = {
    "rows": [{"key": i, "values": [float(j) for j in range(8)],
              "text": "x" * 20} for i in range(60)],
    "index": {str(i): (i, str(i)) for i in range(100)},
}


def _clone(value: Any) -> Any:
    if isinstance(value, dict):
        return {key: _clone(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_clone(item) for item in value]
    if isinstance(value, tuple):
        return tuple(_clone(item) for item in value)
    return value


def reference_loop() -> float:
    """Seconds the reference loop takes right now."""
    started = time.perf_counter()
    for _ in range(_ROUNDS):
        _clone(_SAMPLE)
    return time.perf_counter() - started


class Yardstick:
    """Times a region and samples the host's speed while it runs.

    Use as a context manager around the region, on the main thread;
    afterwards :attr:`wall_s` is the region's own wall time (the loops
    taken out) and :attr:`speed` the host's speed relative to the
    reference host.  A region shorter than one interval is scaled by
    the loops timed at its start and end.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wall_s = 0.0
        self.speed = 1.0

    def _sample(self, signum: int = 0, frame: Any = None) -> None:
        self.samples.append(reference_loop())

    def __enter__(self) -> "Yardstick":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._inside = len(self.samples)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        ended = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = ended - self._started \
            - sum(self.samples[self._inside:])
        self._sample()
        self.speed = sum(REFERENCE_S / sample for sample in self.samples) \
            / len(self.samples)

    @property
    def reference_s(self) -> float:
        """The region's time on the reference host."""
        return self.wall_s * self.speed
