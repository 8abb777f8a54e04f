"""Deterministic, typed identifier generation.

All CONCORD entities (DAs, DOVs, DOPs, transactions, nodes, ...) are
identified by short, human-readable, *deterministic* ids.  Determinism
matters because the reproduction's experiments must be replayable: the
n-th DA created by a run is always ``da-n`` regardless of wall-clock
time or interpreter hash seeds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


@dataclass
class IdGenerator:
    """Produces ids of the form ``<prefix>-<counter>`` per prefix.

    Example::

        gen = IdGenerator()
        gen.next("da")   # 'da-1'
        gen.next("da")   # 'da-2'
        gen.next("dov")  # 'dov-1'
    """

    _counters: dict[str, itertools.count] = field(default_factory=dict)

    def next(self, prefix: str) -> str:
        """Return the next id for *prefix* (counters start at 1)."""
        counter = self._counters.get(prefix)
        if counter is None:
            counter = itertools.count(1)
            self._counters[prefix] = counter
        return f"{prefix}-{next(counter)}"


#: Module-level generator for callers that do not manage their own scope.
#: Library components always accept an injected generator; this default is
#: a convenience for scripts and tests.
default_ids = IdGenerator()
