"""DOP processing contexts, savepoints, suspend/resume.

"The context of a DOP consists of the current state of the design data
and on information about the state of the application program
implementing the DOP" (Sect.5.2, footnote).  :class:`DopContext` models
exactly that pair: the working copy of the design data plus an opaque
tool-state dict.  On top of it sit the designer-facing structuring
facilities of Sect.4.3:

* **Save / Restore** — designer-marked savepoints ("intermediate
  states, to which a designer might wish to return later, are
  explicitly marked by the designer");
* **Suspend / Resume** — a DOP may pause for days; the state seen
  after Resume "must be equal to that seen when issuing the Suspend
  command".

Savepoints and suspended contexts live on the workstation's *stable*
storage (they are implemented with the recovery-point mechanism,
Sect.5.2), so they also survive workstation crashes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.repository.versions import (
    FrozenDict,
    FrozenList,
    freeze_payload,
    thaw_payload,
)
from repro.util.errors import RecoveryError

#: exact types a working dict can hold that are immutable as they are:
#: what checkout installs (frozen payload members) and scalar results.
#: Such a value is shared into an image and shared back out of it.
_SHARED_TYPES = frozenset({str, int, float, bool, bytes, type(None),
                           FrozenDict, FrozenList})

_EMPTY = FrozenDict()
_NONE_OWNED: frozenset = frozenset()


@dataclass(frozen=True, slots=True)
class ContextImage:
    """Immutable recovery image of a :class:`DopContext`.

    Built only by :meth:`DopContext.snapshot`; stable storage keeps the
    reference (the marker answers its immutability check in O(1)), and
    successive images of one context share every part that did not
    change in between.  ``data`` and ``tool_state`` hold the working
    dicts deep-frozen; ``data_owned`` / ``tool_state_owned`` name the
    top-level keys whose values the snapshot had to freeze itself —
    tool output, the only part :meth:`DopContext.from_snapshot` copies
    back to mutable form.  Everything else was immutable when it went
    in (checked-out payloads, scalars) and comes out the same object.
    """

    data: FrozenDict
    data_owned: frozenset
    tool_state: FrozenDict
    tool_state_owned: frozenset
    checked_out: tuple[str, ...]
    work_done: float

    __frozen_payload__ = True


def _freeze_working(mapping: dict[str, Any], prev: FrozenDict
                    ) -> tuple[FrozenDict, frozenset]:
    """Frozen image of a working dict, and the keys it had to freeze.

    Members of :data:`_SHARED_TYPES` are shared in O(1) each; only
    mutable tool output is walked (once, by :func:`freeze_payload`).
    When every member is shared and is the very object *prev* already
    holds under that key, *prev* is the image: an untouched dict costs
    one identity check per key and allocates nothing.
    """
    if not mapping:
        return _EMPTY, _NONE_OWNED
    owned = [key for key, value in mapping.items()
             if type(value) not in _SHARED_TYPES]
    if owned:
        return freeze_payload(mapping), frozenset(owned)
    if len(prev) == len(mapping):
        for (key, value), (prev_key, prev_value) \
                in zip(mapping.items(), prev.items()):
            if value is not prev_value or key != prev_key:
                break
        else:
            return prev, _NONE_OWNED
    return freeze_payload(mapping), _NONE_OWNED


def _thaw_working(frozen: FrozenDict, owned: frozenset) -> dict[str, Any]:
    return {key: thaw_payload(value) if key in owned else value
            for key, value in frozen.items()}


_BLANK = ContextImage(_EMPTY, _NONE_OWNED, _EMPTY, _NONE_OWNED, (), 0.0)


@dataclass
class DopContext:
    """Volatile working state of one design operation.

    ``data`` is the tool's working copy of the design object (seeded by
    checkout, mutated by tool steps, checked in at the end); ``tool_state``
    is whatever the tool needs to continue (iteration counters,
    intermediate structures); ``work_done`` accumulates the simulated
    effort invested, which the lost-work experiment (T2) compares before
    and after crashes.
    """

    data: dict[str, Any] = field(default_factory=dict)
    tool_state: dict[str, Any] = field(default_factory=dict)
    checked_out: list[str] = field(default_factory=list)
    work_done: float = 0.0
    #: the most recent image, whose unchanged parts the next one re-uses
    _image: ContextImage = field(default=_BLANK, init=False, repr=False,
                                 compare=False)

    def snapshot(self) -> ContextImage:
        """Immutable image of the context, ready for stable storage.

        Costs what changed since the previous image plus one walk over
        the mutable tool output; nothing is deep-copied.
        """
        prev = self._image
        data, data_owned = _freeze_working(self.data, prev.data)
        tool_state, tool_state_owned = _freeze_working(
            self.tool_state, prev.tool_state)
        image = ContextImage(data, data_owned, tool_state,
                             tool_state_owned, tuple(self.checked_out),
                             self.work_done)
        self._image = image
        return image

    @classmethod
    def from_snapshot(cls, snap: ContextImage) -> "DopContext":
        """A private working context equal to the imaged one.

        Tool output is thawed into mutable dicts and lists again;
        checked-out payloads come back as the same frozen objects.
        """
        context = cls(
            data=_thaw_working(snap.data, snap.data_owned),
            tool_state=_thaw_working(snap.tool_state,
                                     snap.tool_state_owned),
            checked_out=list(snap.checked_out),
            work_done=snap.work_done,
        )
        context._image = snap
        return context


class SavepointStack:
    """Named, ordered savepoints over a :class:`DopContext`.

    Restore semantics follow the paper: restoring a savepoint "wipes
    out" everything done after it, including later savepoints.

    The stack is a tuple of ``(name, image)`` pairs and so is its own
    storage-ready image: a savepoint is frozen once, at :meth:`save`,
    and every later recovery point shares it.
    """

    def __init__(self) -> None:
        self._stack: tuple[tuple[str, ContextImage], ...] = ()

    def save(self, name: str, context: DopContext) -> None:
        """Record the current context under *name*."""
        if any(existing == name for existing, _ in self._stack):
            raise RecoveryError(f"savepoint {name!r} already exists")
        self._stack += ((name, context.snapshot()),)

    def restore(self, name: str | None = None) -> DopContext:
        """Return the context saved under *name* (default: most recent).

        Later savepoints are discarded; the restored savepoint itself is
        kept, so it can be restored again.
        """
        if not self._stack:
            raise RecoveryError("no savepoints to restore")
        if name is None:
            index = len(self._stack) - 1
        else:
            try:
                index = next(i for i, (n, _) in enumerate(self._stack)
                             if n == name)
            except StopIteration:
                raise RecoveryError(f"no savepoint named {name!r}") from None
        self._stack = self._stack[:index + 1]
        return DopContext.from_snapshot(self._stack[index][1])

    def names(self) -> list[str]:
        """Savepoint names, oldest first."""
        return [n for n, _ in self._stack]

    def clear(self) -> None:
        """Remove all savepoints (commit/abort path, Sect.5.2)."""
        self._stack = ()

    def __len__(self) -> int:
        return len(self._stack)

    def snapshot(self) -> tuple[tuple[str, ContextImage], ...]:
        """Storage-ready image of the whole stack (the stack itself)."""
        return self._stack

    @classmethod
    def from_snapshot(cls, snap: tuple[tuple[str, ContextImage], ...]
                      ) -> "SavepointStack":
        """Rebuild a stack from a :meth:`snapshot` image."""
        stack = cls()
        stack._stack = snap
        return stack
