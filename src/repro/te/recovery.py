"""Recovery points for long-duration DOPs.

"Recovery points act as 'fire-walls' inside a DOP that limit the scope
of work lost in case of a failure and provide a starting point after
recovery [HR87].  These recovery points are chosen automatically by the
system after appropriate events or time intervals and are transparent to
design tool and designer.  In particular, after each checkout operation
a recovery point is set" (Sect.5.2).

The client-TM takes one after every checkout — the paper's mandatory
point, "in order to avoid duplicate requests of a DOV from the server
in the case of a failure" — and one every :data:`POINT_INTERVAL`
simulated minutes of tool work.  :class:`RecoveryManager` persists
them to the workstation's stable storage and serves the most recent
one at restart.

The paper asks for a *point* after each checkout, not for an image of
the context: a post-checkout point is stored as a
:class:`CheckoutRecord` — "this DOV went in" — on top of the previous
point, and a full :class:`RecoveryPoint` image is taken wherever that
would not be the whole truth.  Restart replays the records onto the
image they lead back to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, NamedTuple

from repro.net.network import StableStorage
from repro.repository.versions import DesignObjectVersion, FrozenDict
from repro.te.context import ContextImage, DopContext, SavepointStack
from repro.util.errors import RecoveryError

#: the longest run of checkout records between two full images: a
#: restart thaws one image and replays at most this many records, and
#: a running DOP keeps at most this many of them alive
MAX_DELTA_CHAIN = 32

#: simulated minutes of tool work between two periodic points: the
#: most work a crash can lose
POINT_INTERVAL = 30.0

#: the stable-storage key of a DOP's point is this plus the DOP id
KEY_PREFIX = "recovery-point:"


@dataclass(frozen=True, slots=True)
class RecoveryPoint:
    """One persisted restart point of a DOP, as a full image.

    The point *is* the stored record: every field is immutable (the
    context and savepoint images are frozen where they are taken), so
    stable storage keeps the reference and :meth:`RecoveryManager.take`
    copies nothing.
    """

    dop_id: str
    taken_at: float      # simulated time
    reason: str          # 'checkout' | 'interval' | 'savepoint' | ...
    context: ContextImage                 # DopContext.snapshot()
    #: SavepointStack.snapshot()
    savepoints: tuple[tuple[str, ContextImage], ...]

    __frozen_payload__ = True
    #: an image is where a chain of checkout records starts
    depth: ClassVar[int] = 0

    def __post_init__(self) -> None:
        # the marker vouches for the fields; hold them to it
        if type(self.context) is not ContextImage \
                or type(self.savepoints) is not tuple:
            raise TypeError(
                "a recovery point holds a ContextImage and a tuple of "
                "savepoint images (DopContext.snapshot(), "
                "SavepointStack.snapshot())")


class CheckoutRecord(NamedTuple):
    """A post-checkout restart point, stored as a delta on *base*.

    The state it stands for is *base*'s with ``dov_id`` appended to
    ``checked_out``, ``payload`` merged into ``data`` and ``work_done``
    as given; tool state and savepoints are *base*'s.  ``payload`` is
    the frozen mapping the DOV (and so the buffer and the repository)
    already holds — the record shares it, and taking one walks nothing.

    A tuple, so taking one is a single allocation
    (:meth:`RecoveryManager.take` builds it with ``tuple.__new__``) and
    a field cannot be reassigned.
    """

    base: "RecoveryPoint | CheckoutRecord"
    depth: int           # records between this one and its image
    taken_at: float      # simulated time
    dov_id: str
    payload: FrozenDict
    work_done: float

    __frozen_payload__ = True
    reason = "checkout"


class RecoveryManager:
    """Client-TM-side persistence of recovery points and savepoints."""

    def __init__(self, stable: StableStorage) -> None:
        self.stable = stable
        #: recovery points taken (for the T2 accounting)
        self.points_taken = 0

    # -- taking points ------------------------------------------------------

    def take(self, dop_id: str, context: DopContext,
             savepoints: SavepointStack, taken_at: float,
             reason: str,
             base: RecoveryPoint | CheckoutRecord | None = None,
             dov: DesignObjectVersion | None = None
             ) -> RecoveryPoint | CheckoutRecord:
        """Persist a new recovery point (replaces the previous one).

        The most recent record is the point: "the TM has to rely on
        the most recent recovery point" (Sect.5.2).  Earlier records
        stay reachable from it only as its encoding — a
        :class:`CheckoutRecord` names the point it builds on — and all
        of them go with the key at End-of-DOP.

        *base* is the caller's word that the context differs from that
        stored point by nothing but the checkout of *dov* (and effort
        counted since); then a ``checkout`` point is one small record
        and the context is not looked at.  Without it, for any other
        reason, and once :data:`MAX_DELTA_CHAIN` records have piled up,
        the point is a full image.
        """
        if base is not None and dov is not None and reason == "checkout" \
                and base.depth < MAX_DELTA_CHAIN:
            point = tuple.__new__(CheckoutRecord, (
                base, base.depth + 1, taken_at, dov.dov_id, dov.data,
                context.work_done))
        else:
            point = RecoveryPoint(
                dop_id=dop_id,
                taken_at=taken_at,
                reason=reason,
                context=context.snapshot(),
                savepoints=savepoints.snapshot(),
            )
        self.stable.put(KEY_PREFIX + dop_id, point)
        self.points_taken += 1
        return point

    # -- restart ---------------------------------------------------------------

    def latest(self, dop_id: str
               ) -> RecoveryPoint | CheckoutRecord | None:
        """The most recent persisted point for *dop_id*, if any."""
        return self.stable.get(KEY_PREFIX + dop_id)

    def restore(self, dop_id: str
                ) -> tuple[DopContext, SavepointStack,
                           RecoveryPoint | CheckoutRecord]:
        """Rebuild context + savepoints from the most recent point.

        Walks the checkout records back to the image they build on,
        thaws that image once into a private mutable working copy —
        here, on the rare path, and never when a point is taken — and
        replays the records forward.  Raises :class:`RecoveryError`
        when no point exists (then the DOP must be rolled back to its
        very beginning).
        """
        point = self.latest(dop_id)
        if point is None:
            raise RecoveryError(f"no recovery point for DOP {dop_id!r}")
        records: list[CheckoutRecord] = []
        image = point
        while type(image) is CheckoutRecord:
            records.append(image)
            image = image.base
        context = DopContext.from_snapshot(image.context)
        for record in reversed(records):
            context.checked_out.append(record.dov_id)
            context.data.update(record.payload)
            context.work_done = record.work_done
        savepoints = SavepointStack.from_snapshot(image.savepoints)
        return context, savepoints, point

    def remove(self, dop_id: str) -> bool:
        """Drop the recovery point (commit/abort path: "the client-TM
        removes all its savepoints and its recovery point", Sect.5.2)."""
        return self.stable.delete(KEY_PREFIX + dop_id)
