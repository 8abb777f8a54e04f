"""The cooperation manager's durable state: a forced after-image log.

"To react to a server crash, the CM only needs to hold persistent the
DA-hierarchy-describing information ... it can employ the data
management facilities of the server DBMS" (Sect.5.4).  Here that is an
append-only :class:`~repro.repository.wal.WriteAheadLog` of the CM's
own:

* the CM **marks** every entity an operation changes, where it changes
  it;
* :meth:`StateLog.persist` — called once at the end of the operation —
  drains the marks into **one forced record** carrying the after-images
  of exactly those entities and the operation's audit entry, so the
  operation costs what it touched, not what the hierarchy holds, and
  state and audit trail are all-or-nothing across a crash;
* once the records behind the last checkpoint outnumber the live
  entities, a **checkpoint** (the same record shape, every entity,
  through :meth:`WriteAheadLog.checkpoint`) replaces them: the log
  stays within one state's worth of after-images, and a checkpoint is
  paid for by the records that made it due;
* :meth:`StateLog.replay` rebuilds the registries from the records
  :meth:`WriteAheadLog.since_checkpoint` returns.

An after-image is built by the entity itself (``image()`` /
``restore()`` in :mod:`repro.core.activity` and
:mod:`repro.core.relationships`) as an immutable value made of
references; this module knows the record around them, one
:class:`Images` per kind::

    {"das":          ((da_id, image), ...),
     "usages":       (((requiring, supporting), image), ...),
     "negotiations": ((negotiation_id, image), ...),
     "visibility":   ((dov_id, (holders)), ...),  # () = nobody left: gone
     "inboxes":      ((da_id, (message images)), ...),
     "delegations":  (image, ...),                # those not yet logged
     "op":  AuditEntry(op, actor, detail),        # the audit entry
     "ops": n}           # checkpoint only: operations logged so far

Kinds an operation did not touch are left out of its record, and
imaging it costs the kinds it marked.  Nothing in a record can change
through any reference, so the WAL keeps the very objects
(``__frozen_payload__``) and copies nothing.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, NamedTuple

from repro.core.activity import DaImage, DesignActivity
from repro.core.relationships import Delegation, Message, Negotiation, Usage
from repro.core.states import DaOperation
from repro.repository.schema import DesignObjectType
from repro.repository.wal import LogRecordKind, WriteAheadLog


class Images(tuple):
    """The after-images of one kind in one record: an immutable
    sequence of immutable values, which is what the marker says."""

    __slots__ = ()
    __frozen_payload__ = True


class AuditEntry(NamedTuple):
    """The audit entry of one operation of Fig.7: the operation, its
    actor and its detail as ``(name, value)`` pairs of scalars and
    tuples.  Built with ``tuple.__new__`` from values the operation
    already holds, so logging it walks and copies nothing."""

    op: DaOperation
    actor: str
    detail: tuple[tuple[str, Any], ...]

    __frozen_payload__ = True


class Registries(NamedTuple):
    """Everything the CM holds about the DA hierarchy."""

    das: dict[str, DesignActivity]
    #: append-only, so the log carries the tail it has not seen yet
    delegations: list[Delegation]
    usages: dict[tuple[str, str], Usage]
    negotiations: dict[str, Negotiation]
    #: dov_id -> DA ids authorised to share a scope lock on it
    visibility: dict[str, set[str]]
    inboxes: dict[str, list[Message]]

    def entities(self) -> int:
        """How many keyed entities there are to take an image of."""
        return len(self.das) + len(self.usages) + len(self.negotiations) \
            + len(self.visibility) + len(self.inboxes)


class StateLog:
    """Marks, one forced record per operation, checkpoints, replay."""

    def __init__(self) -> None:
        self.wal = WriteAheadLog("cm-hierarchy")
        #: checkpoints taken (each truncates the log behind it)
        self.checkpoints = 0
        #: operations logged — one per audit entry, whether its record
        #: is still in the log or behind a checkpoint
        self.operations = 0
        #: per kind touched since the last record, its keys changed,
        #: in the order they were first touched
        self._marks: dict[str, dict[Any, None]] = {}
        #: how many delegations the log already holds
        self._delegations_logged = 0

    def mark(self, kind: str, key: Any) -> None:
        """The entity *key* of registry *kind* is about to change.

        *kind* names a keyed registry, or ``described``: a DA among
        ``das`` whose image must carry the description too (a new one,
        or one whose specification changed)."""
        self._marks.setdefault(kind, {})[key] = None

    # -- writing ------------------------------------------------------------

    @staticmethod
    def _images(state: Registries, keys: dict[str, Iterable[Any]]
                ) -> dict[str, Any]:
        """The images of the entities *keys* names, kind by kind; a
        kind with no key is left out."""
        images: dict[str, Any] = {}
        das = keys.get("das")
        if das:
            described = keys.get("described", ())
            images["das"] = Images([
                (da_id, state.das[da_id].image(da_id in described))
                for da_id in das])
        usages = keys.get("usages")
        if usages:
            images["usages"] = Images([
                (key, state.usages[key].image()) for key in usages])
        negotiations = keys.get("negotiations")
        if negotiations:
            images["negotiations"] = Images([
                (key, state.negotiations[key].image())
                for key in negotiations])
        visibility = keys.get("visibility")
        if visibility:
            images["visibility"] = Images([
                (dov_id, tuple(sorted(state.visibility.get(dov_id, ()))))
                for dov_id in visibility])
        inboxes = keys.get("inboxes")
        if inboxes:
            images["inboxes"] = Images([
                (da_id, tuple([m.image() for m in state.inboxes[da_id]]))
                for da_id in inboxes])
        return images

    def persist(self, state: Registries,
                audit: AuditEntry | None = None) -> None:
        """Force the after-images of everything marked and the
        operation's *audit* entry, as one record; nothing marked and
        nothing to audit, nothing written."""
        record = self._images(state, self._marks)
        logged = self._delegations_logged
        if len(state.delegations) > logged:
            record["delegations"] = Images(
                [d.image() for d in state.delegations[logged:]])
            self._delegations_logged = len(state.delegations)
        if audit is not None:
            record["op"] = audit
            self.operations += 1
        if not record:
            return
        self._marks = {}
        self.wal.append(LogRecordKind.DA_STATE, record, force=True)
        # Derived, not configured: this is the one threshold at which
        # the log holds at most one state's worth of after-images (what
        # replay reads, what memory keeps) *and* a checkpoint of n
        # entities has n records to be charged to.
        if len(self.wal) - 1 > state.entities():
            self._checkpoint(state)

    def _checkpoint(self, state: Registries) -> None:
        """The full image replaces every record behind it."""
        image = self._images(state, {
            "das": state.das, "described": state.das,
            "usages": state.usages, "negotiations": state.negotiations,
            "visibility": state.visibility, "inboxes": state.inboxes})
        image["delegations"] = Images([d.image() for d in state.delegations])
        image["ops"] = self.operations
        self.wal.checkpoint(image)
        self.checkpoints += 1

    # -- failure ------------------------------------------------------------

    def crash(self) -> None:
        """The marks are volatile; the forced records are not."""
        self._marks = {}
        self._delegations_logged = 0
        self.operations = 0
        self.wal.crash()

    def replay(self, dot_of: Callable[[str], DesignObjectType]
               ) -> Registries | None:
        """The registries as of the last forced record (None: no record).

        Starts at the last checkpoint and keeps, per entity, the latest
        after-image in the order entities first appear — the order the
        registries had — and counts the audit entries on top of the
        checkpoint's count.
        """
        records = self.wal.since_checkpoint()
        if not records:
            return None
        das: dict[str, DaImage] = {}
        usages: dict[Any, Any] = {}
        negotiations: dict[str, Any] = {}
        visibility: dict[str, tuple[str, ...]] = {}
        inboxes: dict[str, tuple] = {}
        delegations: list[Any] = []
        operations = 0
        for record in records:
            payload = record.payload
            if "ops" in payload:  # a checkpoint: the count so far
                operations = payload["ops"]
            elif "op" in payload:
                operations += 1
            for da_id, image in payload.get("das", ()):
                if image.description is None:
                    image = tuple.__new__(DaImage, image[:-1] + (
                        das[da_id].description,))
                das[da_id] = image
            usages.update(payload.get("usages", ()))
            negotiations.update(payload.get("negotiations", ()))
            inboxes.update(payload.get("inboxes", ()))
            for dov_id, holders in payload.get("visibility", ()):
                if holders:
                    visibility[dov_id] = holders
                else:
                    visibility.pop(dov_id, None)
            delegations.extend(payload.get("delegations", ()))
        state = Registries(
            {da_id: DesignActivity.restore(da_id, image, dot_of)
             for da_id, image in das.items()},
            [Delegation.restore(image) for image in delegations],
            {key: Usage.restore(image) for key, image in usages.items()},
            {key: Negotiation.restore(image)
             for key, image in negotiations.items()},
            {dov_id: set(holders)
             for dov_id, holders in visibility.items()},
            {da_id: [Message.restore(image) for image in messages]
             for da_id, messages in inboxes.items()})
        self._marks = {}
        self._delegations_logged = len(state.delegations)
        self.operations = operations
        return state
