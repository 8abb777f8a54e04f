"""The design data repository facade (the paper's "advanced DBMS").

This is the integrated data repository of Fig.1: it manages design
object types (schemas), design object versions, and per-DA derivation
graphs.  The server-TM drives it through four operations:

* :meth:`create_graph` — open a derivation graph for a new DA;
* :meth:`read` — checkout-side read of a durable DOV;
* :meth:`stage_checkin` / :meth:`commit_checkin` / :meth:`abort_checkin`
  — the two-phase checkin used by the TM's 2PC between client and
  server ("client-TM and server-TM have to accomplish a two-phase-commit
  protocol for all their critical interactions", Sect.5.2);
* :meth:`crash` / :meth:`recover` — server-failure semantics: durable
  DOVs and graph structure are rebuilt from the WAL.

Schema consistency is enforced here: "The consistency of the newly
created DOV has to be checked" on checkin (Sect.5.2) — violations raise
:class:`IntegrityError`, which the TM reports upward as the paper's
'checkin failure' situation.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.repository.schema import DesignObjectType
from repro.repository.storage import VersionStore
from repro.repository.versions import (
    DerivationGraph,
    DesignObjectVersion,
    FrozenList,
    freeze_payload,
)
from repro.repository.wal import LogRecordKind, WriteAheadLog
from repro.util.errors import (
    IntegrityError,
    SchemaError,
    StorageError,
    UnknownObjectError,
)
from repro.util.ids import IdGenerator


class DesignDataRepository:
    """Versioned complex-object store with per-DA derivation graphs."""

    def __init__(self, ids: IdGenerator | None = None) -> None:
        self.ids = ids or IdGenerator()
        self.wal = WriteAheadLog("repository")
        self.store = VersionStore(self.wal)
        self._dots: dict[str, DesignObjectType] = {}
        self._graphs: dict[str, DerivationGraph] = {}
        #: staged checkins: dov_id -> owning graph (DA id)
        self._pending: dict[str, str] = {}
        #: observer fired with every newly durable DOV — the server-TM
        #: hangs its lease-invalidation scheduling here
        self.on_commit: Callable[[DesignObjectVersion], None] | None = None

    # ------------------------------------------------------------------ schema

    def register_dot(self, dot: DesignObjectType) -> DesignObjectType:
        """Register a design object type (idempotent for identical names)."""
        existing = self._dots.get(dot.name)
        if existing is not None and existing is not dot:
            raise SchemaError(f"DOT {dot.name!r} already registered")
        self._dots[dot.name] = dot
        return dot

    def dot(self, name: str) -> DesignObjectType:
        """Look up a registered DOT."""
        try:
            return self._dots[name]
        except KeyError:
            raise UnknownObjectError(f"DOT {name!r} not registered") from None

    def dots(self) -> Iterator[DesignObjectType]:
        """All registered DOTs."""
        return iter(self._dots.values())

    # ------------------------------------------------------------------ graphs

    def create_graph(self, da_id: str) -> DerivationGraph:
        """Open the derivation graph for a newly created DA."""
        if da_id in self._graphs:
            raise UnknownObjectError(
                f"derivation graph for {da_id!r} already exists")
        graph = DerivationGraph(owner=da_id)
        self._graphs[da_id] = graph
        self.wal.append(LogRecordKind.GRAPH_CREATE, {"da": da_id}, force=True)
        return graph

    def graph(self, da_id: str) -> DerivationGraph:
        """The derivation graph of a DA."""
        try:
            return self._graphs[da_id]
        except KeyError:
            raise UnknownObjectError(
                f"no derivation graph for DA {da_id!r}") from None

    def has_graph(self, da_id: str) -> bool:
        """True when *da_id* owns a derivation graph."""
        return da_id in self._graphs

    def graph_ids(self) -> list[str]:
        """DAs owning a derivation graph here — what a federation
        coordinator reads to rebuild DA placement after losing its
        in-memory index."""
        return list(self._graphs)

    # ------------------------------------------------------------------ reads

    def read(self, dov_id: str) -> DesignObjectVersion:
        """Read a durable version (checkout-side access)."""
        return self.store.get(dov_id)

    def describe(self, dov_id: str) -> dict[str, Any]:
        """Shipping metadata of a durable version (no payload transfer).

        The read-path surface of the data-shipping protocol: the
        modelled payload size (what a checkout fetch costs on the LAN)
        and the version stamp, without shipping the data itself.
        """
        dov = self.store.get(dov_id)
        return {
            "dov_id": dov.dov_id,
            "payload_size": dov.payload_size,
            "stamp": dov.stamp,
        }

    def describe_many(self, dov_ids: list[str]
                      ) -> dict[str, dict[str, Any]]:
        """Batch :meth:`describe`: one control round-trip, many stamps.

        Ids that are not (or no longer) durable are simply absent from
        the result — the caller treats absence as "drop your copy".
        This is the server half of stamp-based buffer re-validation:
        after a server restart a workstation sends its resident ids
        and keeps exactly those whose stamps still match.
        """
        descriptions: dict[str, dict[str, Any]] = {}
        for dov_id in dov_ids:
            if dov_id in self.store:
                descriptions[dov_id] = self.describe(dov_id)
        return descriptions

    def invalidation_targets(self, dov: DesignObjectVersion) -> list[str]:
        """Durable versions a committed *dov* supersedes (its parents).

        The server-TM revokes the read leases on exactly these ids
        when *dov* becomes durable.
        """
        return list(filter(self.store._stable.__contains__, dov.parents))

    def __contains__(self, dov_id: str) -> bool:
        return dov_id in self.store

    # ------------------------------------------------------------- checkin 2PC

    def stage_checkin(self, da_id: str, dot_name: str,
                      data: dict[str, Any], parents: tuple[str, ...],
                      created_at: float) -> DesignObjectVersion:
        """Phase 1 of checkin: validate and stage a new version.

        Raises :class:`IntegrityError` when the data violates the DOT's
        schema constraints — the paper's 'checkin failure' case — and
        :class:`UnknownObjectError` for unknown parents or graph.
        """
        store = self.store
        if not store._up:
            # surface the outage, not a bogus unknown-graph error (the
            # graphs map is volatile and empty while crashed)
            raise StorageError("repository is down (server crash)")
        dot = self._dots.get(dot_name)
        if dot is None:
            self.dot(dot_name)      # raises: not registered
        if da_id not in self._graphs:
            self.graph(da_id)       # raises: no such graph
        problems = dot.validate(data)
        if problems:
            raise IntegrityError(
                f"checkin into {da_id!r} rejected: " + "; ".join(problems))
        stable = store._stable
        for parent in parents:
            if parent not in stable:
                raise UnknownObjectError(
                    f"parent DOV {parent!r} is not durable")
        dov = DesignObjectVersion(
            dov_id=self.ids.next("dov"),
            dot_name=dot_name,
            # a payload the client already froze is adopted as-is (the
            # version freezes anything else): the durable version then
            # *shares* the immutable data and its cached size with the
            # shipped copy — zero re-walk
            data=data,
            created_by=da_id,
            created_at=created_at,
            parents=parents,
        )
        store.stage(dov)
        self._pending[dov.dov_id] = da_id
        return dov

    def commit_checkin(self, dov_id: str) -> DesignObjectVersion:
        """Phase 2 (commit): make the version durable, extend the graph."""
        return self._commit_staged([dov_id])[0]

    def commit_group(self, dov_ids: list[str]) -> list[DesignObjectVersion]:
        """Phase 2 (commit) for a whole staged group, atomically: the
        one commit path; a single checkin is a group of one.

        The durability of the batch rides on a single forced WAL flush
        (:meth:`~repro.repository.storage.VersionStore.commit_batch`):
        a server crash mid-group loses the entire unforced tail, so
        recovery sees all of the batch or none of it.  Graphs extend
        and the :attr:`on_commit` observer fires per version *in batch
        order* — lease invalidations for a group are therefore
        scheduled in the same deterministic order the workstation
        checked the versions in.
        """
        if not self.store._up:
            # the staging bookkeeping is volatile: while crashed, the
            # honest answer is "down", not "unknown DOV"
            raise StorageError("repository is down (server crash)")
        pending = self._pending
        owners = []
        for dov_id in dov_ids:
            owner = pending.get(dov_id)
            if owner is None:
                raise UnknownObjectError(
                    f"no staged checkin for DOV {dov_id!r}")
            owners.append(owner)
        dovs = self.store.commit_batch(dov_ids)
        for dov_id in dov_ids:
            del pending[dov_id]
        graphs = self._graphs
        for dov, da_id in zip(dovs, owners):
            graphs[da_id].add(dov)
            if self.on_commit is not None:
                self.on_commit(dov)
        return dovs

    #: the same path under a private name, for :meth:`commit_checkin`:
    #: the two public names do not call each other, because
    #: ``benchmarks/e2e/spans.py`` wraps both and counts their sum
    _commit_staged = commit_group

    def abort_checkin(self, dov_id: str) -> bool:
        """Phase 2 (abort): drop the staged version."""
        self._pending.pop(dov_id, None)
        return self.store.discard(dov_id)

    # ----------------------------------------- federated commit participant

    def prepare_group(self, gtxn_id: str, dov_ids: list[str]) -> None:
        """Member phase 1 of a cross-member batch: force a prepare
        record carrying the batch's complete redo information.

        After this returns, the member can apply the coordinator's
        COMMIT decision even if it crashes first: :meth:`redo_group`
        rebuilds the staged versions from the record.  One forced WAL
        write per member per batch — the participant half of the
        presumed-abort protocol (no abort record will ever be forced).
        """
        records = []
        for dov_id in dov_ids:
            dov = self.store.staged(dov_id)
            records.append({
                "dov_id": dov.dov_id,
                "dot": dov.dot_name,
                "created_by": dov.created_by,
                "created_at": dov.created_at,
                "parents": FrozenList(dov.parents),
                "data": dov.data,
                "owner": self._pending.get(dov_id, dov.created_by),
            })
        self.wal.append(LogRecordKind.TXN_PREPARE,
                        {"gtxn": gtxn_id,
                         "records": freeze_payload(records)},
                        force=True)

    def complete_group(self, gtxn_id: str,
                       dov_ids: list[str]) -> list[DesignObjectVersion]:
        """Member phase 2 of a cross-member batch: apply the logged
        COMMIT decision (atomic :meth:`commit_group`, one WAL force),
        then settle the prepare with an un-forced commit marker."""
        dovs = self.commit_group(dov_ids)
        self.wal.append(LogRecordKind.TXN_COMMIT, {"gtxn": gtxn_id},
                        force=False)
        return dovs

    def forget_group(self, gtxn_id: str, dov_ids: list[str]) -> int:
        """Member abort of a prepared batch (presumed abort: the
        marker is never forced — a missing decision means abort)."""
        discarded = self.abort_group(dov_ids)
        self.wal.append(LogRecordKind.TXN_ABORT, {"gtxn": gtxn_id},
                        force=False)
        return discarded

    def _prepare_record(self, gtxn_id: str) -> dict[str, Any] | None:
        for record in self.wal.stable_records(LogRecordKind.TXN_PREPARE):
            if record.payload.get("gtxn") == gtxn_id:
                return record.payload
        return None

    def in_doubt_groups(self) -> list[str]:
        """Prepared batches without a stable commit/abort marker, in
        prepare order — what a recovering member asks the global
        decision log about."""
        settled = {
            record.payload.get("gtxn")
            for kind in (LogRecordKind.TXN_COMMIT, LogRecordKind.TXN_ABORT)
            for record in self.wal.stable_records(kind)}
        in_doubt: list[str] = []
        for record in self.wal.stable_records(LogRecordKind.TXN_PREPARE):
            gtxn_id = record.payload.get("gtxn")
            if gtxn_id in settled or gtxn_id in in_doubt:
                continue
            if all(raw["dov_id"] in self.store
                   for raw in record.payload["records"]):
                # the whole portion is durable (the commit marker was
                # merely un-forced): effectively settled, no redo
                continue
            in_doubt.append(gtxn_id)
        return in_doubt

    def redo_group(self, gtxn_id: str) -> list[DesignObjectVersion]:
        """Re-apply a logged COMMIT decision after a member crash.

        Rebuilds the batch from the forced prepare record, re-stages
        whatever is not yet durable and commits it through the normal
        atomic group path (fresh ``DOV_CHECKIN`` records + one force,
        so a *second* crash recovers deterministically too).
        Idempotent: already-durable versions are skipped, so redo
        converges no matter how often recovery re-runs it.  The
        :attr:`on_commit` observer fires for every *newly* durable
        version in batch order — exactly what the first commit would
        have produced.
        """
        payload = self._prepare_record(gtxn_id)
        if payload is None:
            raise UnknownObjectError(
                f"no prepare record for batch {gtxn_id!r}")
        to_commit: list[str] = []
        for raw in payload["records"]:
            if raw["dov_id"] in self.store:
                continue  # already durable: redo is idempotent
            dov = DesignObjectVersion(
                dov_id=raw["dov_id"], dot_name=raw["dot"],
                data=raw["data"],
                created_by=raw["created_by"],
                created_at=raw["created_at"],
                parents=tuple(raw["parents"]))
            self.store.stage(dov)
            self._pending[dov.dov_id] = raw.get("owner",
                                                raw["created_by"])
            to_commit.append(dov.dov_id)
        redone = {dov.dov_id: dov
                  for dov in (self.commit_group(to_commit)
                              if to_commit else [])}
        self.wal.append(LogRecordKind.TXN_COMMIT, {"gtxn": gtxn_id},
                        force=False)
        return [redone.get(raw["dov_id"], None)
                or self.store.get(raw["dov_id"])
                for raw in payload["records"]]

    def abort_group(self, dov_ids: list[str]) -> int:
        """Phase 2 (abort) for a staged group; returns #discarded."""
        return sum(1 for dov_id in dov_ids if self.abort_checkin(dov_id))

    def checkin(self, da_id: str, dot_name: str, data: dict[str, Any],
                parents: tuple[str, ...] = (),
                created_at: float = 0.0) -> DesignObjectVersion:
        """One-shot checkin (stage + commit) for non-distributed callers."""
        dov = self.stage_checkin(da_id, dot_name, data, parents, created_at)
        return self.commit_checkin(dov.dov_id)

    # ------------------------------------------------------------------ failure

    def crash(self) -> dict[str, int]:
        """Server crash: volatile state (staged checkins, graphs map) lost."""
        report = self.store.crash()
        report["pending_lost"] = len(self._pending)
        self._pending.clear()
        self._graphs.clear()
        return report

    def recover(self) -> dict[str, int]:
        """Restart: redo the WAL to rebuild durable DOVs and derivation
        graphs."""
        recovered = self.store.recover()
        for record in self.wal.stable_records(LogRecordKind.GRAPH_CREATE):
            da_id = record.payload["da"]
            if da_id not in self._graphs:
                self._graphs[da_id] = DerivationGraph(owner=da_id)
        # (re)populate graphs from the durable versions, parents first
        def creation_order(dov: DesignObjectVersion) -> tuple:
            suffix = dov.dov_id.rsplit("-", 1)[-1]
            numeric = int(suffix) if suffix.isdigit() else 0
            return (dov.created_at, numeric, dov.dov_id)

        for dov in sorted(self.store, key=creation_order):
            graph = self._graphs.get(dov.created_by)
            if graph is not None and dov.dov_id not in graph:
                graph.add(dov)
        return {"versions": recovered, "graphs": len(self._graphs)}
