"""Federated (distributed, heterogeneous) design data repositories.

The paper's future work (Sect.6): "A realistic approach needs to
consider distributed data management by heterogeneous facilities in
order to support data exchange and interoperability of these tools.
Since CONCORD has been designed to be a distributed, transactional
system we assume that heterogeneous and distributed data management
does not influence the major model of operation."

:class:`FederatedRepository` validates that assumption: it presents the
exact :class:`~repro.repository.repository.DesignDataRepository`
interface the TM and CM consume, while placing each DA's derivation
graph on one of several member repositories and routing reads through a
global DOV directory.  The activity managers run unchanged on top of
it — the property the paper predicts.

Scale story (the production-federation arc): every home lookup —
staged or durable — is one lookup in the coordinator's own maps (DA
homes, staged-version homes, the durable DOV directory), so
cross-member ``commit_group`` resolution is O(batch) at any member
count (the seed scanned every member's ``staged_ids()`` per version),
reads stay O(1) at millions of DOVs, and after a coordinator or
whole-site loss :meth:`recover_directory` rebuilds all three maps from
the members' own WAL-recovered stores — they are a volatile cache of
the federation's durable truth, never the truth itself.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.repository.repository import DesignDataRepository
from repro.repository.schema import DesignObjectType
from repro.repository.versions import DerivationGraph, DesignObjectVersion
from repro.txn.decision_log import GlobalDecisionLog
from repro.txn.gateway import Decision
from repro.util.errors import StorageError, UnknownObjectError


class FederatedRepository:
    """Several member repositories behind one repository interface.

    Placement: every DA is assigned to one member (explicitly via
    :meth:`assign`, else round-robin); the DA's derivation graph and
    all DOVs it checks in live there.  The staged-home map and the
    directory map DOV ids (staged and durable) to members so
    cross-member reads and commits are transparent *and*
    member-count-independent.
    """

    def __init__(self,
                 members: dict[str, DesignDataRepository]) -> None:
        if not members:
            raise ValueError("a federation needs at least one member")
        self._members = dict(members)
        self._member_order = list(members)
        #: durable coordinator-side decision log: the commit point of
        #: every cross-member batch (presumed-abort recovery)
        self.decision_log = GlobalDecisionLog()
        self._next_gtxn = 0
        #: batch portions redone from a member's prepare record
        self.redone_batches = 0
        #: da id -> member (assign pins + round-robin placements)
        self._homes: dict[str, str] = {}
        self._next_member = 0
        #: staged (uncommitted) dov id -> member
        self._staged: dict[str, str] = {}
        #: durable dov id -> member (the global directory)
        self._directory: dict[str, str] = {}
        #: federation-level commit observer (lease invalidations);
        #: notices originate at the owning member and are routed up
        #: through the directory by :meth:`_member_committed`
        self.on_commit: Callable[[DesignObjectVersion], None] | None = None
        for name, repo in self._members.items():
            repo.on_commit = (
                lambda dov, member=name: self._member_committed(member,
                                                                dov))

    # -- membership ------------------------------------------------------------

    def member(self, name: str) -> DesignDataRepository:
        """Access one member repository."""
        try:
            return self._members[name]
        except KeyError:
            raise UnknownObjectError(
                f"no federation member {name!r}") from None

    def members(self) -> dict[str, DesignDataRepository]:
        """All members by name."""
        return dict(self._members)

    def assign(self, da_id: str, member: str) -> None:
        """Pin a DA's data to a specific member (before create_graph)."""
        self.member(member)
        self._homes[da_id] = member

    def placement_of(self, da_id: str) -> str:
        """The member holding a DA's derivation graph."""
        home = self._homes.get(da_id)
        if home is None:
            raise UnknownObjectError(
                f"DA {da_id!r} is not placed in the federation")
        return home

    def _home(self, da_id: str) -> DesignDataRepository:
        return self.member(self.placement_of(da_id))

    def _locate_dov(self, dov_id: str) -> DesignDataRepository:
        member = self._directory.get(dov_id)
        if member is None:
            raise UnknownObjectError(
                f"DOV {dov_id!r} not in the federation directory")
        return self.member(member)

    def directory_snapshot(self) -> dict[str, str]:
        """Copy of the durable DOV directory — what the rebuild-equality
        checks (and the crash-matrix tests) compare against."""
        return dict(self._directory)

    def _member_committed(self, member: str,
                          dov: DesignObjectVersion) -> None:
        """A member made *dov* durable: move it from the staged-home
        map into the directory and route the commit notice (lease
        invalidations!) from the owning member up to the
        federation-level observer."""
        self._staged.pop(dov.dov_id, None)
        self._directory[dov.dov_id] = member
        if self.on_commit is not None:
            self.on_commit(dov)

    # -- schema (broadcast: every member knows every DOT) ------------------------

    def register_dot(self, dot: DesignObjectType) -> DesignObjectType:
        """Register a DOT with every member (heterogeneity-transparent)."""
        for repo in self._members.values():
            if dot.name not in {d.name for d in repo.dots()}:
                repo.register_dot(dot)
        return dot

    def dot(self, name: str) -> DesignObjectType:
        """Look up a DOT (any member; schemas are broadcast)."""
        first = self._members[self._member_order[0]]
        return first.dot(name)

    def dots(self) -> Iterator[DesignObjectType]:
        """All DOTs (from the first member; schemas are broadcast)."""
        return self._members[self._member_order[0]].dots()

    # -- graphs ---------------------------------------------------------------------

    def create_graph(self, da_id: str) -> DerivationGraph:
        """Open a DA's graph on its (assigned or strategy-placed)
        member."""
        if da_id not in self._homes:
            self._homes[da_id] = self._member_order[
                self._next_member % len(self._member_order)]
            self._next_member += 1
        return self._home(da_id).create_graph(da_id)

    def graph(self, da_id: str) -> DerivationGraph:
        """The derivation graph of a DA (wherever it lives)."""
        return self._home(da_id).graph(da_id)

    def has_graph(self, da_id: str) -> bool:
        """True when some member holds a graph for *da_id*."""
        if da_id not in self._homes:
            return False
        return self._home(da_id).has_graph(da_id)

    # -- reads -----------------------------------------------------------------------

    def read(self, dov_id: str) -> DesignObjectVersion:
        """Directory-routed read across members."""
        return self._locate_dov(dov_id).read(dov_id)

    def describe(self, dov_id: str) -> dict[str, Any]:
        """Directory-routed shipping metadata (size + version stamp)."""
        description = self._locate_dov(dov_id).describe(dov_id)
        description["member"] = self._directory[dov_id]
        return description

    def describe_many(self, dov_ids: list[str]
                      ) -> dict[str, dict[str, Any]]:
        """Batch describe, directory-routed; unknown ids are absent.

        Federation-wide stamp re-validation: each id is answered by
        the member that owns it, so a workstation buffer mixing DOVs
        from several members re-validates them all in one call.
        """
        descriptions: dict[str, dict[str, Any]] = {}
        for dov_id in dov_ids:
            member = self._directory.get(dov_id)
            if member is not None \
                    and dov_id in self._members[member]:
                descriptions[dov_id] = self.describe(dov_id)
        return descriptions

    def invalidation_targets(self, dov: DesignObjectVersion) -> list[str]:
        """Versions a committed *dov* supersedes, federation-wide.

        Routed through the global directory: cross-member parents
        (usage-relationship inputs living on other members) are
        invalidation targets too, which a single member could never
        determine from its own store.
        """
        return [p for p in dov.parents if p in self._directory]

    def __contains__(self, dov_id: str) -> bool:
        member = self._directory.get(dov_id)
        return member is not None and dov_id in self._members[member]

    # -- checkin ---------------------------------------------------------------------

    def stage_checkin(self, da_id: str, dot_name: str,
                      data: dict[str, Any], parents: tuple[str, ...],
                      created_at: float) -> DesignObjectVersion:
        """Stage on the DA's home member.

        Cross-member parents are legitimate (usage-relationship
        inputs): they are checked against the directory instead of the
        home member's store.  The staged version's home is recorded in
        the staged-home map — the O(1) entry every later commit/abort
        resolution reads instead of scanning members.
        """
        home_name = self.placement_of(da_id)
        home = self.member(home_name)
        local_parents = tuple(p for p in parents if p in home.store)
        foreign_parents = [p for p in parents if p not in home.store]
        for parent in foreign_parents:
            if parent not in self._directory:
                raise UnknownObjectError(
                    f"parent DOV {parent!r} unknown to the federation")
        dov = home.stage_checkin(da_id, dot_name, data, local_parents,
                                 created_at)
        if foreign_parents:
            # record the full (cross-member) lineage on the version
            patched = DesignObjectVersion(
                dov.dov_id, dov.dot_name, dov.data, dov.created_by,
                dov.created_at, tuple(parents))
            home.store.replace_staged(patched)
            dov = patched
        self._staged[dov.dov_id] = home_name
        return dov

    def commit_checkin(self, dov_id: str) -> DesignObjectVersion:
        """Commit on the member that staged it; update the directory."""
        name = self._staged.get(dov_id)
        if name is None:
            raise UnknownObjectError(
                f"no staged checkin for DOV {dov_id!r} in any member")
        # the member's commit observer moves the id from the
        # staged-home map into the durable directory
        return self._members[name].commit_checkin(dov_id)

    def abort_checkin(self, dov_id: str) -> bool:
        """Abort wherever the version was staged."""
        name = self._staged.pop(dov_id, None)
        if name is None:
            return False
        return self._members[name].abort_checkin(dov_id)

    def _resolve_batch_homes(self, dov_ids: list[str]) -> dict[str, str]:
        """Map every staged id of a batch to its home member.

        O(batch) — one staged-home lookup per id, zero member scans.  An
        unresolvable id aborts the whole batch
        (presumed abort): the whole batch is resolved first, then every
        resolved id — before or after the first unresolvable one — is
        un-staged so nothing dangles, and the error names any down
        member.
        """
        staged = self._staged
        homes = {dov_id: staged[dov_id] for dov_id in dov_ids
                 if dov_id in staged}
        missing = next((dov_id for dov_id in dov_ids
                        if dov_id not in homes), None)
        if missing is None:
            return homes
        for placed_id in homes:
            self.abort_checkin(placed_id)
        down = [name for name, repo in self._members.items()
                if not repo.store.is_up]
        if down:
            raise StorageError(
                f"DOV {missing!r} unresolvable with member(s) "
                f"{down} down: batch aborted")
        raise UnknownObjectError(
            f"no staged checkin for DOV {missing!r} in any member")

    def commit_group(self, dov_ids: list[str]) -> list[DesignObjectVersion]:
        """Commit a staged group atomically, *across* members.

        The federated atomic commit (paper Sect.6's distributed-commit
        direction).  Three phases under one coordinator:

        1. **prepare** — every owning member forces one prepare record
           carrying its portion's redo information; a member that is
           down here aborts the whole batch (presumed abort: the
           survivors discard their staged portions, nothing is logged);
        2. **decide** — the COMMIT decision and the batch manifest go
           to the :attr:`decision_log` in **one forced write**: the
           global commit point;
        3. **complete** — :meth:`_settle` applies the decision at every
           member through its atomic
           :meth:`DesignDataRepository.commit_group` (one WAL force per
           member).  A member that crashed *after* the decision is
           simply skipped: :meth:`recover_member` consults the log and
           redoes its portion deterministically, so the batch is
           all-or-nothing even under member crashes.

        Home resolution costs O(batch) via the staged-home map — the
        cost of a cross-member commit is independent of how many
        members the federation has.  Returns the versions that became
        durable *now*, in batch order; portions pending redo at a
        crashed member are absent until its recovery completes them.
        ``on_commit`` notices fire per version in batch order, routed
        through the directory.
        """
        homes = self._resolve_batch_homes(dov_ids)
        manifest = {name: [i for i in dov_ids if homes[i] == name]
                    for name in dict.fromkeys(homes.values())}
        self._next_gtxn += 1
        gtxn_id = f"gtxn-{self._next_gtxn}"

        if len(manifest) == 1:
            # single-member batch: the member's own atomic commit is
            # the whole protocol — no global decision needed.  The
            # member must be checked for availability first: a down
            # member here is a presumed abort (its staged portion died
            # with the crash), not a raw low-level storage fault
            (name, member_ids), = manifest.items()
            member = self._members[name]
            if not member.store.is_up:
                for dov_id in member_ids:
                    self._staged.pop(dov_id, None)
                raise StorageError(
                    f"member {name!r} down: single-member batch "
                    f"{gtxn_id!r} aborted (presumed abort, nothing "
                    f"was logged)")
            committed = {}
            for dov in member.commit_group(member_ids):
                committed[dov.dov_id] = dov
            return [committed[dov_id] for dov_id in dov_ids]

        self._prepare_batch(gtxn_id, manifest)
        # the global commit point: one forced decision-log write
        self.decision_log.record(gtxn_id, manifest)
        committed = {dov.dov_id: dov for dov in self._settle(gtxn_id)}
        return [committed[dov_id] for dov_id in dov_ids
                if dov_id in committed]

    def _prepare_batch(self, gtxn_id: str,
                       manifest: dict[str, list[str]]) -> None:
        """Phase 1: forced prepare records at every owning member."""
        prepared: list[str] = []
        for name, member_ids in manifest.items():
            try:
                self._members[name].prepare_group(gtxn_id, member_ids)
            except StorageError as exc:
                # presumed abort: no decision record exists, so the
                # batch aborts everywhere — every live member discards
                # its staged portion (prepared or not); the down
                # member's staging was volatile and died with it
                for other, other_ids in manifest.items():
                    if other == name:
                        for dov_id in other_ids:
                            self._staged.pop(dov_id, None)
                        continue
                    if other in prepared:
                        self._members[other].forget_group(gtxn_id,
                                                          other_ids)
                    else:
                        self._members[other].abort_group(other_ids)
                    for dov_id in other_ids:
                        self._staged.pop(dov_id, None)
                raise StorageError(
                    f"member {name!r} down during prepare of "
                    f"{gtxn_id!r}: batch aborted") from exc
            prepared.append(name)

    def _settle(self, gtxn_id: str) -> list[DesignObjectVersion]:
        """Bring every manifest member of a logged COMMIT decision to it.

        The one settlement path: the live commit right after the
        decision record, coordinator recovery
        (:meth:`resolve_incomplete`) and member recovery
        (:meth:`recover_member`) all take it.  Per member, a durable
        portion is left alone, a staged portion completes through the
        member's atomic commit, a portion lost to a crash is redone
        from the member's prepare record (one more
        :attr:`redone_batches`), and a member that is down is left for
        its own recovery.  Once no member is down, the decision is
        marked complete.  Returns the versions that became durable
        now; the members' commit observers have already moved them
        into the directory.
        """
        committed: list[DesignObjectVersion] = []
        pending = False
        for name, member_ids in self.decision_log.manifest(gtxn_id).items():
            member = self._members[name]
            if not member.store.is_up:
                pending = True
                continue
            if all(dov_id in member.store for dov_id in member_ids):
                continue
            staged = member.store.staged_ids()
            if all(dov_id in staged for dov_id in member_ids):
                committed += member.complete_group(gtxn_id, member_ids)
            else:
                committed += member.redo_group(gtxn_id)
                self.redone_batches += 1
        if not pending:
            self.decision_log.mark_complete(gtxn_id)
        return committed

    def resolve_incomplete(self) -> int:
        """Coordinator recovery: settle every logged-but-incomplete
        COMMIT decision (e.g. after a coordinator crash between the
        decision record and the participant notifications).  Returns
        the number of batches settled; a batch with a member still
        down stays incomplete until that member recovers.
        """
        pending = self.decision_log.incomplete()
        for gtxn_id in pending:
            self._settle(gtxn_id)
        return len(pending) - len(self.decision_log.incomplete())

    def abort_group(self, dov_ids: list[str]) -> int:
        """Abort a staged group wherever its versions live."""
        return sum(1 for dov_id in dov_ids if self.abort_checkin(dov_id))

    def checkin(self, da_id: str, dot_name: str, data: dict[str, Any],
                parents: tuple[str, ...] = (),
                created_at: float = 0.0) -> DesignObjectVersion:
        """One-shot checkin via the DA's home member."""
        dov = self.stage_checkin(da_id, dot_name, data, parents,
                                 created_at)
        return self.commit_checkin(dov.dov_id)

    # -- failure ---------------------------------------------------------------------

    def crash_member(self, name: str) -> dict[str, int]:
        """Crash one member; the others keep serving.  The member's
        staged versions were volatile, so their staged-home entries
        are dropped with it."""
        report = self.member(name).crash()
        stale = [dov_id for dov_id, home in self._staged.items()
                 if home == name]
        for dov_id in stale:
            del self._staged[dov_id]
        report["staged_index_dropped"] = len(stale)
        return report

    def recover_member(self, name: str) -> dict[str, int]:
        """Recover one member from its own WAL, then settle its
        in-doubt cross-member batches against the global decision log.

        Presumed abort: a prepared batch with a logged COMMIT decision
        is settled (:meth:`_settle` redoes the member's portion from
        its prepare record — the crash hit between the global decision
        and the member's apply); a prepared batch without a decision
        record aborted — the member simply settles it and moves on.
        This is what makes a cross-member ``commit_group``
        all-or-nothing under member crashes: the decision, not the
        member's luck, determines the outcome.
        """
        member = self.member(name)
        report = member.recover()
        redone_before = self.redone_batches
        for gtxn_id in member.in_doubt_groups():
            if self.decision_log.resolve(gtxn_id) is Decision.COMMIT:
                self._settle(gtxn_id)
            else:
                # presumed abort: no decision record means the batch
                # aborted; the staged portion died with the crash, so
                # settling the prepare marker is all that remains
                member.forget_group(gtxn_id, [])
        report["redone_batches"] = self.redone_batches - redone_before
        return report

    def crash(self) -> dict[str, int]:
        """Whole-site failure (interface parity with
        :class:`DesignDataRepository`): every member crashes
        (:meth:`crash_member`), then the coordinator
        (:meth:`crash_coordinator`).  The forced log records at the
        members and the coordinator are what recovery rebuilds from;
        nothing assumes the in-memory directory survives.
        """
        totals: dict[str, int] = {}
        for name in self._member_order:
            for key, value in self.crash_member(name).items():
                totals[key] = totals.get(key, 0) + value
        totals.update(self.crash_coordinator())
        return totals

    def recover(self) -> dict[str, int]:
        """Recover every member from its own WAL, settle every in-doubt
        cross-member batch against the decision log (itself rebuilt
        from its forced records first), then rebuild the placement
        maps from the members' recovered stores."""
        totals: dict[str, int] = {
            "decisions_recovered": self.decision_log.recover()}
        for name in self._member_order:
            for key, value in self.recover_member(name).items():
                totals[key] = totals.get(key, 0) + value
        totals["directory_entries_rebuilt"] = \
            self.recover_directory()["directory_entries"]
        return totals

    def crash_coordinator(self) -> dict[str, int]:
        """Coordinator-only loss: the members keep serving, but the
        decision log's memory + un-forced tail and the placement maps
        — DA homes, staged-home map, DOV directory — vanish.
        :meth:`recover_coordinator` is the restart."""
        report = {
            "decision_tail_lost": self.decision_log.crash(),
            "directory_entries_lost": len(self._directory),
        }
        self._homes.clear()
        self._staged.clear()
        self._directory.clear()
        return report

    def recover_coordinator(self) -> dict[str, int]:
        """Coordinator restart: rebuild the decision log from its
        forced records, the placement maps from the members' stores
        (:meth:`recover_directory`), then finish every logged-but-
        incomplete decision (:meth:`resolve_incomplete`)."""
        totals = {"decisions_recovered": self.decision_log.recover()}
        totals.update(self.recover_directory())
        totals["settled"] = self.resolve_incomplete()
        return totals

    def recover_directory(self) -> dict[str, int]:
        """Rebuild the placement maps from the members themselves.

        The maps are a volatile cache of durable member truth: DA
        homes come from each member's (WAL-recovered) derivation
        graphs, directory entries from its durable store, staged-home
        entries from its staged set.  A member that is still down
        contributes whatever the surviving maps already knew about it
        (its WAL will refresh those entries when it recovers); pins
        made by :meth:`assign` before ``create_graph`` are volatile by
        design and do not survive a coordinator loss.

        Returns rebuild counters; callers that want the equality
        guarantee compare :meth:`directory_snapshot` before and after.
        """
        homes: dict[str, str] = {}
        staged: dict[str, str] = {}
        directory: dict[str, str] = {}
        down = 0
        for name in self._member_order:
            member = self._members[name]
            if not member.store.is_up:
                down += 1
                for da_id, home in self._homes.items():
                    if home == name:
                        homes[da_id] = home
                for dov_id, home in self._directory.items():
                    if home == name:
                        directory[dov_id] = home
                continue
            for da_id in member.graph_ids():
                homes[da_id] = name
            for dov in member.store:
                directory[dov.dov_id] = name
            for dov_id in member.store.staged_ids():
                staged[dov_id] = name
        self._homes, self._staged, self._directory = \
            homes, staged, directory
        # keep round-robin fair after a rebuild: skip past the homes
        # already handed out
        self._next_member = max(self._next_member, len(homes))
        return {
            "placements": len(homes),
            "staged_index": len(staged),
            "directory_entries": len(directory),
            "members_down": down,
        }
