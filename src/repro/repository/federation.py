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
staged or durable — goes through the coordinator-side
:class:`~repro.repository.placement.PlacementIndex`, so cross-member
``commit_group`` resolution is O(batch) at any member count (the seed
scanned every member's ``staged_ids()`` per version), reads stay O(1)
at millions of DOVs, and after a coordinator or whole-site loss
:meth:`recover_directory` rebuilds the entire index from the members'
own WAL-recovered stores.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.repository.placement import PlacementIndex
from repro.repository.repository import DesignDataRepository
from repro.repository.schema import DesignObjectType
from repro.repository.versions import DerivationGraph, DesignObjectVersion
from repro.txn.decision_log import GlobalDecisionLog
from repro.util.errors import StorageError, UnknownObjectError


class FederatedRepository:
    """Several member repositories behind one repository interface.

    Placement: every DA is assigned to one member (explicitly via
    :meth:`assign`, else round-robin); the DA's derivation graph and
    all DOVs it checks in live there.  The placement index maps DOV
    ids (staged and durable) to members so cross-member reads and
    commits are transparent *and* member-count-independent.
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
        #: cross-member batches redone at member recovery
        self.redone_batches = 0
        #: DA homes + staged-home map + durable directory, all O(1)
        self.placement_index = PlacementIndex(self._member_order)
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
        self.placement_index.assign(da_id, member)

    def placement_of(self, da_id: str) -> str:
        """The member holding a DA's derivation graph."""
        home = self.placement_index.home_of(da_id)
        if home is None:
            raise UnknownObjectError(
                f"DA {da_id!r} is not placed in the federation")
        return home

    def _home(self, da_id: str) -> DesignDataRepository:
        return self.member(self.placement_of(da_id))

    def _locate_dov(self, dov_id: str) -> DesignDataRepository:
        member = self.placement_index.locate(dov_id)
        if member is None:
            raise UnknownObjectError(
                f"DOV {dov_id!r} not in the federation directory")
        return self.member(member)

    def directory_snapshot(self) -> dict[str, str]:
        """Copy of the durable DOV directory — what the rebuild-equality
        checks (and the crash-matrix tests) compare against."""
        return self.placement_index.directory_snapshot()

    def _member_committed(self, member: str,
                          dov: DesignObjectVersion) -> None:
        """A member made *dov* durable: move it from the staged-home
        map into the directory and route the commit notice (lease
        invalidations!) from the owning member up to the
        federation-level observer."""
        self.placement_index.commit_durable(dov.dov_id, member)
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
        self.placement_index.place(da_id)
        return self._home(da_id).create_graph(da_id)

    def graph(self, da_id: str) -> DerivationGraph:
        """The derivation graph of a DA (wherever it lives)."""
        return self._home(da_id).graph(da_id)

    def has_graph(self, da_id: str) -> bool:
        """True when some member holds a graph for *da_id*."""
        if self.placement_index.home_of(da_id) is None:
            return False
        return self._home(da_id).has_graph(da_id)

    # -- reads -----------------------------------------------------------------------

    def read(self, dov_id: str) -> DesignObjectVersion:
        """Directory-routed read across members."""
        return self._locate_dov(dov_id).read(dov_id)

    def describe(self, dov_id: str) -> dict[str, Any]:
        """Directory-routed shipping metadata (size + version stamp)."""
        description = self._locate_dov(dov_id).describe(dov_id)
        description["member"] = self.placement_index.locate(dov_id)
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
            member = self.placement_index.locate(dov_id)
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
        return [p for p in dov.parents if p in self.placement_index]

    def __contains__(self, dov_id: str) -> bool:
        member = self.placement_index.locate(dov_id)
        return member is not None and dov_id in self._members[member]

    # -- checkin ---------------------------------------------------------------------

    def stage_checkin(self, da_id: str, dot_name: str,
                      data: dict[str, Any], parents: tuple[str, ...],
                      created_at: float) -> DesignObjectVersion:
        """Stage on the DA's home member.

        Cross-member parents are legitimate (usage-relationship
        inputs): they are checked against the directory instead of the
        home member's store.  The staged version's home is recorded in
        the placement index — the O(1) entry every later commit/abort
        resolution reads instead of scanning members.
        """
        home_name = self.placement_of(da_id)
        home = self.member(home_name)
        local_parents = tuple(p for p in parents if p in home.store)
        foreign_parents = [p for p in parents if p not in home.store]
        for parent in foreign_parents:
            if parent not in self.placement_index:
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
        self.placement_index.stage(dov.dov_id, home_name)
        return dov

    def commit_checkin(self, dov_id: str) -> DesignObjectVersion:
        """Commit on the member that staged it; update the directory."""
        name = self.placement_index.staged_home(dov_id)
        if name is None:
            raise UnknownObjectError(
                f"no staged checkin for DOV {dov_id!r} in any member")
        # the member's commit observer moves the id from the
        # staged-home map into the durable directory
        return self._members[name].commit_checkin(dov_id)

    def abort_checkin(self, dov_id: str) -> bool:
        """Abort wherever the version was staged."""
        name = self.placement_index.unstage(dov_id)
        if name is None:
            return False
        return self._members[name].abort_checkin(dov_id)

    def _resolve_batch_homes(self, dov_ids: list[str]) -> dict[str, str]:
        """Map every staged id of a batch to its home member.

        O(batch) — one index lookup per id, zero member scans.  An
        unresolvable id aborts the whole batch
        (presumed abort): the portions already resolved are un-staged
        so nothing dangles, and the error names any down member.
        """
        homes: dict[str, str] = {}
        for dov_id in dov_ids:
            name = self.placement_index.staged_home(dov_id)
            if name is None:
                for placed_id in homes:
                    self.abort_checkin(placed_id)
                down = [name for name, repo in self._members.items()
                        if not repo.store.is_up]
                if down:
                    raise StorageError(
                        f"DOV {dov_id!r} unresolvable with member(s) "
                        f"{down} down: batch aborted")
                raise UnknownObjectError(
                    f"no staged checkin for DOV {dov_id!r} in any member")
            homes[dov_id] = name
        return homes

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
        3. **complete** — every member applies the decision through
           its atomic :meth:`DesignDataRepository.commit_group` (one
           WAL force per member).  A member that crashed *after* the
           decision is simply skipped: :meth:`recover_member` consults
           the log and redoes its portion deterministically, so the
           batch is all-or-nothing even under member crashes.

        Home resolution costs O(batch) via the placement index — the
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
                    self.placement_index.unstage(dov_id)
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
        committed = self._complete_batch(gtxn_id, manifest)
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
                            self.placement_index.unstage(dov_id)
                        continue
                    if other in prepared:
                        self._members[other].forget_group(gtxn_id,
                                                          other_ids)
                    else:
                        self._members[other].abort_group(other_ids)
                    for dov_id in other_ids:
                        self.placement_index.unstage(dov_id)
                raise StorageError(
                    f"member {name!r} down during prepare of "
                    f"{gtxn_id!r}: batch aborted") from exc
            prepared.append(name)

    def _complete_batch(self, gtxn_id: str,
                        manifest: dict[str, list[str]]
                        ) -> dict[str, DesignObjectVersion]:
        """Phase 2: apply the logged decision at every live member."""
        committed: dict[str, DesignObjectVersion] = {}
        pending_member = False
        for name, member_ids in manifest.items():
            try:
                dovs = self._members[name].complete_group(gtxn_id,
                                                          member_ids)
            except StorageError:
                # crashed after the decision: recovery redoes it
                pending_member = True
                continue
            for dov in dovs:
                committed[dov.dov_id] = dov
        if not pending_member:
            self.decision_log.mark_complete(gtxn_id)
        return committed

    def resolve_incomplete(self) -> int:
        """Coordinator recovery: finish every logged-but-incomplete
        COMMIT decision (e.g. after a coordinator crash between the
        decision record and the participant notifications).

        For each manifest member, portions already durable are left
        alone, still-staged portions complete through the normal
        member commit, and portions lost to a member crash are redone
        from the member's prepare record.  Returns the number of
        batches settled.
        """
        settled = 0
        for gtxn_id in self.decision_log.incomplete():
            manifest = self.decision_log.manifest(gtxn_id)
            done = True
            for name, member_ids in manifest.items():
                member = self._members[name]
                try:
                    if all(dov_id in member.store
                           for dov_id in member_ids):
                        continue
                    if all(dov_id in member.store.staged_ids()
                           for dov_id in member_ids):
                        dovs = member.complete_group(gtxn_id, member_ids)
                    else:
                        dovs = member.redo_group(gtxn_id)
                        self.redone_batches += 1
                except StorageError:
                    done = False  # member still down: retried later
                    continue
                for dov in dovs:
                    self.placement_index.commit_durable(dov.dov_id,
                                                        name)
            if done:
                self.decision_log.mark_complete(gtxn_id)
                settled += 1
        return settled

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
        staged versions were volatile, so their staged-home index
        entries are dropped with it."""
        report = self.member(name).crash()
        report["staged_index_dropped"] = \
            self.placement_index.drop_member_staged(name)
        return report

    def recover_member(self, name: str) -> dict[str, int]:
        """Recover one member from its own WAL, then settle its
        in-doubt cross-member batches against the global decision log.

        Presumed abort: a prepared batch with a logged COMMIT decision
        is **redone** from the member's prepare record (the crash hit
        between the global decision and the member's apply); a
        prepared batch without a decision record aborted — the member
        simply settles it and moves on.  This is what makes a
        cross-member ``commit_group`` all-or-nothing under member
        crashes: the decision, not the member's luck, determines the
        outcome.
        """
        report = self.member(name).recover()
        report["redone_batches"] = self._settle_in_doubt(name)
        return report

    def _settle_in_doubt(self, name: str) -> int:
        from repro.net.two_phase_commit import Decision

        member = self.member(name)
        redone = 0
        for gtxn_id in member.in_doubt_groups():
            if self.decision_log.resolve(gtxn_id) is Decision.COMMIT:
                for dov in member.redo_group(gtxn_id):
                    self.placement_index.commit_durable(dov.dov_id,
                                                        name)
                redone += 1
                self.redone_batches += 1
                if self._batch_settled(gtxn_id):
                    self.decision_log.mark_complete(gtxn_id)
            else:
                # presumed abort: no decision record means the batch
                # aborted; the staged portion died with the crash, so
                # settling the prepare marker is all that remains
                member.forget_group(gtxn_id, [])
        return redone

    def _batch_settled(self, gtxn_id: str) -> bool:
        """True when every manifest portion of *gtxn_id* is durable."""
        for name, dov_ids in self.decision_log.manifest(gtxn_id).items():
            try:
                if not all(dov_id in self._members[name].store
                           for dov_id in dov_ids):
                    return False
            except StorageError:
                return False
        return True

    def crash(self) -> dict[str, int]:
        """Crash every member (whole-site failure, interface parity
        with :class:`DesignDataRepository`).

        The coordinator state crashes too: the decision log loses its
        in-memory maps and its un-forced tail (completion markers),
        and the **entire placement index** — DA homes, staged-home
        map, DOV directory — vanishes with the coordinator.  The
        forced log records at the members and the coordinator are what
        recovery rebuilds from; nothing assumes the in-memory
        directory survives.
        """
        totals: dict[str, int] = {}
        for name in self._member_order:
            for key, value in self.crash_member(name).items():
                totals[key] = totals.get(key, 0) + value
        totals["decision_tail_lost"] = self.decision_log.crash()
        totals["directory_entries_lost"] = len(
            self.placement_index.directory_snapshot())
        self.placement_index.clear()
        return totals

    def recover(self) -> dict[str, int]:
        """Recover every member from its own WAL, settle every in-doubt
        cross-member batch against the decision log (itself rebuilt
        from its forced records first), then rebuild the placement
        index from the members' recovered stores."""
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
        decision log's memory + un-forced tail and the whole placement
        index vanish.  :meth:`recover_coordinator` is the restart."""
        report = {
            "decision_tail_lost": self.decision_log.crash(),
            "directory_entries_lost": len(
                self.placement_index.directory_snapshot()),
        }
        self.placement_index.clear()
        return report

    def recover_coordinator(self) -> dict[str, int]:
        """Coordinator restart: rebuild the decision log from its
        forced records, the placement index from the members' stores
        (:meth:`recover_directory`), then finish every logged-but-
        incomplete decision (:meth:`resolve_incomplete`)."""
        totals = {"decisions_recovered": self.decision_log.recover()}
        totals.update(self.recover_directory())
        totals["settled"] = self.resolve_incomplete()
        return totals

    def recover_directory(self) -> dict[str, int]:
        """Rebuild the placement index from the members themselves.

        The index is a volatile cache of durable member truth: DA
        homes come from each member's (WAL-recovered) derivation
        graphs, directory entries from its durable store, staged-home
        entries from its staged set.  A member that is still down
        contributes whatever the surviving index already knew about it
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
                for da_id, home in self.placement_index.homes().items():
                    if home == name:
                        homes[da_id] = home
                for dov_id, home in \
                        self.placement_index.directory_snapshot().items():
                    if home == name:
                        directory[dov_id] = home
                continue
            for da_id in member.graph_ids():
                homes[da_id] = name
            for dov in member.store:
                directory[dov.dov_id] = name
            for dov_id in member.store.staged_ids():
                staged[dov_id] = name
        self.placement_index.restore(homes, staged, directory)
        return {
            "placements": len(homes),
            "staged_index": len(staged),
            "directory_entries": len(directory),
            "members_down": down,
        }
