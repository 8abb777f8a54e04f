"""The ``federated_commit`` kind: the Sect.6 distributed commit.

A federation of ``[federation].members`` repositories commits
:data:`BATCHES` cross-member batches through the global decision log,
once per crash placement.  :func:`crash_matrix` is the kind's
runner: all four placements on one config, plus the all-or-nothing
verdict that they converge to one durable state.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable

from repro.repository.federation import FederatedRepository
from repro.repository.repository import DesignDataRepository
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.scenario.schema import ScenarioConfig
from repro.sim.kernel import Kernel
from repro.util.errors import StorageError, TwoPhaseCommitError
from repro.util.ids import IdGenerator


@dataclass
class FederatedCommitReport:
    """Chronicle of one federated-atomic-commit run (experiment T10)."""

    crash: str = "none"
    members: int = 0
    #: cross-member batches the scenario drove to a commit
    batches: int = 0
    #: batches aborted by a member crash during prepare (presumed abort)
    aborted_batches: int = 0
    #: aborted batches re-staged and retried to success
    retried_batches: int = 0
    #: batches a recovering member redid from the global decision log
    redone_batches: int = 0
    #: COMMIT decisions in the global log / its forced writes
    decisions_logged: int = 0
    forced_decision_writes: int = 0
    #: logged decisions observed partially applied after recovery —
    #: any non-zero value is an atomicity violation
    atomic_violations: int = 0
    #: durable versions per member after the run
    durable_per_member: dict[str, int] = field(default_factory=dict)
    #: id-independent durable state: sorted (da, name, rev) triples —
    #: identical across crash placements iff commit is all-or-nothing
    state: tuple = ()
    directory_entries: int = 0


#: cross-member batches per crash placement; every placement's crash
#: lands on the second, so it takes at least two
BATCHES = 4


class _CoordinatorCrash(RuntimeError):
    """Injected coordinator failure between decision and notification."""


def federated_commit_scenario(config: ScenarioConfig, crash: str
                              ) -> FederatedCommitReport:
    """Cross-member ``commit_group`` under one injected crash.

    A federation of ``[federation].members`` repositories holds one DA
    per member; every batch stages one derived version per DA (a
    genuinely cross-member group) and commits it through the federated
    atomic commit.  *crash* places a failure around the second batch,
    at the second member:

    * ``"none"`` — the undisturbed reference run;
    * ``"before"`` — the target member crashes **before** the global
      decision record exists: prepare fails, the batch aborts
      everywhere (presumed abort — nothing was logged), and after the
      member recovers the batch is re-staged and retried;
    * ``"after"`` — the member crashes **after** the decision record
      (the :attr:`~repro.txn.decision_log.GlobalDecisionLog.on_decision`
      window): live members complete, and the crashed member redoes
      its portion from its forced prepare record when it recovers;
    * ``"coordinator"`` — the *coordinator* dies between the decision
      record and the participant notifications: nobody was told, the
      members still hold their staged portions, and the coordinator
      loses its memory
      (:meth:`~repro.repository.federation.FederatedRepository.crash_coordinator`).
      Its restart
      (:meth:`~repro.repository.federation.FederatedRepository.recover_coordinator`)
      replays the decision log from its forced records, rebuilds the
      directory from the members and finishes the logged decision;
      the rebuilt directory must equal the pre-crash one plus the
      in-doubt batch, each version at its home member.

    All four runs must converge to the identical id-independent
    durable state — the all-or-nothing claim of the decision log.  A
    placement that does not behave as injected raises
    :class:`~repro.util.errors.TwoPhaseCommitError`.
    """
    members = config.get("federation", "members")
    seed = config.seed
    report = FederatedCommitReport(crash=crash, members=members)
    federation, current = _part_federation(members, seed)
    crash_batch, target = 1, f"site-{1 % members}"

    def stage_batch(rev: int) -> list[str]:
        staged: list[str] = []
        try:
            for index in range(members):
                da_id = f"da-{index}"
                dov = federation.stage_checkin(
                    da_id, "Part", _part_payload(index, rev, seed),
                    (current[da_id],), created_at=float(rev))
                staged.append(dov.dov_id)
        except StorageError:
            federation.abort_group(staged)  # un-stage the partial batch
            raise
        return staged

    def remember(committed: list[Any]) -> None:
        for dov in committed:
            current[dov.created_by] = dov.dov_id

    for batch in range(BATCHES):
        rev = batch + 1
        injected = crash == "before" and batch == crash_batch
        if injected:
            federation.crash_member(target)
        staged = stage_batch(rev) if not injected else None
        if injected:
            # staging on the crashed home member fails outright; the
            # batch never forms — same presumed-abort outcome as a
            # crash during prepare: nothing logged, nothing durable
            try:
                stage_batch(rev)
            except StorageError:
                report.aborted_batches += 1
            else:
                raise TwoPhaseCommitError(
                    f"staging on crashed member {target!r} succeeded")
            federation.recover_member(target)
            staged = stage_batch(rev)  # retry after recovery
            report.retried_batches += 1
            remember(federation.commit_group(staged))
        elif crash == "after" and batch == crash_batch:
            def crash_member_after_decision(gtxn_id: str,
                                            manifest: dict) -> None:
                federation.decision_log.on_decision = None
                federation.crash_member(target)

            federation.decision_log.on_decision = \
                crash_member_after_decision
            committed = federation.commit_group(staged)
            # the crashed member's portion is in doubt until recovery
            redone_before = federation.redone_batches
            recovery = federation.recover_member(target)
            report.redone_batches += \
                federation.redone_batches - redone_before
            if recovery["redone_batches"] < 1:
                raise TwoPhaseCommitError(
                    f"member {target!r} recovered without redoing the "
                    f"logged batch")
            remember(committed)
            for dov_id in staged:
                current[federation.read(dov_id).created_by] = dov_id
        elif crash == "coordinator" and batch == crash_batch:
            def crash_coordinator(gtxn_id: str, manifest: dict) -> None:
                federation.decision_log.on_decision = None
                raise _CoordinatorCrash(gtxn_id)

            federation.decision_log.on_decision = crash_coordinator
            try:
                federation.commit_group(staged)
            except _CoordinatorCrash:
                pass
            else:
                raise TwoPhaseCommitError(
                    "injected coordinator crash did not fire")
            # the coordinator loses its memory: the decision log
            # restarts from its forced records, the directory from the
            # members, and the logged batch completes from staged state
            # a batch stages one version per DA, and da-i lives on site-i
            homes = {dov_id: f"site-{index}"
                     for index, dov_id in enumerate(staged)}
            directory = federation.directory_snapshot()
            federation.crash_coordinator()
            settled = federation.recover_coordinator()["settled"]
            if settled != 1:
                raise TwoPhaseCommitError(
                    f"coordinator restart settled {settled} batches, "
                    f"not the 1 in doubt")
            if federation.directory_snapshot() != {**directory, **homes}:
                raise TwoPhaseCommitError(
                    "directory rebuilt from the members differs from "
                    "the pre-crash one plus the in-doubt batch")
            for dov_id in staged:
                current[federation.read(dov_id).created_by] = dov_id
        else:
            remember(federation.commit_group(staged))
        report.batches += 1

    # -- the all-or-nothing audit: after recovery, every logged
    # decision must be applied at every manifest member in full — a
    # partially applied batch is an atomicity violation
    log = federation.decision_log
    for gtxn_id in log.decisions():
        durable = [dov_id in federation.member(name).store
                   for name, ids in log.manifest(gtxn_id).items()
                   for dov_id in ids]
        if durable and not all(durable):
            report.atomic_violations += 1

    state = []
    for index in range(members):
        member = federation.member(f"site-{index}")
        report.durable_per_member[f"site-{index}"] = len(member.store)
        for dov in member.store:
            state.append((dov.created_by, dov.data["name"],
                          dov.data["rev"]))
    report.state = tuple(sorted(state))
    report.decisions_logged = log.stats()["decisions"]
    report.forced_decision_writes = log.stats()["forced_writes"]
    report.directory_entries = len(federation.directory_snapshot())
    return report


def crash_matrix(config: ScenarioConfig,
                 on_kernel: Callable[[Kernel], None] | None
                 ) -> dict[str, Any]:
    """The kind's runner: every crash placement of the federated
    atomic commit on one config, plus the all-or-nothing verdict.  The
    federation runs outside the kernel (its crashes are injected
    directly), so *on_kernel* has nothing to hook."""
    reports = {crash: asdict(federated_commit_scenario(config, crash))
               for crash in ("none", "before", "after", "coordinator")}
    return {
        "crashes": reports,
        "states_identical":
            len({tuple(report["state"])
                 for report in reports.values()}) == 1,
    }


def _part_federation(members: int, seed: int
                     ) -> tuple[FederatedRepository, dict[str, str]]:
    """A federation of *members* sites, one pinned DA with one durable
    ``Part`` version on each; returns it with the per-DA heads."""
    # one id generator across the federation: the directory (and the
    # decision-log manifests) key on globally unique DOV ids
    ids = IdGenerator()
    federation = FederatedRepository({
        f"site-{index}": DesignDataRepository(ids)
        for index in range(members)})
    federation.register_dot(DesignObjectType("Part", attributes=[
        AttributeDef("name", AttributeKind.STRING),
        AttributeDef("rev", AttributeKind.INT),
        AttributeDef("weight", AttributeKind.FLOAT),
    ]))
    current: dict[str, str] = {}
    for index in range(members):
        da_id = f"da-{index}"
        federation.assign(da_id, f"site-{index}")
        federation.create_graph(da_id)
        current[da_id] = federation.checkin(
            da_id, "Part", _part_payload(index, 0, seed), ()).dov_id
    return federation, current


def _part_payload(index: int, rev: int, seed: int) -> dict[str, Any]:
    """Deterministic payload of one staged version (no RNG state, so
    retried batches rebuild byte-identical data)."""
    return {"name": f"part-{index}", "rev": rev,
            "weight": float((seed * 31 + index * 7 + rev) % 97)}
