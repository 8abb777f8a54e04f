"""Shared scenario builders for experiments and examples.

Builds ready-to-run CONCORD installations for the VLSI domain and the
paper's running scenarios: the full chip design (Fig.2/Fig.3) and the
Fig.5 delegation scenario around cell 0 with subcells A-D, including
the impossible-specification / renegotiation episode the paper walks
through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.activity import DesignActivity
from repro.core.features import DesignSpecification, RangeFeature
from repro.core.states import DaState
from repro.core.system import ConcordSystem
from repro.dc.script import DaOpStep, DopStep, Iteration, Script, Sequence
from repro.repository.repository import DesignDataRepository
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.sim.kernel import Kernel
from repro.te.context import DopContext
from repro.te.recovery import RecoveryPointPolicy
from repro.util.errors import StorageError
from repro.util.ids import IdGenerator
from repro.vlsi.floorplan import Floorplan, FloorplanInterface
from repro.vlsi.methodology import full_design_script, playout_constraints
from repro.vlsi.tools import register_vlsi_tools, vlsi_dots


def make_vlsi_system(workstations: tuple[str, ...] = ("ws-1",),
                     trace: bool = True,
                     recovery_interval: float = 30.0,
                     jitter: float = 0.0,
                     seed: int = 0) -> ConcordSystem:
    """A CONCORD installation with the VLSI domain installed."""
    system = ConcordSystem(
        trace=trace,
        recovery_policy=RecoveryPointPolicy(interval=recovery_interval),
        jitter=jitter, seed=seed)
    for name in workstations:
        system.add_workstation(name)
    register_vlsi_tools(system.tools)
    system.tools.register("subcell_seed", subcell_seed, duration=10.0)
    for dot in vlsi_dots().values():
        system.repository.register_dot(dot)
    system.constraints = playout_constraints()
    return system


def subcell_seed(context: DopContext, params: dict[str, Any]) -> None:
    """Scenario tool: seed a sub-DA's working data from the parent plan.

    Reads the parent's floorplan (the sub-DA's initial DOV), extracts
    the placement of ``params['subcell']`` as this cell's interface,
    and installs a fresh behavioral description for the subcell's own
    content (``params['operations']``).
    """
    subcell = params["subcell"]
    operations = params.get("operations",
                            ["op-a", "op-b", "op-c", "op-d"])
    parent_plan_raw = context.data.get("floorplan")
    if parent_plan_raw:
        parent_plan = Floorplan.from_dict(parent_plan_raw)
        placement = parent_plan.placements.get(subcell)
    else:
        placement = None
    if placement is not None:
        interface = FloorplanInterface(subcell, placement.width,
                                       placement.height,
                                       origin=(placement.x, placement.y))
    else:
        interface = FloorplanInterface(subcell,
                                       params.get("max_width", 50.0),
                                       params.get("max_height", 50.0))
    context.data.clear()
    context.data.update({
        "cell": subcell,
        "level": params.get("level", "module"),
        "behavior": {"operations": list(operations)},
        "interface": interface.to_dict(),
    })


def chip_spec(max_width: float, max_height: float) -> DesignSpecification:
    """A chip-planning specification: shape/area limitations.

    The Fig.5 specification "expresses features for shape/area
    limitations and pin restrictions".
    """
    return DesignSpecification([
        RangeFeature("width-limit", "width", hi=max_width),
        RangeFeature("height-limit", "height", hi=max_height),
        RangeFeature("area-limit", "area", hi=max_width * max_height),
    ])


def subcell_script(subcell: str, operations: list[str],
                   max_rounds: int = 2) -> Script:
    """Work flow of a subcell-planning sub-DA in the Fig.5 scenario."""
    return Script(Sequence(
        DopStep("subcell_seed", params={"subcell": subcell,
                                        "operations": operations}),
        DopStep("structure_synthesis"),
        DopStep("shape_function_generator"),
        Iteration(Sequence(DopStep("chip_planner"),
                           DaOpStep("Evaluate")),
                  max_rounds=max_rounds, name="replan"),
    ), name=f"plan-{subcell}")


def run_full_chip_design(system: ConcordSystem) -> DesignActivity:
    """Run the end-to-end Fig.2 traversal as one top-level DA."""
    dots = vlsi_dots()
    spec = chip_spec(60.0, 60.0)
    behavior = {"operations": [f"op-{i}" for i in range(6)]}
    da = system.init_design(dots["Chip"], spec, "alice",
                            full_design_script(), "ws-1",
                            initial_data={"cell": "chip-0",
                                          "level": "chip",
                                          "behavior": behavior})
    system.start(da.da_id)
    system.run(da.da_id)
    return da


@dataclass
class RecursiveReport:
    """Chronicle of the recursive top-down planning scenario."""

    #: cell name -> DA id, per planned (inner) cell
    das: dict[str, str] = field(default_factory=dict)
    #: cell name -> hierarchy depth of its DA
    depths: dict[str, int] = field(default_factory=dict)
    #: cell name -> (width, height) of its floorplan
    floorplans: dict[str, tuple[float, float]] = field(
        default_factory=dict)
    #: DOVs devolved per termination (sub-DA -> inherited)
    devolved: dict[str, list[str]] = field(default_factory=dict)


def recursive_planning_scenario(
        hierarchy=None) -> tuple[ConcordSystem, RecursiveReport]:
    """Top-down recursive chip planning over a whole cell hierarchy.

    "In a top-down fashion, a floorplan is computed for each cell of
    the hierarchy by recursively applying the chip planner" (Sect.3).
    Every inner cell gets its own DA, delegated from its parent cell's
    DA and seeded with the parent's placement interface; when a subtree
    is fully planned, the sub-DA commits and its final DOVs devolve
    upward level by level.
    """
    from repro.vlsi.cells import sample_hierarchy

    if hierarchy is None:
        hierarchy = sample_hierarchy()
    workstations = ("ws-1", "ws-2", "ws-3")
    system = make_vlsi_system(workstations)
    report = RecursiveReport()
    dots_by_level = {
        0: vlsi_dots()["Chip"], 1: vlsi_dots()["Module"],
        2: vlsi_dots()["Block"],
    }

    def plan_cell(cell, parent_cell, parent_da_id, initial_dov, depth):
        """Create the DA planning *cell*, run it, recurse into children."""
        operations = [child.name for child in cell.children]
        dot = dots_by_level[min(depth, 2)]
        spec = chip_spec(500.0, 500.0)
        workstation = workstations[depth % len(workstations)]
        if parent_da_id is None:
            script = Script(Sequence(
                DopStep("structure_synthesis"),
                DopStep("shape_function_generator"),
                DopStep("pad_frame_editor",
                        params={"max_width": 500.0,
                                "max_height": 500.0}),
                DopStep("chip_planner"),
                DaOpStep("Evaluate"),
            ), name=f"plan-{cell.name}")
            da = system.init_design(
                dot, spec, f"designer-{cell.name}", script, workstation,
                initial_data={"cell": cell.name, "level": "chip",
                              "behavior": {"operations": operations}})
        else:
            # the parent's floorplan names this cell's placement
            # "<parent>/<cell>" (structure synthesis convention)
            placement_name = f"{parent_cell.name}/{cell.name}"
            script = Script(Sequence(
                DopStep("subcell_seed",
                        params={"subcell": placement_name,
                                "operations": operations}),
                DopStep("structure_synthesis"),
                DopStep("shape_function_generator"),
                DopStep("pad_frame_editor",
                        params={"max_width": 500.0,
                                "max_height": 500.0}),
                DopStep("chip_planner"),
                DaOpStep("Evaluate"),
            ), name=f"plan-{cell.name}")
            da = system.create_sub_da(parent_da_id, dot, spec,
                                      f"designer-{cell.name}", script,
                                      workstation,
                                      initial_dov=initial_dov)
        system.start(da.da_id)
        system.run(da.da_id)
        report.das[cell.name] = da.da_id
        report.depths[cell.name] = system.cm.hierarchy_depth(da.da_id)

        graph = system.repository.graph(da.da_id)
        plan_dov = next((d for d in graph if d.data.get("floorplan")),
                        None)
        if plan_dov is not None:
            plan = Floorplan.from_dict(plan_dov.data["floorplan"])
            report.floorplans[cell.name] = (plan.width, plan.height)

        # recurse into inner children (blocks of modules, etc.)
        for child in cell.children:
            if child.children and plan_dov is not None:
                plan_cell(child, cell, da.da_id, plan_dov.dov_id,
                          depth + 1)

        # commit this DA's subtree upward
        if parent_da_id is not None and da.has_final_dov():
            system.cm.sub_da_ready_to_commit(da.da_id)
            inherited = system.cm.terminate_sub_da(parent_da_id,
                                                   da.da_id)
            report.devolved[da.da_id] = inherited

    plan_cell(hierarchy.root, None, None, None, 0)
    return system, report


@dataclass
class ConcurrentReport:
    """Chronicle of a concurrent delegation run on the shared kernel."""

    top_da: str = ""
    #: subcell -> sub-DA id
    sub_das: dict[str, str] = field(default_factory=dict)
    #: sub-DA id -> DOVs devolved on its (rule-driven) termination
    devolved: dict[str, list[str]] = field(default_factory=dict)
    #: DA id -> final state value
    final_states: dict[str, str] = field(default_factory=dict)
    #: simulated end-to-end time of the delegated phase
    makespan: float = 0.0
    #: kernel events executed during the delegated phase
    events: int = 0
    #: deterministic kernel fingerprint (concurrent runs only)
    signature: tuple[Any, ...] = ()


def concurrent_delegation_scenario(
        subcells: tuple[str, ...] = ("A", "B", "C"),
        concurrent: bool = True,
        crash: tuple[str, float, float] | None = None,
        jitter: float = 0.0,
        seed: int = 0,
        trace: bool = False,
        on_kernel: Callable[[Kernel], None] | None = None,
        ) -> tuple[ConcordSystem, ConcurrentReport]:
    """Delegated subcell planning with every sub-DA live at once.

    The top-level DA plans cell 0, then delegates one sub-DA per
    subcell.  With ``concurrent=True`` the sub-DAs execute on the
    shared kernel — tool steps interleave on one clock, the
    Ready_To_Commit messages are auto-dispatched to the top DM whose
    ECA rule terminates each sub-DA the instant its message arrives
    (devolving the final DOVs).  ``concurrent=False`` is a schedule
    on the same kernel, not a second execution mode: the sub-DAs run
    one after the other, each to quiescence — the reference the
    interleaved run must end in the same states as.  *crash* arms a
    kernel-injected ``(node, at, restart_after)`` failure.
    """
    from repro.dc.rules import EcaRule

    stations = ("ws-0",) + tuple(f"ws-{cell}" for cell in subcells)
    system = make_vlsi_system(stations, trace=trace, jitter=jitter,
                              seed=seed)
    if on_kernel is not None:
        on_kernel(system.kernel)
    report = ConcurrentReport()
    dots = vlsi_dots()

    top_script = Script(Sequence(
        DopStep("structure_synthesis"),
        DopStep("shape_function_generator"),
        DopStep("pad_frame_editor",
                params={"max_width": 500.0, "max_height": 500.0}),
        DopStep("chip_planner"),
        DaOpStep("Evaluate"),
    ), name="plan-cell-0")
    top = system.init_design(
        dots["Chip"], chip_spec(500.0, 500.0), "lead", top_script, "ws-0",
        initial_data={"cell": "cell-0", "level": "chip",
                      "behavior": {"operations": list(subcells)}})
    report.top_da = top.da_id
    system.start(top.da_id)
    system.run(top.da_id)
    plan_dov = system.repository.graph(top.da_id).leaves()[0]

    for cell in subcells:
        script = Script(Sequence(
            DopStep("subcell_seed",
                    params={"subcell": f"cell-0/{cell}",
                            "operations": [f"{cell.lower()}-op-{i}"
                                           for i in range(3)]}),
            DopStep("structure_synthesis"),
            DopStep("shape_function_generator"),
            DopStep("chip_planner"),
            DaOpStep("Evaluate"),
            DaOpStep("Sub_DA_Ready_To_Commit"),
        ), name=f"plan-{cell}")
        sub = system.create_sub_da(
            top.da_id, dots["Module"], chip_spec(500.0, 500.0),
            f"designer-{cell}", script, f"ws-{cell}",
            initial_dov=plan_dov.dov_id)
        report.sub_das[cell] = sub.da_id
        system.start(sub.da_id)

    # the top DM terminates each sub-DA as its Ready_To_Commit arrives
    top_dm = system.runtime(top.da_id).dm
    top_dm.rules.register(EcaRule(
        "auto-terminate", "Ready_To_Commit",
        lambda env: True,
        lambda env: report.devolved.__setitem__(
            env["sender"],
            system.cm.terminate_sub_da(top.da_id, env["sender"]))))

    phase_start = system.clock.now
    events_before = system.kernel.executed
    if crash is not None:
        # crash instants are relative to the delegated phase's start
        node, at, restart_after = crash
        system.schedule_crash(node, at=phase_start + at,
                              restart_after=restart_after)
    sub_ids = list(report.sub_das.values())
    if concurrent:
        system.run_concurrent(sub_ids)
        report.signature = system.kernel.trace_signature()
    else:
        for sub_id in sub_ids:
            system.run_concurrent([sub_id])
    report.makespan = system.clock.now - phase_start
    report.events = system.kernel.executed - events_before
    for da_id in [top.da_id, *sub_ids]:
        report.final_states[da_id] = system.cm.da(da_id).state.value
    return system, report


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


class _CoordinatorCrash(RuntimeError):
    """Injected coordinator failure between decision and notification."""


def federated_commit_scenario(crash: str = "none", members: int = 3,
                              batches: int = 4, seed: int = 17
                              ) -> FederatedCommitReport:
    """Cross-member ``commit_group`` under injected crashes.

    A federation of *members* repositories holds one DA per member;
    every batch stages one derived version per DA (a genuinely
    cross-member group) and commits it through the federated atomic
    commit.  *crash* places a failure around the second batch, at
    the second member:

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
      members still hold their staged portions, and
      :meth:`~repro.repository.federation.FederatedRepository.resolve_incomplete`
      finishes the logged decision on restart.

    All four runs must converge to the identical id-independent
    durable state — the all-or-nothing claim of the decision log.
    """
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

    for batch in range(batches):
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
                raise AssertionError("staging on a crashed member "
                                     "must fail")
            except StorageError:
                report.aborted_batches += 1
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
            assert recovery["redone_batches"] >= 1
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
                raise AssertionError("injected coordinator crash "
                                     "did not fire")
            except _CoordinatorCrash:
                pass
            # restart: the logged decision completes from staged state
            settled = federation.resolve_incomplete()
            assert settled == 1
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
    report.directory_entries = federation.stats()["directory_entries"]
    return report


def _federation_rebuild_check(members: int = 3, batches: int = 2,
                              seed: int = 17) -> bool:
    """Directory-rebuild equality: run a few cross-member batches plus
    one version left staged, lose the coordinator (decision-log memory
    + the whole placement index), recover from the members alone, and
    compare every index surface against the pre-crash snapshot."""
    federation, current = _part_federation(members, seed)
    for rev in range(1, batches + 1):
        staged = []
        for index in range(members):
            da_id = f"da-{index}"
            dov = federation.stage_checkin(
                da_id, "Part", _part_payload(index, rev, seed),
                (current[da_id],), created_at=float(rev))
            staged.append(dov.dov_id)
        for dov in federation.commit_group(staged):
            current[dov.created_by] = dov.dov_id
    # one version stays staged across the crash: the rebuild must
    # recover the staged-home index too, not just the directory
    federation.stage_checkin("da-0", "Part",
                             _part_payload(0, batches + 1, seed),
                             (current["da-0"],),
                             created_at=float(batches + 1))
    before = federation.placement_index.stats()
    directory_before = federation.directory_snapshot()
    homes_before = federation.placement_index.homes()
    federation.crash_coordinator()
    federation.recover_coordinator()
    return (federation.directory_snapshot() == directory_before
            and federation.placement_index.homes() == homes_before
            and federation.placement_index.stats() == before)


def _part_federation(members: int, seed: int
                     ) -> tuple[Any, dict[str, str]]:
    """A federation of *members* sites, one pinned DA with one durable
    ``Part`` version on each; returns it with the per-DA heads."""
    from repro.repository.federation import FederatedRepository

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


@dataclass
class Fig5Report:
    """Chronicle of the delegation scenario (experiment F5)."""

    top_da: str = ""
    sub_das: dict[str, str] = field(default_factory=dict)  # subcell -> da
    phases: list[str] = field(default_factory=list)
    impossible_from: str = ""
    modified_specs: list[str] = field(default_factory=list)
    inherited_dovs: dict[str, list[str]] = field(default_factory=dict)
    final_states: dict[str, str] = field(default_factory=dict)


def fig5_delegation_scenario() -> tuple[ConcordSystem, Fig5Report]:
    """The Fig.5 scenario, end to end.

    DA1 plans cell 0 (subcells A-D), delegates subcell planning to
    sub-DAs; the A-planner discovers its area is insufficient and
    raises Sub_DA_Impossible_Specification; DA1 reacts by "giving DA2
    more and DA3 less area"; both replan, reach final DOVs, and are
    terminated, devolving their results to DA1's scope.
    """
    system = make_vlsi_system(("ws-1", "ws-2", "ws-3", "ws-4", "ws-5"))
    report = Fig5Report()
    dots = vlsi_dots()
    subcells = ("A", "B", "C", "D")

    # --- DA1 plans cell 0 -------------------------------------------------
    top_script = Script(Sequence(
        DopStep("structure_synthesis"),
        DopStep("shape_function_generator"),
        DopStep("pad_frame_editor",
                params={"max_width": 40.0, "max_height": 40.0}),
        DopStep("chip_planner"),
        DaOpStep("Evaluate"),
    ), name="plan-cell-0")
    da1 = system.init_design(
        dots["Chip"], chip_spec(40.0, 40.0), "designer-1", top_script,
        "ws-1",
        initial_data={"cell": "cell-0", "level": "chip",
                      "behavior": {"operations": list(subcells)}})
    report.top_da = da1.da_id
    system.start(da1.da_id)
    system.run(da1.da_id)
    report.phases.append("DA1 planned cell-0 (floorplan contents for "
                         "subcells A-D)")

    plan_dov = system.repository.graph(da1.da_id).leaves()[0]
    floorplan = Floorplan.from_dict(plan_dov.data["floorplan"])

    # --- delegation: one sub-DA per subcell --------------------------------
    operations_per_subcell = {
        "A": [f"a-op-{i}" for i in range(6)],   # A needs the most content
        "B": [f"b-op-{i}" for i in range(3)],
        "C": [f"c-op-{i}" for i in range(3)],
        "D": [f"d-op-{i}" for i in range(3)],
    }
    workstations = ("ws-2", "ws-3", "ws-4", "ws-5")
    for subcell, workstation in zip(subcells, workstations):
        placement = floorplan.placements[f"cell-0/{subcell}"]
        if subcell == "A":
            # the paper's conflict: A's specified area is insufficient
            spec = chip_spec(placement.width * 0.4,
                             placement.height * 0.4)
        else:
            spec = chip_spec(placement.width * 4.0,
                             placement.height * 4.0)
        sub = system.create_sub_da(
            da1.da_id, dots["Module"], spec, f"designer-{subcell}",
            subcell_script(f"cell-0/{subcell}",
                           operations_per_subcell[subcell]),
            workstation, initial_dov=plan_dov.dov_id)
        report.sub_das[subcell] = sub.da_id
        system.start(sub.da_id)
    report.phases.append("DA1 delegated planning of A, B, C, D "
                         "(DA2..DA5)")

    # --- sub-DAs work; A fails its spec -------------------------------------
    for subcell in subcells:
        sub_id = report.sub_das[subcell]
        system.run(sub_id)
        sub = system.cm.da(sub_id)
        if sub.has_final_dov():
            system.cm.sub_da_ready_to_commit(sub_id)
        else:
            system.cm.sub_da_impossible_specification(
                sub_id, reason="specified area is not sufficient")
            report.impossible_from = sub_id
    report.phases.append(
        f"{report.impossible_from} reported "
        f"Sub_DA_Impossible_Specification (area insufficient)")

    # --- DA1 reacts: more area for A, less for B ----------------------------
    a_id, b_id = report.sub_das["A"], report.sub_das["B"]
    placement_a = floorplan.placements["cell-0/A"]
    placement_b = floorplan.placements["cell-0/B"]
    system.cm.modify_sub_da_specification(
        da1.da_id, a_id, chip_spec(placement_a.width * 4.0,
                                   placement_a.height * 4.0))
    system.cm.modify_sub_da_specification(
        da1.da_id, b_id, chip_spec(placement_b.width * 2.0,
                                   placement_b.height * 2.0))
    report.modified_specs = [a_id, b_id]
    report.phases.append("DA1 modified the specs of DA2 (more area) and "
                         "DA3 (less area)")

    # --- replanning under the modified features ------------------------------
    for sub_id in (a_id, b_id):
        system.run(sub_id)
        sub = system.cm.da(sub_id)
        if sub.has_final_dov() \
                and sub.state is not DaState.READY_FOR_TERMINATION:
            system.cm.sub_da_ready_to_commit(sub_id)
    report.phases.append("DA2 and DA3 replanned with the modified area "
                         "features")

    # --- termination: final DOVs devolve to DA1 -------------------------------
    for subcell in subcells:
        sub_id = report.sub_das[subcell]
        sub = system.cm.da(sub_id)
        if sub.state is DaState.READY_FOR_TERMINATION:
            inherited = system.cm.terminate_sub_da(da1.da_id, sub_id)
            report.inherited_dovs[sub_id] = inherited
    report.phases.append("DA1 terminated the sub-DAs; final DOVs "
                         "devolved to its scope")

    for sub_id in report.sub_das.values():
        report.final_states[sub_id] = system.cm.da(sub_id).state.value
    report.final_states[da1.da_id] = system.cm.da(da1.da_id).state.value
    return system, report
