"""The paper's hand-driven running scenarios, for figures and examples.

The full chip design (Fig.2/Fig.3), the recursive top-down planning
(Sect.3) and the Fig.5 delegation scenario around cell 0 with subcells
A-D, including the impossible-specification / renegotiation episode
the paper walks through.  They build on the VLSI installation of
:mod:`repro.scenario.delegation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.activity import DesignActivity
from repro.core.states import DaState
from repro.core.system import ConcordSystem
from repro.dc.script import DaOpStep, DopStep, Iteration, Script, Sequence
from repro.scenario.delegation import chip_spec, make_vlsi_system
from repro.vlsi.cells import sample_hierarchy
from repro.vlsi.floorplan import Floorplan
from repro.vlsi.methodology import full_design_script
from repro.vlsi.tools import vlsi_dots


def subcell_script(subcell: str, operations: list[str]) -> Script:
    """Work flow of a subcell-planning sub-DA in the Fig.5 scenario."""
    return Script(Sequence(
        DopStep("subcell_seed", params={"subcell": subcell,
                                        "operations": operations}),
        DopStep("structure_synthesis"),
        DopStep("shape_function_generator"),
        Iteration(Sequence(DopStep("chip_planner"),
                           DaOpStep("Evaluate")),
                  max_rounds=2, name="replan"),
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


def recursive_planning_scenario() -> tuple[ConcordSystem, RecursiveReport]:
    """Top-down recursive chip planning over the sample cell hierarchy.

    "In a top-down fashion, a floorplan is computed for each cell of
    the hierarchy by recursively applying the chip planner" (Sect.3).
    Every inner cell gets its own DA, delegated from its parent cell's
    DA and seeded with the parent's placement interface; when a subtree
    is fully planned, the sub-DA commits and its final DOVs devolve
    upward level by level.
    """
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

    plan_cell(sample_hierarchy().root, None, None, None, 0)
    return system, report


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
