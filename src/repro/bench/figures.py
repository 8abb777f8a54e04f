"""Drivers regenerating the paper's figures F1-F8.

The paper has no quantitative tables; its figures are the evaluation.
Each ``run_fN`` builds the figure's scenario on the real system and
returns an :class:`~repro.bench.reporting.ExperimentResult` whose rows
are the machine-checkable content of the figure.  The drivers measure;
:mod:`repro.bench.scorecard` judges the shape.
"""

from __future__ import annotations

from repro.bench.reporting import ExperimentResult
from repro.bench.scenarios import (
    fig5_delegation_scenario,
    run_full_chip_design,
)
from repro.core.states import (
    DaOperation,
    DaState,
    DaStateMachine,
    legal_operations,
    transition_table,
)
from repro.scenario.delegation import make_vlsi_system
from repro.util.errors import IllegalTransitionError
from repro.util.trace import Level
from repro.vlsi.cells import sample_hierarchy
from repro.vlsi.floorplan import Floorplan
from repro.vlsi.methodology import (
    alternative_paths_script,
    chip_design_script,
    playout_constraints,
    traversal_matrix,
    traverse_design_plane,
)


# ---------------------------------------------------------------------------
# F1 — Fig.1: abstraction levels of the CONCORD model
# ---------------------------------------------------------------------------

def run_f1() -> ExperimentResult:
    """One full design run traced across the AC / DC / TE levels.

    Regenerates Fig.1's layering as the operation counts each level's
    manager performed, demonstrating the nesting (every DOP commit at
    DC wraps checkout/work/checkin at TE, every cooperation operation
    sits above the DC work flow).
    """
    system, _report = fig5_delegation_scenario()
    result = ExperimentResult("F1", "Abstraction levels of the CONCORD "
                                    "model (operation counts per level)")
    for level in (Level.AC, Level.DC, Level.TE):
        histogram = system.trace.count_by_operation(level)
        total = sum(histogram.values())
        top = sorted(histogram.items(), key=lambda kv: -kv[1])[:5]
        result.add(level=level.value, operations=total,
                   top_operations=", ".join(f"{k}×{v}" for k, v in top))
    counts = system.trace.count_by_level()
    result.data["counts"] = {lv.value: n for lv, n in counts.items()}
    result.notes.append(
        "every level is non-empty and TE >= DC DOP operations: the "
        "three-layer nesting of Fig.1")
    return result


# ---------------------------------------------------------------------------
# F2 — Fig.2: the design plane
# ---------------------------------------------------------------------------

def run_f2() -> ExperimentResult:
    """Traversal of the design plane (4 domains × 4 hierarchy levels)."""
    hierarchy = sample_hierarchy()
    steps = traverse_design_plane(hierarchy)
    matrix = traversal_matrix(steps)
    result = ExperimentResult(
        "F2", "Design plane traversal (tool applications per "
              "domain × hierarchy level)")
    domains = ("behavior", "structure", "floor_plan", "mask_layout")
    levels = ("CHIP", "MODULE", "BLOCK", "STANDARD_CELL")
    for level in levels:
        row = {"hierarchy": level}
        for domain in domains:
            row[domain] = matrix.get((domain, level), 0)
        result.add(**row)
    result.data["tool_order"] = [s.tool for s in steps]
    result.notes.append(
        f"{len(steps)} tool applications; starts with structure "
        f"synthesis (tool 1), ends with chip assembly (tool 7)")
    return result


# ---------------------------------------------------------------------------
# F3 — Fig.3: chip planning work flow
# ---------------------------------------------------------------------------

def run_f3() -> ExperimentResult:
    """Chip planning: inputs -> chip planner -> floorplan + interfaces."""
    system = make_vlsi_system()
    da = run_full_chip_design(system)
    result = ExperimentResult(
        "F3", "Chip planning (Fig.3): inputs and outputs of the CUD run")
    plan_dov = next((dov for dov in system.repository.graph(da.da_id)
                     if dov.data.get("floorplan")), None)
    result.data["floorplan"] = None
    if plan_dov is None:
        return result
    floorplan = Floorplan.from_dict(plan_dov.data["floorplan"])
    result.add(artifact="module and net list (input)",
               value=f"{len(plan_dov.data['structure']['subcells'])} "
                     f"subcells, "
                     f"{len(plan_dov.data['structure']['netlist']['nets'])}"
                     f" nets")
    result.add(artifact="shape functions (input)",
               value=f"{len(plan_dov.data['shape_functions'])} subcell "
                     f"staircases")
    result.add(artifact="floorplan interface (input)",
               value=f"CUD bounds "
                     f"{plan_dov.data['interface']['max_width']}x"
                     f"{plan_dov.data['interface']['max_height']}, "
                     f"{len(plan_dov.data['interface']['pins'])} pin "
                     f"intervals")
    result.add(artifact="floorplan contents (output)",
               value=f"{len(floorplan.placements)} placements, "
                     f"{floorplan.width}x{floorplan.height}, "
                     f"wirelength {floorplan.wirelength}")
    result.add(artifact="floorplan interfaces (output)",
               value=f"{len(floorplan.subcell_interfaces())} subcell "
                     f"interfaces for the next level")
    result.data["floorplan"] = floorplan
    result.notes.append("floorplan is geometrically valid: "
                        + ("yes" if not floorplan.validate() else "NO"))
    return result


# ---------------------------------------------------------------------------
# F4 — Fig.4: design activities and DA hierarchies
# ---------------------------------------------------------------------------

def run_f4() -> ExperimentResult:
    """DA description vectors and the delegation hierarchy of Fig.4b."""
    system, report = fig5_delegation_scenario()
    result = ExperimentResult(
        "F4", "Design activities and DA hierarchies (description "
              "vectors + delegation tree)")
    for da in system.cm.das():
        result.add(
            da=da.da_id,
            parent=da.parent or "-",
            dot=da.dot.name,
            designer=da.designer,
            spec_features=len(da.spec),
            state=da.state.value,
            depth=system.cm.hierarchy_depth(da.da_id),
        )
    snapshot = system.cm.hierarchy_snapshot()
    result.data["hierarchy"] = snapshot
    result.data["delegations"] = len(system.cm._delegations)
    result.notes.append(
        "every sub-DA's DOT is a part of its super-DA's DOT "
        "(Module is part of Chip)")
    return result


# ---------------------------------------------------------------------------
# F5 — Fig.5: the delegation scenario within chip planning
# ---------------------------------------------------------------------------

def run_f5() -> ExperimentResult:
    """The full Fig.5 episode incl. impossible-spec renegotiation."""
    system, report = fig5_delegation_scenario()
    result = ExperimentResult(
        "F5", "Delegation scenario within chip planning (Fig.5)")
    for i, phase in enumerate(report.phases, 1):
        result.add(phase=i, event=phase)
    result.data["report"] = report
    total_inherited = sum(len(v) for v in report.inherited_dovs.values())
    result.notes.append(
        f"{len(report.sub_das)} sub-DAs created; "
        f"{total_inherited} final DOVs devolved to "
        f"{report.top_da}'s scope at termination")
    result.notes.append(
        f"impossible specification raised by {report.impossible_from}; "
        f"specs of {', '.join(report.modified_specs)} modified "
        f"(more area for A, less for B)")
    return result


# ---------------------------------------------------------------------------
# F6 — Fig.6: sample scripts
# ---------------------------------------------------------------------------

def run_f6() -> ExperimentResult:
    """The two Fig.6 scripts: enumeration, openness, constraint checks."""
    constraints = playout_constraints()
    result = ExperimentResult("F6", "Sample scripts (Fig.6)")

    fig6a = chip_design_script()
    cursor = fig6a.cursor()
    first = cursor.enabled()[0]
    result.add(script="Fig.6a", property="fixed first step",
               value=first.tool or first.kind.value)
    cursor.fire(first.token)
    open_action = cursor.enabled()[0]
    result.add(script="Fig.6a", property="then an open segment",
               value=open_action.kind.value)
    # the designer inserts the intermediate steps the constraints demand
    for tool in ("shape_function_generator", "pad_frame_editor",
                 "chip_planner"):
        cursor.fire(open_action.token, ("insert", tool))
        pending = cursor.enabled()[0]
        cursor.fire(pending.token)       # execute the inserted step
        open_action = cursor.enabled()[0]
    cursor.fire(open_action.token, "close")
    last = cursor.enabled()[0]
    result.add(script="Fig.6a", property="fixed last step",
               value=last.tool)
    cursor.fire(last.token)
    executed = list(cursor.executed_tools())
    result.add(script="Fig.6a", property="executed sequence legal",
               value=str(constraints.violations(executed) == []))

    fig6b = alternative_paths_script()
    sequences = fig6b.sequences()
    result.add(script="Fig.6b", property="alternative paths",
               value=len(sequences))
    for i, sequence in enumerate(sequences):
        result.add(script="Fig.6b", property=f"path {i}",
                   value=" -> ".join(sequence))
    problems = constraints.validate_script(
        fig6b, history=["structure_synthesis"])
    result.add(script="Fig.6b",
               property="valid after structure synthesis",
               value=str(problems == []))
    result.data["fig6a_executed"] = executed
    result.data["fig6b_sequences"] = sequences
    return result


# ---------------------------------------------------------------------------
# F7 — Fig.7: the DA state/transition graph
# ---------------------------------------------------------------------------

def run_f7() -> ExperimentResult:
    """Exhaustive legality matrix of the Fig.7 state machine."""
    result = ExperimentResult(
        "F7", "Simplified state/transition graph for a DA (Fig.7)")
    table = transition_table()
    states = [DaState.GENERATED, DaState.ACTIVE, DaState.NEGOTIATING,
              DaState.READY_FOR_TERMINATION, DaState.TERMINATED]
    legal = illegal = unexpectedly_legal = 0
    for state in states:
        allowed = legal_operations(state)
        targets = []
        for operation in allowed:
            machine = DaStateMachine("probe")
            machine.state = state
            new_state = machine.apply(operation)
            targets.append(f"{operation.value}->{new_state.value}")
            legal += 1
        for operation in DaOperation:
            if operation in allowed:
                continue
            machine = DaStateMachine("probe")
            machine.state = state
            try:
                machine.apply(operation)
            except IllegalTransitionError:
                illegal += 1
            else:
                unexpectedly_legal += 1
        result.add(state=state.value, legal_operations=len(allowed),
                   transitions="; ".join(sorted(targets)) or "-")
    result.data["table"] = table
    result.data["legal"] = legal
    result.data["illegal"] = illegal
    result.data["unexpectedly_legal"] = unexpectedly_legal
    result.notes.append(
        f"{legal} legal transitions exercised, {illegal} illegal "
        f"(state, operation) pairs correctly rejected")
    return result


# ---------------------------------------------------------------------------
# F8 — Fig.8: responsibilities and interplay of activity managers
# ---------------------------------------------------------------------------

def run_f8() -> ExperimentResult:
    """Joint failure handling across CM / DM / TM (Fig.8).

    Three episodes: a workstation crash in the middle of a DOP (TM
    recovers the context from the recovery point, DM resumes the
    script), a workstation crash between DOPs (DM forward recovery
    from persistent script + log), and a server crash (repository redo
    from the WAL, CM reload of the persistent hierarchy state).
    """
    result = ExperimentResult(
        "F8", "Responsibilities and interplay of activity managers "
              "(joint failure handling)")

    # --- episode 1: workstation crash mid-DOP ------------------------------
    system = make_vlsi_system(("ws-1",))
    da = run_full_chip_design(system)
    runtime = system.runtime(da.da_id)
    client_tm = runtime.client_tm
    basis = system.repository.graph(da.da_id).leaves()[0].dov_id
    dop = client_tm.begin_dop(da.da_id, "chip_planner")
    client_tm.checkout(dop, basis)
    client_tm.work(dop, 30.0)          # interval recovery point fires
    client_tm.work(dop, 15.0)          # ... 15 minutes past the point
    work_before = dop.context.work_done
    system.crash_workstation("ws-1")
    system.network.restart_node("ws-1")
    recovered, point_time = client_tm.recover_dop(dop.dop_id, da.da_id,
                                                  "chip_planner")
    lost = work_before - recovered.context.work_done
    result.add(episode="workstation crash mid-DOP",
               manager="client-TM",
               recovered=f"DOP context at recovery point "
                         f"({recovered.context.work_done:.0f} of "
                         f"{work_before:.0f} min kept)",
               lost=f"{lost:.0f} min since last recovery point")
    client_tm.abort_dop(recovered)

    # --- episode 2: workstation crash between DOPs ---------------------------
    system2 = make_vlsi_system(("ws-1",))
    da2 = run_full_chip_design(system2)
    dm2 = system2.runtime(da2.da_id).dm
    executed_before = dm2.executed_dops
    system2.crash_workstation("ws-1")
    reports = system2.restart_workstation("ws-1")
    report2 = reports[da2.da_id]
    result.add(episode="workstation crash between DOPs",
               manager="DM",
               recovered=f"script position replayed "
                         f"({report2['script_positions_replayed']} "
                         f"log records), "
                         f"{report2['executed_dops']} DOPs intact",
               lost="none (forward recovery from persistent script+log)")

    # --- episode 3: server crash ----------------------------------------------
    system3, fig5 = fig5_delegation_scenario()
    versions_before = len(system3.repository.store)
    das_before = len(system3.cm.das())
    system3.crash_server()
    system3.restart_server()
    versions_after = len(system3.repository.store)
    das_after = len(system3.cm.das())
    result.add(episode="server crash",
               manager="server-TM/repository + CM",
               recovered=f"{versions_after}/{versions_before} durable "
                         f"DOVs redone from WAL; {das_after}/{das_before}"
                         f" DAs reloaded from persistent hierarchy state",
               lost="only staged (uncommitted) checkins")
    result.data["dm_recovery"] = (executed_before,
                                  report2["executed_dops"])
    result.data["dov_recovery"] = (versions_before, versions_after)
    result.data["da_recovery"] = (das_before, das_after)
    return result
