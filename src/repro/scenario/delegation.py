"""The ``concurrent_delegation`` kind: the Fig.5 delegation on the kernel.

The top-level DA plans cell 0, then delegates one sub-DA per
``[team].subcells`` entry; every sub-DA runs the whole AC/DC/TE stack
on the shared kernel.  The config is the run's only parameter list:
``[team].subcells``, ``[crashes].schedule``, ``[traffic].jitter`` and
``[scenario].seed`` are read here, the schema holds their defaults.
The VLSI installation the run builds (:func:`make_vlsi_system`) lives
here too, since this kind is its first user; the experiment harness
and the examples import it from this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.features import DesignSpecification, RangeFeature
from repro.core.system import ConcordSystem
from repro.dc.rules import EcaRule
from repro.dc.script import DaOpStep, DopStep, Script, Sequence
from repro.repository.versions import FrozenDict, FrozenList, freeze_payload
from repro.scenario.schema import ScenarioConfig
from repro.sim.kernel import Kernel
from repro.te.context import DopContext
from repro.vlsi.floorplan import FloorplanInterface
from repro.vlsi.methodology import playout_constraints
from repro.vlsi.tools import register_vlsi_tools, vlsi_dots

# the VLSI tools import what they run when they run; a run of this
# kind runs the chip planner (and through it the floorplan, net list
# and shape modules), so they load with the runner, not in the run
import repro.vlsi.chip_planner  # noqa: F401


def make_vlsi_system(workstations: tuple[str, ...] = ("ws-1",),
                     trace: bool = True,
                     jitter: float = 0.0,
                     seed: int = 0) -> ConcordSystem:
    """A CONCORD installation with the VLSI domain installed."""
    system = ConcordSystem(trace=trace, jitter=jitter, seed=seed)
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
    content (``params['operations']``).  Like the VLSI tools, it
    stores what it produces frozen, as built.
    """
    subcell = params["subcell"]
    operations = params.get("operations",
                            ["op-a", "op-b", "op-c", "op-d"])
    parent_plan = context.data.get("floorplan")
    # the cell's [x, y, w, h] box, read off the frozen plan as stored
    box = parent_plan.get("placements", {}).get(subcell) \
        if parent_plan else None
    if box is not None:
        x, y, width, height = box
        interface = FloorplanInterface(subcell, width, height,
                                       origin=(x, y))
    else:
        interface = FloorplanInterface(subcell,
                                       params.get("max_width", 50.0),
                                       params.get("max_height", 50.0))
    # a step's operations arrive frozen with its parameters
    if type(operations) is not FrozenList:
        operations = freeze_payload(list(operations))
    context.data.clear()
    context.data.update({
        "cell": subcell,
        "level": params.get("level", "module"),
        "behavior": FrozenDict({"operations": operations}),
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
        config: ScenarioConfig,
        on_kernel: Callable[[Kernel], None] | None = None,
        *, sequential: bool = False,
        ) -> tuple[ConcordSystem, ConcurrentReport]:
    """Delegated subcell planning with every sub-DA live at once.

    The top-level DA plans cell 0, then delegates one sub-DA per
    subcell.  The sub-DAs execute on the shared kernel — tool steps
    interleave on one clock, the Ready_To_Commit messages are
    auto-dispatched to the top DM whose ECA rule terminates each
    sub-DA the instant its message arrives (devolving the final
    DOVs).  ``sequential=True`` is a schedule on the same kernel, not
    a second execution mode: the sub-DAs run one after the other,
    each to quiescence — the reference the interleaved run must end
    in the same states as.  A ``[[crashes.schedule]]`` entry arms a
    kernel-injected failure, its ``at`` relative to the delegated
    phase's start.
    """
    subcells = config.get("team", "subcells")
    stations = ("ws-0",) + tuple(f"ws-{cell}" for cell in subcells)
    system = make_vlsi_system(stations, trace=False,
                              jitter=config.get("traffic", "jitter"),
                              seed=config.seed)
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
    for crash in config.get("crashes", "schedule"):
        system.schedule_crash(crash["node"], at=phase_start + crash["at"],
                              restart_after=crash["restart_after"])
    sub_ids = list(report.sub_das.values())
    if sequential:
        for sub_id in sub_ids:
            system.run_concurrent([sub_id])
    else:
        system.run_concurrent(sub_ids)
        report.signature = system.kernel.trace_signature()
    report.makespan = system.clock.now - phase_start
    report.events = system.kernel.executed - events_before
    for da_id in [top.da_id, *sub_ids]:
        report.final_states[da_id] = system.cm.da(da_id).state.value
    return system, report


def delegation_report(config: ScenarioConfig,
                      on_kernel: Callable[[Kernel], None] | None
                      ) -> ConcurrentReport:
    """The kind's runner: the interleaved run's report."""
    return concurrent_delegation_scenario(config, on_kernel)[1]
