"""The seven design tools of Fig.2, executable on DOP contexts.

Each tool is a function ``tool(context, params)`` mutating the DOP's
working data — the form the DC level's :class:`ToolRegistry` expects.
A tool builds what it produces frozen, once, where it produces it
(the VLSI values' ``to_dict`` and the :class:`FrozenDict` /
:class:`FrozenList` constructors, which size a value as they take it):
the recovery point after the step and the checkin share those values
instead of walking them again.
The numbering follows Fig.2:

1. structure synthesis       behavior -> structure
2. repartitioning            structure -> structure
3. shape function generator  structure -> floor-plan estimates
4. pad frame editor          chip frame + pin intervals
5. chip planner toolbox      floor planning (see chip_planner module)
6. cell synthesis            standard cell -> mask layout
7. chip assembly             floorplan + layouts -> chip mask layout

The DOV payload conventions: a cell version carries ``cell``, ``level``
plus per-domain entries ``behavior`` / ``structure`` / ``shape_functions``
/ ``interface`` / ``floorplan`` / ``layout`` and derived scalars
``area``, ``width``, ``height``.
"""

from __future__ import annotations

from random import Random
from typing import Any

from repro.dc.design_manager import ToolRegistry
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    Constraint,
    DesignObjectType,
)
from repro.repository.versions import FrozenDict, FrozenList, freeze_payload
from repro.te.context import DopContext
from repro.util.errors import WorkflowError

# The planner, floorplan, net list and shape modules are imported by
# the tools that run them: a caller that only needs the DOTs
# (vlsi_dots) does not load them, and a scenario that runs the tools
# loads them with its runner (repro.scenario.delegation).


#: what rebuilding a malformed payload entry raises
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError)


def _malformed(tool: str, entry: str, exc: Exception) -> WorkflowError:
    """The failure of rebuilding one payload entry.

    Payloads arrive through checkout from whoever derived them; an
    entry with a key missing or a value of the wrong type or range is
    the designer's to repair, so it is a workflow failure that names
    the entry, not a raw fault inside the DM.  A tool rebuilds its
    entries inside ``try: ... except _MALFORMED`` and raises this.
    """
    return WorkflowError(f"{tool} got a malformed {entry}: "
                         f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# DOTs of the VLSI domain
# ---------------------------------------------------------------------------

def _cell_attributes() -> list[AttributeDef]:
    return [
        AttributeDef("cell", AttributeKind.STRING),
        AttributeDef("level", AttributeKind.STRING),
        AttributeDef("behavior", AttributeKind.JSON, required=False),
        AttributeDef("structure", AttributeKind.JSON, required=False),
        AttributeDef("shape_functions", AttributeKind.JSON, required=False),
        AttributeDef("interface", AttributeKind.JSON, required=False),
        AttributeDef("floorplan", AttributeKind.JSON, required=False),
        AttributeDef("layout", AttributeKind.JSON, required=False),
        AttributeDef("area", AttributeKind.FLOAT, required=False),
        AttributeDef("width", AttributeKind.FLOAT, required=False),
        AttributeDef("height", AttributeKind.FLOAT, required=False),
    ]


def _non_negative_dims() -> list[Constraint]:
    def check(data: dict[str, Any]) -> bool:
        for key in ("area", "width", "height"):
            value = data.get(key)
            if value is not None and value < 0:
                return False
        return True

    return [Constraint("non-negative-dimensions", check,
                       "area/width/height must be >= 0")]


def vlsi_dots() -> dict[str, DesignObjectType]:
    """The four-level DOT hierarchy: Chip ⊃ Module ⊃ Block ⊃ StandardCell."""
    std = DesignObjectType("StandardCell", _cell_attributes(),
                           constraints=_non_negative_dims())
    block = DesignObjectType("Block", _cell_attributes(),
                             parts={"cells": std},
                             constraints=_non_negative_dims())
    module = DesignObjectType("Module", _cell_attributes(),
                              parts={"blocks": block},
                              constraints=_non_negative_dims())
    chip = DesignObjectType("Chip", _cell_attributes(),
                            parts={"modules": module},
                            constraints=_non_negative_dims())
    return {"Chip": chip, "Module": module, "Block": block,
            "StandardCell": std}


# ---------------------------------------------------------------------------
# tool 1: structure synthesis
# ---------------------------------------------------------------------------

def structure_synthesis(context: DopContext,
                        params: dict[str, Any]) -> None:
    """Derive the structural description from the behavior (tool 1).

    Each behavioral operation becomes one subcell; connectivity is
    synthesised with locality skew (seeded via ``params['seed']``).
    """
    behavior = context.data.get("behavior")
    if not behavior or "operations" not in behavior:
        raise WorkflowError(
            "structure synthesis needs a behavioral description with "
            "'operations'")
    from repro.vlsi.netlist import synthetic_netlist

    operations = behavior["operations"]
    cell = context.data.get("cell", "cud")
    subcells = [f"{cell}/{op}" for op in operations]
    rng = Random(int(params.get("seed", 0)))
    netlist = synthetic_netlist(subcells, rng,
                                nets_per_cell=float(
                                    params.get("nets_per_cell", 1.5)))
    frozen = netlist.to_dict()
    # the subcells are the net list's cells: one frozen list, twice
    context.data["structure"] = FrozenDict({
        "subcells": frozen["cells"],
        "netlist": frozen,
    })


# ---------------------------------------------------------------------------
# tool 2: repartitioning
# ---------------------------------------------------------------------------

def repartitioning(context: DopContext, params: dict[str, Any]) -> None:
    """Regroup the structure into balanced partitions (tool 2).

    Copy-on-write: a structure arriving via checkout is frozen, so
    the tool derives a new structure dict instead of mutating it.
    """
    from repro.vlsi.netlist import NetList

    structure = context.data.get("structure")
    if not structure:
        raise WorkflowError("repartitioning needs a structure")
    try:
        netlist = NetList.from_dict(structure["netlist"])
    except _MALFORMED as exc:
        raise _malformed("repartitioning", "structure['netlist']",
                         exc) from exc
    groups = int(params.get("groups", 2))
    partitions: list[list[str]] = [[] for _ in range(groups)]
    # round-robin by descending degree keeps partitions balanced while
    # clustering highly connected cells first
    ranked = sorted(netlist.cells, key=lambda c: -netlist.degree(c))
    for i, cell_name in enumerate(ranked):
        partitions[i % groups].append(cell_name)
    # the other entries are whatever the checkout held: freeze the merge
    context.data["structure"] = freeze_payload(
        {**structure, "partitions": partitions})


# ---------------------------------------------------------------------------
# tool 3: shape function generator
# ---------------------------------------------------------------------------

def shape_function_generator(context: DopContext,
                             params: dict[str, Any]) -> None:
    """Estimate shape functions for every subcell (tool 3)."""
    from repro.vlsi.shapes import shapes_for_area

    structure = context.data.get("structure")
    if not structure:
        raise WorkflowError("shape function generation needs a structure")
    areas: dict[str, float] = params.get("areas", {})
    default_area = float(params.get("default_area", 4.0))
    aspects = tuple(params.get("aspects", (0.5, 1.0, 2.0)))
    functions = {}
    try:
        subcells = list(structure["subcells"])
    except _MALFORMED as exc:
        raise _malformed("shape function generation",
                         "structure['subcells']", exc) from exc
    # a staircase depends on the area alone: subcells of one area share
    # it, estimated and frozen once
    staircases: dict[float, FrozenList] = {}
    for subcell in subcells:
        area = float(areas.get(subcell, default_area))
        shapes = staircases.get(area)
        if shapes is None:
            shapes = staircases[area] = \
                shapes_for_area(subcell, area, aspects).to_dict()["shapes"]
        functions[subcell] = FrozenDict({"cell": subcell, "shapes": shapes})
    context.data["shape_functions"] = FrozenDict(functions)


# ---------------------------------------------------------------------------
# tool 4: pad frame editor
# ---------------------------------------------------------------------------

def pad_frame_editor(context: DopContext, params: dict[str, Any]) -> None:
    """Fix the CUD frame and pin intervals (tool 4)."""
    from repro.vlsi.floorplan import FloorplanInterface, PinInterval

    cell = context.data.get("cell", "cud")
    max_width = float(params.get("max_width", 100.0))
    max_height = float(params.get("max_height", 100.0))
    pin_count = int(params.get("pins", 4))
    pins = []
    edges = ("north", "east", "south", "west")
    for i in range(pin_count):
        edge = edges[i % 4]
        extent = max_width if edge in ("north", "south") else max_height
        slot = extent / max(1, (pin_count + 3) // 4)
        offset = (i // 4) * slot
        pins.append(PinInterval(edge, round(offset, 3),
                                round(min(extent, offset + slot * 0.5), 3),
                                net=f"io-{i}"))
    interface = FloorplanInterface(cell, max_width, max_height,
                                   pins=tuple(pins))
    context.data["interface"] = interface.to_dict()


# ---------------------------------------------------------------------------
# tool 5: chip planner
# ---------------------------------------------------------------------------

def chip_planner_tool(context: DopContext, params: dict[str, Any]) -> None:
    """Plan the CUD's floorplan (tool 5; see Fig.3).

    Inputs from the context: structure (module and net list), shape
    functions, interface.  Outputs: floorplan contents + derived
    dimensions; the subcell interfaces are available via the floorplan.
    """
    from repro.vlsi.chip_planner import ChipPlanner
    from repro.vlsi.floorplan import FloorplanInterface
    from repro.vlsi.netlist import NetList
    from repro.vlsi.shapes import ShapeFunction

    structure = context.data.get("structure")
    shape_raw = context.data.get("shape_functions")
    interface_raw = context.data.get("interface")
    if not structure:
        raise WorkflowError("chip planning needs a structure")
    if not shape_raw:
        raise WorkflowError("chip planning needs shape functions")
    if not interface_raw:
        raise WorkflowError("chip planning needs an interface description")
    entry = "structure['netlist']"
    try:
        netlist = NetList.from_dict(structure["netlist"])
        entry = "'shape_functions'"
        shape_functions = {name: ShapeFunction.from_dict(raw)
                           for name, raw in shape_raw.items()}
        entry = "'interface'"
        interface = FloorplanInterface.from_dict(interface_raw)
    except _MALFORMED as exc:
        raise _malformed("chip planning", entry, exc) from exc
    planner = ChipPlanner(iterations=int(params.get("iterations", 3)),
                          seed=int(params.get("seed", 0)))
    floorplan = planner.plan(context.data.get("cell", "cud"), netlist,
                             shape_functions, interface)
    context.data["floorplan"] = floorplan.to_dict()
    context.data["width"] = floorplan.width
    context.data["height"] = floorplan.height
    context.data["area"] = round(floorplan.area, 3)


# ---------------------------------------------------------------------------
# tool 6: cell synthesis
# ---------------------------------------------------------------------------

def cell_synthesis(context: DopContext, params: dict[str, Any]) -> None:
    """Produce the mask layout of a standard cell (tool 6)."""
    area = context.data.get("area")
    if area is None:
        area = float(params.get("area", 4.0))
        context.data["area"] = area
    aspect = float(params.get("aspect", 1.0))
    width = round((area * aspect) ** 0.5, 3)
    height = round(area / width, 3) if width else 0.0
    context.data["layout"] = FrozenDict({
        "kind": "standard-cell",
        "rects": FrozenList([FrozenList((0.0, 0.0, width, height))]),
        "width": width,
        "height": height,
    })
    context.data["width"] = width
    context.data["height"] = height


# ---------------------------------------------------------------------------
# tool 7: chip assembly
# ---------------------------------------------------------------------------

def chip_assembly(context: DopContext, params: dict[str, Any]) -> None:
    """Assemble the chip mask layout from the floorplan (tool 7)."""
    from repro.vlsi.floorplan import Floorplan

    floorplan_raw = context.data.get("floorplan")
    if not floorplan_raw:
        raise WorkflowError("chip assembly needs a floorplan")
    try:
        floorplan = Floorplan.from_dict(floorplan_raw)
    except _MALFORMED as exc:
        raise _malformed("chip assembly", "'floorplan'", exc) from exc
    problems = floorplan.validate()
    if problems:
        raise WorkflowError(
            f"chip assembly rejected invalid floorplan: {problems}")
    rects = FrozenList([FrozenList(p[1:])
                        for p in floorplan.placements.values()])
    context.data["layout"] = FrozenDict({
        "kind": "chip",
        "rects": rects,
        "width": floorplan.width,
        "height": floorplan.height,
        "utilisation": round(floorplan.utilisation, 4),
    })
    context.data["width"] = floorplan.width
    context.data["height"] = floorplan.height
    context.data["area"] = round(floorplan.area, 3)


#: default simulated running times (minutes) per tool — DOPs are
#: long-duration transactions ("several hours", Sect.4.3)
TOOL_DURATIONS: dict[str, float] = {
    "structure_synthesis": 60.0,
    "repartitioning": 30.0,
    "shape_function_generator": 20.0,
    "pad_frame_editor": 15.0,
    "chip_planner": 90.0,
    "cell_synthesis": 45.0,
    "chip_assembly": 120.0,
}

#: Fig.2's tool numbering
TOOL_NUMBERS: dict[str, int] = {
    "structure_synthesis": 1,
    "repartitioning": 2,
    "shape_function_generator": 3,
    "pad_frame_editor": 4,
    "chip_planner": 5,
    "cell_synthesis": 6,
    "chip_assembly": 7,
}


def register_vlsi_tools(registry: ToolRegistry) -> None:
    """Register tools 1-7 under their Fig.2 names."""
    registry.register("structure_synthesis", structure_synthesis,
                      TOOL_DURATIONS["structure_synthesis"])
    registry.register("repartitioning", repartitioning,
                      TOOL_DURATIONS["repartitioning"])
    registry.register("shape_function_generator", shape_function_generator,
                      TOOL_DURATIONS["shape_function_generator"])
    registry.register("pad_frame_editor", pad_frame_editor,
                      TOOL_DURATIONS["pad_frame_editor"])
    registry.register("chip_planner", chip_planner_tool,
                      TOOL_DURATIONS["chip_planner"])
    registry.register("cell_synthesis", cell_synthesis,
                      TOOL_DURATIONS["cell_synthesis"])
    registry.register("chip_assembly", chip_assembly,
                      TOOL_DURATIONS["chip_assembly"])
