"""The VLSI design domain of Sect.3: PLAYOUT-style chip planning.

Provides the sample design process the paper validates CONCORD with:
cell hierarchies, module/net lists, shape functions, floorplans, the
seven design tools of Fig.2 (including a working chip planner with
bipartitioning, sizing, dimensioning and global routing), and the
design-plane methodology with its scripts and ordering constraints.
"""

from repro.vlsi.cells import (
    Cell,
    CellHierarchy,
    CellLevel,
    sample_hierarchy,
)
from repro.vlsi.chip_planner import ChipPlanner, global_route
from repro.vlsi.floorplan import (
    Floorplan,
    FloorplanInterface,
    PinInterval,
    Placement,
)
from repro.vlsi.methodology import (
    DESIGN_PLANE_ARROWS,
    DesignDomain,
    PlaneArrow,
    TraversalStep,
    alternative_paths_script,
    chip_design_script,
    full_design_script,
    playout_constraints,
    traversal_matrix,
    traverse_design_plane,
)
from repro.vlsi.netlist import Net, NetList, synthetic_netlist
from repro.vlsi.shapes import Shape, ShapeFunction, shapes_for_area
from repro.vlsi.tools import (
    TOOL_DURATIONS,
    TOOL_NUMBERS,
    register_vlsi_tools,
    vlsi_dots,
)

__all__ = [
    "Cell",
    "CellHierarchy",
    "CellLevel",
    "ChipPlanner",
    "DESIGN_PLANE_ARROWS",
    "DesignDomain",
    "Floorplan",
    "FloorplanInterface",
    "Net",
    "NetList",
    "PinInterval",
    "Placement",
    "PlaneArrow",
    "Shape",
    "ShapeFunction",
    "TOOL_DURATIONS",
    "TOOL_NUMBERS",
    "TraversalStep",
    "alternative_paths_script",
    "chip_design_script",
    "full_design_script",
    "global_route",
    "playout_constraints",
    "register_vlsi_tools",
    "sample_hierarchy",
    "shapes_for_area",
    "synthetic_netlist",
    "traversal_matrix",
    "traverse_design_plane",
    "vlsi_dots",
]
