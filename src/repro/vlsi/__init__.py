"""The VLSI design domain of Sect.3: PLAYOUT-style chip planning.

Provides the sample design process the paper validates CONCORD with:
cell hierarchies, module/net lists, shape functions, floorplans, the
seven design tools of Fig.2 (including a working chip planner with
bipartitioning, sizing, dimensioning and global routing), and the
design-plane methodology with its scripts and ordering constraints.

The names below are resolved on first access (PEP 562), so importing
one module of the domain (``repro.vlsi.tools`` for its DOTs, say)
loads that module and what it imports, not the cell hierarchies and
the methodology with it.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

#: public name -> the module that defines it
_EXPORTS = {
    "Cell": "repro.vlsi.cells",
    "CellHierarchy": "repro.vlsi.cells",
    "CellLevel": "repro.vlsi.cells",
    "sample_hierarchy": "repro.vlsi.cells",
    "ChipPlanner": "repro.vlsi.chip_planner",
    "Floorplan": "repro.vlsi.floorplan",
    "FloorplanInterface": "repro.vlsi.floorplan",
    "PinInterval": "repro.vlsi.floorplan",
    "Placement": "repro.vlsi.floorplan",
    "DESIGN_PLANE_ARROWS": "repro.vlsi.methodology",
    "DesignDomain": "repro.vlsi.methodology",
    "PlaneArrow": "repro.vlsi.methodology",
    "TraversalStep": "repro.vlsi.methodology",
    "alternative_paths_script": "repro.vlsi.methodology",
    "chip_design_script": "repro.vlsi.methodology",
    "full_design_script": "repro.vlsi.methodology",
    "playout_constraints": "repro.vlsi.methodology",
    "traversal_matrix": "repro.vlsi.methodology",
    "traverse_design_plane": "repro.vlsi.methodology",
    "Net": "repro.vlsi.netlist",
    "NetList": "repro.vlsi.netlist",
    "synthetic_netlist": "repro.vlsi.netlist",
    "Shape": "repro.vlsi.shapes",
    "ShapeFunction": "repro.vlsi.shapes",
    "shapes_for_area": "repro.vlsi.shapes",
    "TOOL_DURATIONS": "repro.vlsi.tools",
    "TOOL_NUMBERS": "repro.vlsi.tools",
    "register_vlsi_tools": "repro.vlsi.tools",
    "vlsi_dots": "repro.vlsi.tools",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    """Import the module that defines *name* on first access."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
