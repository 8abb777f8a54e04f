"""The PLAYOUT design methodology: design plane, scripts, constraints.

Sect.3 introduces the design plane of Fig.2: four design domains
(behavior, structure, floor plan, mask layout) crossed with the cell
hierarchy, traversed left-to-right by numbered tools.  This module
encodes:

* the domains and the arrows of Fig.2 (:data:`DESIGN_PLANE_ARROWS`);
* a full traversal of the plane for a given cell hierarchy
  (:func:`traverse_design_plane`) — the F2 regeneration;
* the VLSI domain's DOP-ordering constraints mentioned in Sect.4.2
  (:func:`playout_constraints`);
* the two sample scripts of Fig.6 (:func:`chip_design_script`,
  :func:`alternative_paths_script`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.dc.constraints import DomainConstraintSet, FollowedBy, NotBefore
from repro.dc.script import (
    Alternative,
    DaOpStep,
    DopStep,
    Open,
    Script,
    Sequence,
)
from repro.vlsi.cells import Cell, CellHierarchy, CellLevel
from repro.vlsi.tools import TOOL_NUMBERS


class DesignDomain(str, Enum):
    """The four design domains of Fig.2."""

    BEHAVIOR = "behavior"
    STRUCTURE = "structure"
    FLOOR_PLAN = "floor_plan"
    MASK_LAYOUT = "mask_layout"


@dataclass(frozen=True)
class PlaneArrow:
    """One arrow of the design plane: a tool moving design information."""

    tool: str
    number: int
    source: DesignDomain
    target: DesignDomain
    levels: tuple[CellLevel, ...]   # hierarchy levels the tool applies at


#: the arrows of Fig.2, tool numbers as printed in the figure
DESIGN_PLANE_ARROWS: tuple[PlaneArrow, ...] = (
    PlaneArrow("structure_synthesis", 1, DesignDomain.BEHAVIOR,
               DesignDomain.STRUCTURE, (CellLevel.CHIP,)),
    PlaneArrow("repartitioning", 2, DesignDomain.STRUCTURE,
               DesignDomain.STRUCTURE,
               (CellLevel.CHIP, CellLevel.MODULE, CellLevel.BLOCK)),
    PlaneArrow("shape_function_generator", 3, DesignDomain.STRUCTURE,
               DesignDomain.FLOOR_PLAN,
               (CellLevel.MODULE, CellLevel.BLOCK,
                CellLevel.STANDARD_CELL)),
    PlaneArrow("pad_frame_editor", 4, DesignDomain.FLOOR_PLAN,
               DesignDomain.FLOOR_PLAN, (CellLevel.CHIP,)),
    PlaneArrow("chip_planner", 5, DesignDomain.FLOOR_PLAN,
               DesignDomain.FLOOR_PLAN,
               (CellLevel.CHIP, CellLevel.MODULE, CellLevel.BLOCK)),
    PlaneArrow("cell_synthesis", 6, DesignDomain.STRUCTURE,
               DesignDomain.MASK_LAYOUT, (CellLevel.STANDARD_CELL,)),
    PlaneArrow("chip_assembly", 7, DesignDomain.FLOOR_PLAN,
               DesignDomain.MASK_LAYOUT, (CellLevel.CHIP,)),
)


@dataclass(frozen=True)
class TraversalStep:
    """One tool application during a design-plane traversal."""

    order: int
    tool: str
    number: int
    cell: str
    level: CellLevel
    source: DesignDomain
    target: DesignDomain


def traverse_design_plane(hierarchy: CellHierarchy) -> list[TraversalStep]:
    """Full left-to-right traversal of the plane for *hierarchy*.

    "the design process starts with a behavioral description of the
    circuit to be designed and then traverses the design plane from
    left to right" — structure synthesis at the chip, shape estimation
    bottom-up, pad frame, recursive top-down chip planning, standard
    cell synthesis, and final chip assembly.
    """
    steps: list[TraversalStep] = []
    order = 0

    def add(tool: str, cell: Cell, source: DesignDomain,
            target: DesignDomain) -> None:
        nonlocal order
        order += 1
        steps.append(TraversalStep(order, tool, TOOL_NUMBERS[tool],
                                   cell.name, cell.level, source, target))

    root = hierarchy.root
    add("structure_synthesis", root, DesignDomain.BEHAVIOR,
        DesignDomain.STRUCTURE)
    # shape estimation bottom-up: standard cells, then blocks, modules
    for level in (CellLevel.STANDARD_CELL, CellLevel.BLOCK,
                  CellLevel.MODULE):
        for cell in hierarchy.cells(level):
            add("shape_function_generator", cell, DesignDomain.STRUCTURE,
                DesignDomain.FLOOR_PLAN)
    add("pad_frame_editor", root, DesignDomain.FLOOR_PLAN,
        DesignDomain.FLOOR_PLAN)
    # chip planning top-down: "a floorplan is computed for each cell of
    # the hierarchy by recursively applying the chip planner"
    for level in (CellLevel.CHIP, CellLevel.MODULE, CellLevel.BLOCK):
        for cell in hierarchy.cells(level):
            if cell.children:
                add("chip_planner", cell, DesignDomain.FLOOR_PLAN,
                    DesignDomain.FLOOR_PLAN)
    for cell in hierarchy.cells(CellLevel.STANDARD_CELL):
        add("cell_synthesis", cell, DesignDomain.STRUCTURE,
            DesignDomain.MASK_LAYOUT)
    add("chip_assembly", root, DesignDomain.FLOOR_PLAN,
        DesignDomain.MASK_LAYOUT)
    return steps


def traversal_matrix(steps: list[TraversalStep]
                     ) -> dict[tuple[str, str], int]:
    """(domain, level) -> number of tool applications (the F2 table)."""
    matrix: dict[tuple[str, str], int] = {}
    for step in steps:
        key = (step.target.value, step.level.name)
        matrix[key] = matrix.get(key, 0) + 1
    return matrix


def playout_constraints() -> DomainConstraintSet:
    """The Sect.4.2 ordering constraints of the VLSI domain.

    Verbatim from the paper: chip assembly "must not be applied before
    a DOP of another type has successfully completed (e.g., structure
    synthesis)", and "a certain DOP must always be followed by another
    DOP of a specific type (e.g. pad frame editor followed by chip
    planner)."
    """
    return DomainConstraintSet([
        NotBefore("structure_synthesis", "chip_assembly"),
        NotBefore("structure_synthesis", "chip_planner"),
        NotBefore("shape_function_generator", "chip_planner"),
        NotBefore("chip_planner", "chip_assembly"),
        FollowedBy("pad_frame_editor", "chip_planner"),
    ], domain="vlsi-playout")


def chip_design_script() -> Script:
    """Fig.6a: "A partially undetermined script".

    "a DA which is to design a chip starts with the structure synthesis
    and ends with a chip assembly.  A script which fixes these two
    operations and allows for arbitrary intermediate steps."
    """
    return Script(Sequence(
        DopStep("structure_synthesis"),
        Open(name="intermediate-steps"),
        DopStep("chip_assembly"),
    ), name="fig6a-partially-undetermined")


def alternative_paths_script() -> Script:
    """Fig.6b: "Alternative paths in a script".

    "after shape function generation, the designer has to decide how to
    proceed choosing among three alternative methods."
    """
    return Script(Sequence(
        DopStep("shape_function_generator"),
        Alternative(
            DopStep("chip_planner"),
            Sequence(DopStep("repartitioning"), DopStep("chip_planner")),
            Sequence(DopStep("pad_frame_editor"), DopStep("chip_planner")),
            name="three-methods",
        ),
    ), name="fig6b-alternative-paths")


def full_design_script() -> Script:
    """An end-to-end chip design honouring the PLAYOUT constraints."""
    return Script(Sequence(
        DopStep("structure_synthesis"),
        DopStep("shape_function_generator"),
        DopStep("pad_frame_editor"),
        DopStep("chip_planner"),
        DaOpStep("Evaluate"),
        DopStep("chip_assembly"),
    ), name="full-chip-design")
