"""Unit tests for the design plane, PLAYOUT constraints and Fig.6 scripts."""

from __future__ import annotations

from repro.vlsi.cells import CellLevel, sample_hierarchy
from repro.vlsi.methodology import (
    DESIGN_PLANE_ARROWS,
    DesignDomain,
    alternative_paths_script,
    chip_design_script,
    full_design_script,
    playout_constraints,
    traversal_matrix,
    traverse_design_plane,
)
from repro.vlsi.tools import TOOL_NUMBERS


class TestDesignPlane:
    def test_seven_arrows_with_paper_numbers(self):
        assert len(DESIGN_PLANE_ARROWS) == 7
        numbers = {a.tool: a.number for a in DESIGN_PLANE_ARROWS}
        assert numbers == TOOL_NUMBERS

    def test_traversal_starts_and_ends_as_paper(self):
        steps = traverse_design_plane(sample_hierarchy())
        assert steps[0].tool == "structure_synthesis"
        assert steps[0].source is DesignDomain.BEHAVIOR
        assert steps[-1].tool == "chip_assembly"
        assert steps[-1].target is DesignDomain.MASK_LAYOUT

    def test_chip_planner_applied_per_inner_cell(self):
        hierarchy = sample_hierarchy()
        steps = traverse_design_plane(hierarchy)
        planner_cells = {s.cell for s in steps
                         if s.tool == "chip_planner"}
        inner = {c.name for c in hierarchy.cells()
                 if c.children}
        assert planner_cells == inner

    def test_cell_synthesis_only_standard_cells(self):
        hierarchy = sample_hierarchy()
        steps = traverse_design_plane(hierarchy)
        for step in steps:
            if step.tool == "cell_synthesis":
                assert step.level is CellLevel.STANDARD_CELL

    def test_shape_estimation_before_planning(self):
        steps = traverse_design_plane(sample_hierarchy())
        order = [s.tool for s in steps]
        last_shape = max(i for i, t in enumerate(order)
                         if t == "shape_function_generator")
        first_plan = min(i for i, t in enumerate(order)
                         if t == "chip_planner")
        assert last_shape < first_plan

    def test_matrix_totals(self):
        hierarchy = sample_hierarchy()
        steps = traverse_design_plane(hierarchy)
        matrix = traversal_matrix(steps)
        assert sum(matrix.values()) == len(steps)

    def test_traversal_order_monotone(self):
        steps = traverse_design_plane(sample_hierarchy())
        assert [s.order for s in steps] == list(range(1, len(steps) + 1))


class TestPlayoutConstraints:
    def test_full_traversal_is_legal(self):
        constraints = playout_constraints()
        steps = traverse_design_plane(sample_hierarchy())
        assert constraints.violations([s.tool for s in steps]) == []

    def test_assembly_first_is_illegal(self):
        constraints = playout_constraints()
        assert constraints.violations(["chip_assembly"]) != []

    def test_pad_frame_must_be_followed_by_planner(self):
        constraints = playout_constraints()
        bad = ["structure_synthesis", "shape_function_generator",
               "pad_frame_editor"]
        assert any("followed" in v for v in constraints.violations(bad))


class TestFig6Scripts:
    def test_fig6a_statically_valid(self):
        constraints = playout_constraints()
        assert constraints.validate_script(chip_design_script()) == []

    def test_fig6b_three_paths(self):
        sequences = alternative_paths_script().sequences()
        assert len(sequences) == 3
        assert all(s[0] == "shape_function_generator" for s in sequences)
        assert all(s[-1] == "chip_planner" for s in sequences)

    def test_fig6b_valid_after_synthesis(self):
        constraints = playout_constraints()
        problems = constraints.validate_script(
            alternative_paths_script(),
            history=["structure_synthesis"])
        assert problems == []

    def test_full_design_script_valid(self):
        constraints = playout_constraints()
        assert constraints.validate_script(full_design_script()) == []
