"""Unit tests for the seven VLSI design tools and the DOT hierarchy."""

from __future__ import annotations

import pytest

from repro.dc.design_manager import ToolRegistry
from repro.te.context import DopContext
from repro.util.errors import WorkflowError
from repro.vlsi.tools import (
    TOOL_DURATIONS,
    TOOL_NUMBERS,
    cell_synthesis,
    chip_assembly,
    chip_planner_tool,
    design_rule_check,
    pad_frame_editor,
    register_vlsi_tools,
    repartitioning,
    shape_function_generator,
    structure_synthesis,
    vlsi_dots,
)


def behavior_context(operations=4) -> DopContext:
    return DopContext(data={
        "cell": "cud", "level": "chip",
        "behavior": {"operations": [f"op-{i}" for i in range(operations)]},
    })


def planned_context() -> DopContext:
    """A context carried through tools 1, 3, 4, 5."""
    context = behavior_context()
    structure_synthesis(context, {"seed": 1})
    shape_function_generator(context, {})
    pad_frame_editor(context, {"max_width": 60.0, "max_height": 60.0})
    chip_planner_tool(context, {"iterations": 2, "seed": 1})
    return context


class TestDots:
    def test_part_of_chain(self):
        dots = vlsi_dots()
        assert dots["Module"].is_part_of(dots["Chip"])
        assert dots["StandardCell"].is_part_of(dots["Chip"])
        assert not dots["Chip"].is_part_of(dots["Module"])

    def test_negative_dimensions_rejected(self):
        dots = vlsi_dots()
        problems = dots["Chip"].validate({"cell": "c", "level": "chip",
                                          "area": -1.0})
        assert problems

    def test_valid_payload_accepted(self):
        dots = vlsi_dots()
        assert dots["Chip"].validate({"cell": "c", "level": "chip",
                                      "area": 5.0}) == []


class TestStructureSynthesis:
    def test_one_subcell_per_operation(self):
        context = behavior_context(operations=5)
        structure_synthesis(context, {"seed": 0})
        structure = context.data["structure"]
        assert len(structure["subcells"]) == 5
        assert structure["netlist"]["cells"] == structure["subcells"]

    def test_requires_behavior(self):
        with pytest.raises(WorkflowError):
            structure_synthesis(DopContext(data={"cell": "c"}), {})

    def test_seed_determinism(self):
        a = behavior_context()
        b = behavior_context()
        structure_synthesis(a, {"seed": 7})
        structure_synthesis(b, {"seed": 7})
        assert a.data["structure"] == b.data["structure"]


class TestRepartitioning:
    def test_balanced_groups(self):
        context = behavior_context(operations=6)
        structure_synthesis(context, {"seed": 0})
        repartitioning(context, {"groups": 3})
        partitions = context.data["structure"]["partitions"]
        assert len(partitions) == 3
        sizes = [len(p) for p in partitions]
        assert max(sizes) - min(sizes) <= 1
        flattened = [c for p in partitions for c in p]
        assert sorted(flattened) == sorted(
            context.data["structure"]["subcells"])

    def test_requires_structure(self):
        with pytest.raises(WorkflowError):
            repartitioning(DopContext(), {})


class TestShapeFunctionGenerator:
    def test_staircase_per_subcell(self):
        context = behavior_context()
        structure_synthesis(context, {"seed": 0})
        shape_function_generator(context, {"default_area": 9.0})
        functions = context.data["shape_functions"]
        assert set(functions) == set(
            context.data["structure"]["subcells"])
        for raw in functions.values():
            assert raw["shapes"]

    def test_requires_structure(self):
        with pytest.raises(WorkflowError):
            shape_function_generator(DopContext(), {})


class TestPadFrameEditor:
    def test_interface_with_pins(self):
        context = behavior_context()
        pad_frame_editor(context, {"max_width": 30.0, "max_height": 20.0,
                                   "pins": 8})
        interface = context.data["interface"]
        assert interface["max_width"] == 30.0
        assert len(interface["pins"]) == 8
        edges = {p["edge"] for p in interface["pins"]}
        assert edges == {"north", "east", "south", "west"}


class TestChipPlanner:
    def test_produces_floorplan_and_dimensions(self):
        context = planned_context()
        assert "floorplan" in context.data
        assert context.data["width"] > 0
        assert context.data["area"] == pytest.approx(
            context.data["width"] * context.data["height"], rel=1e-3)

    def test_missing_inputs_rejected(self):
        context = behavior_context()
        with pytest.raises(WorkflowError):
            chip_planner_tool(context, {})  # no structure
        structure_synthesis(context, {})
        with pytest.raises(WorkflowError):
            chip_planner_tool(context, {})  # no shape functions
        shape_function_generator(context, {})
        with pytest.raises(WorkflowError):
            chip_planner_tool(context, {})  # no interface


class TestCellSynthesis:
    def test_layout_from_area(self):
        context = DopContext(data={"cell": "std", "level": "standard_cell",
                                   "area": 16.0})
        cell_synthesis(context, {"aspect": 4.0})
        layout = context.data["layout"]
        assert layout["kind"] == "standard-cell"
        assert context.data["width"] == pytest.approx(8.0)
        assert context.data["height"] == pytest.approx(2.0)

    def test_default_area_param(self):
        context = DopContext(data={"cell": "std", "level": "std"})
        cell_synthesis(context, {"area": 25.0})
        assert context.data["area"] == 25.0


class TestChipAssembly:
    def test_assembles_valid_floorplan(self):
        context = planned_context()
        chip_assembly(context, {})
        layout = context.data["layout"]
        assert layout["kind"] == "chip"
        assert len(layout["rects"]) == len(
            context.data["structure"]["subcells"])
        assert 0 < layout["utilisation"] <= 1.0

    def test_requires_floorplan(self):
        with pytest.raises(WorkflowError):
            chip_assembly(behavior_context(), {})

    def test_rejects_invalid_floorplan(self):
        context = planned_context()
        # corrupt the floorplan: force an overlap
        plan = context.data["floorplan"]
        names = list(plan["placements"])
        plan["placements"][names[0]] = plan["placements"][names[1]]
        with pytest.raises(WorkflowError):
            chip_assembly(context, {})


class TestDesignRuleCheck:
    def test_passes_valid_plan(self):
        context = planned_context()
        assert design_rule_check(context.data)

    def test_fails_without_floorplan(self):
        assert not design_rule_check({"cell": "c"})

    def test_utilisation_threshold(self):
        context = planned_context()
        assert not design_rule_check(context.data, min_utilisation=1.01)


class TestRegistration:
    def test_all_seven_registered(self):
        registry = ToolRegistry()
        register_vlsi_tools(registry)
        assert set(TOOL_NUMBERS) <= set(registry.names())
        assert len(TOOL_NUMBERS) == 7
        assert sorted(TOOL_NUMBERS.values()) == list(range(1, 8))

    def test_durations_registered(self):
        registry = ToolRegistry()
        register_vlsi_tools(registry)
        for tool, duration in TOOL_DURATIONS.items():
            assert registry.duration(tool) == duration


class TestMalformedPayloads:
    """Payloads come out of DOVs: what a tool cannot parse reaches the
    DM as a named workflow failure, not as the parser's raw fault."""

    @pytest.fixture
    def registry(self):
        registry = ToolRegistry()
        register_vlsi_tools(registry)
        return registry

    @staticmethod
    def inputs() -> DopContext:
        context = behavior_context()
        structure_synthesis(context, {"seed": 1})
        shape_function_generator(context, {})
        pad_frame_editor(context, {})
        return context

    @pytest.mark.parametrize("tool", ["chip_planner", "repartitioning"])
    @pytest.mark.parametrize("netlist, named", [
        ({"cells": ["a", "b"]}, "KeyError: 'nets'"),
        ({"cells": 5, "nets": []}, "TypeError"),
        ({"cells": ["a", "a"], "nets": []}, "unique"),
        ({"cells": ["a"], "nets": [{"name": "n", "cells": ["ghost"]}]},
         "unknown cells"),
        (None, "TypeError"),
    ])
    def test_netlist(self, registry, tool, netlist, named):
        context = self.inputs()
        context.data["structure"] = {**context.data["structure"],
                                     "netlist": netlist}
        with pytest.raises(WorkflowError, match="structure.'netlist'") \
                as caught:
            registry.run(tool, context, {})
        assert named in str(caught.value)

    def test_structure_without_a_netlist(self, registry):
        context = self.inputs()
        context.data["structure"] = {"subcells": ["a"]}
        with pytest.raises(WorkflowError, match="KeyError: 'netlist'"):
            registry.run("chip_planner", context, {})
        context.data["structure"] = {"netlist": {"cells": [], "nets": []}}
        with pytest.raises(WorkflowError, match="KeyError: 'subcells'"):
            registry.run("shape_function_generator", context, {})

    @pytest.mark.parametrize("entry, value, named", [
        ("shape_functions", {"a": {"cell": "a"}}, "KeyError: 'shapes'"),
        ("shape_functions", {"a": {"cell": "a", "shapes": [[1.0]]}},
         "ValueError"),
        ("shape_functions", ["a"], "AttributeError"),
        ("interface", {"cell": "cud", "max_width": 9.0},
         "KeyError: 'max_height'"),
        ("interface", {"cell": "cud", "max_width": 9.0, "max_height": 9.0,
                       "pins": [{"edge": "north"}]}, "KeyError: 'start'"),
    ])
    def test_shape_functions_and_interface(self, registry, entry, value,
                                           named):
        context = self.inputs()
        context.data[entry] = value
        with pytest.raises(WorkflowError, match=f"'{entry}'") as caught:
            registry.run("chip_planner", context, {})
        assert named in str(caught.value)

    def test_floorplan(self, registry):
        context = planned_context()
        context.data["floorplan"] = {"cud": "cud", "width": 4.0}
        with pytest.raises(WorkflowError, match="KeyError: 'height'"):
            registry.run("chip_assembly", context, {})
