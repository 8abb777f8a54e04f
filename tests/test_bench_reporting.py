"""Unit tests for experiment reporting and the shared scenarios."""

from __future__ import annotations

from repro.bench.reporting import ExperimentResult, format_table
from repro.bench.scenarios import subcell_script
from repro.scenario.delegation import (
    chip_spec,
    make_vlsi_system,
    subcell_seed,
)
from repro.te.context import DopContext
from repro.vlsi.floorplan import Floorplan, Placement


class TestFormatTable:
    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_alignment_and_columns(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4  # header + ruler + 2 rows
        assert all(len(line) == len(lines[0]) for line in lines[1:2])

    def test_explicit_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_float_formatting(self):
        text = format_table([{"v": 1.23456}])
        assert "1.23" in text

    def test_missing_cell_is_blank(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}],
                            columns=["a", "b"])
        assert "3" in text


class TestExperimentResult:
    def test_add_and_render(self):
        result = ExperimentResult("X1", "demo")
        result.add(metric="m", value=1)
        result.notes.append("hello")
        text = result.render()
        assert "X1" in text and "demo" in text
        assert "note: hello" in text


class TestChipSpec:
    def test_three_features(self):
        spec = chip_spec(10.0, 20.0)
        assert spec.names() == {"width-limit", "height-limit",
                                "area-limit"}
        assert spec.is_final({"width": 5.0, "height": 5.0, "area": 25.0})
        assert not spec.is_final({"width": 15.0, "height": 5.0,
                                  "area": 75.0})


class TestSubcellSeed:
    def test_seed_from_parent_floorplan(self):
        plan = Floorplan("cell-0", 20.0, 20.0)
        plan.placements["cell-0/A"] = Placement("cell-0/A", 1.0, 2.0,
                                                5.0, 6.0)
        context = DopContext(data={"floorplan": plan.to_dict()})
        subcell_seed(context, {"subcell": "cell-0/A",
                               "operations": ["x", "y"]})
        assert context.data["cell"] == "cell-0/A"
        assert context.data["interface"]["max_width"] == 5.0
        assert context.data["interface"]["origin"] == [1.0, 2.0]
        assert context.data["behavior"]["operations"] == ["x", "y"]
        # old parent data is cleared: the sub-DA starts a fresh design
        assert "floorplan" not in context.data

    def test_seed_without_parent_plan_uses_defaults(self):
        context = DopContext(data={})
        subcell_seed(context, {"subcell": "m", "max_width": 7.0,
                               "max_height": 8.0})
        assert context.data["interface"]["max_width"] == 7.0

    def test_subcell_script_structure(self):
        script = subcell_script("cell-0/A", ["a", "b"])
        sequences = script.sequences(max_iterations=1)
        assert sequences[0][0] == "subcell_seed"
        assert "chip_planner" in sequences[0]


class TestMakeVlsiSystem:
    def test_tools_and_dots_installed(self):
        system = make_vlsi_system(("ws-1",), trace=False)
        assert "chip_planner" in system.tools
        assert "subcell_seed" in system.tools
        assert system.repository.dot("Chip").name == "Chip"
        assert len(system.constraints) > 0

    def test_workstations_created(self):
        system = make_vlsi_system(("ws-1", "ws-2"), trace=False)
        assert system.client_tm("ws-1").workstation == "ws-1"
        assert system.client_tm("ws-2").workstation == "ws-2"
