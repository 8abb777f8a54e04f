"""Unit tests for VLSI cells, netlists and shape functions."""

from __future__ import annotations

import pytest

from repro.util.rng import SeededRng
from repro.vlsi.cells import CellLevel, sample_hierarchy
from repro.vlsi.netlist import Net, NetList, synthetic_netlist
from repro.vlsi.shapes import Shape, ShapeFunction, shapes_for_area


class TestCells:
    def test_sample_hierarchy_levels(self):
        hierarchy = sample_hierarchy()
        assert hierarchy.root.level is CellLevel.CHIP
        assert hierarchy.depth() == 4
        assert len(hierarchy.cells(CellLevel.MODULE)) == 2
        assert len(hierarchy.cells(CellLevel.STANDARD_CELL)) == 10

    def test_area_demand_aggregates(self):
        hierarchy = sample_hierarchy()
        chip_area = hierarchy.root.area_demand()
        leaf_area = sum(c.base_area for c in
                        hierarchy.cells(CellLevel.STANDARD_CELL))
        assert chip_area == pytest.approx(leaf_area)

    def test_find(self):
        hierarchy = sample_hierarchy()
        assert hierarchy.cell("alu").level is CellLevel.MODULE
        with pytest.raises(KeyError, match="nope"):
            hierarchy.cell("nope")

    def test_level_below(self):
        assert CellLevel.CHIP.below is CellLevel.MODULE
        assert CellLevel.STANDARD_CELL.below is None

    def test_duplicate_names_rejected(self):
        from repro.vlsi.cells import Cell, CellHierarchy
        dup = Cell("x", CellLevel.CHIP,
                   [Cell("x", CellLevel.MODULE)])
        with pytest.raises(ValueError):
            CellHierarchy(dup)


class TestNetList:
    def test_connectivity_and_degree(self):
        netlist = NetList(cells=["a", "b", "c"], nets=[
            Net("n1", ("a", "b")), Net("n2", ("a", "b", "c"))])
        assert [n.name for n in netlist.nets_of("b")
                if n.connects("a")] == ["n1", "n2"]
        assert [n.name for n in netlist.nets_of("b")
                if n.connects("c")] == ["n2"]
        assert netlist.degree("a") == 2

    def test_unknown_cell_rejected(self):
        with pytest.raises(ValueError):
            NetList(cells=["a"], nets=[Net("n", ("a", "ghost"))])

    def test_repeated_cell_name_rejected(self):
        # walked as a list, partitioned as sets: the halves overlapped
        with pytest.raises(ValueError, match=r"unique.*\['a'\]"):
            NetList(cells=["a", "a", "b"], nets=[])

    def test_net_naming_a_cell_twice_rejected(self):
        with pytest.raises(ValueError, match=r"'n'.*twice.*\['a'\]"):
            NetList(cells=["a", "b"], nets=[Net("n", ("a", "b", "a"))])
        with pytest.raises(ValueError):
            NetList.from_dict({"cells": ["a", "b"], "nets": [
                {"name": "n", "cells": ["a", "a"]}]})

    def test_dict_roundtrip(self):
        netlist = NetList(cells=["a", "b"], nets=[Net("n1", ("a", "b"))])
        back = NetList.from_dict(netlist.to_dict())
        assert back.cells == ["a", "b"]
        assert back.nets[0].cells == ("a", "b")

    def test_synthetic_netlist_properties(self):
        cells = [f"c{i}" for i in range(10)]
        netlist = synthetic_netlist(cells, SeededRng(3))
        assert netlist.cells == cells
        for net in netlist.nets:
            assert len(net.cells) >= 2
            assert set(net.cells) <= set(cells)

    def test_synthetic_single_cell(self):
        netlist = synthetic_netlist(["only"], SeededRng(0))
        assert netlist.nets == []


class TestShapes:
    def test_area_and_rotation(self):
        shape = Shape(4.0, 2.0)
        assert shape.area == 8.0
        assert shape.aspect == 2.0
        assert Shape(2.0, 4.0).aspect == 0.5

    def test_dominated_shapes_pruned(self):
        function = ShapeFunction("c", [
            Shape(2.0, 5.0), Shape(3.0, 6.0),   # (3,6) dominated by (2,5)
            Shape(5.0, 2.0)])
        assert Shape(3.0, 6.0) not in function.shapes
        assert len(function.shapes) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ShapeFunction("c", [])

    def test_min_area(self):
        function = shapes_for_area("c", 16.0)
        assert function.min_area() == pytest.approx(16.0, rel=1e-3)

    def test_shapes_for_area_aspects(self):
        function = shapes_for_area("c", 100.0, aspects=(1.0, 4.0))
        areas = [s.area for s in function.shapes]
        for area in areas:
            assert area == pytest.approx(100.0, rel=1e-2)

    def test_dict_roundtrip(self):
        function = shapes_for_area("c", 9.0)
        back = ShapeFunction.from_dict(function.to_dict())
        assert back.cell == "c"
        assert back.shapes == function.shapes
