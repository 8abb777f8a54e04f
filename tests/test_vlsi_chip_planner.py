"""Unit tests for the chip planner toolbox and floorplans."""

from __future__ import annotations

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import SeededRng
from repro.vlsi import chip_planner
from repro.vlsi.chip_planner import ChipPlanner, bipartition, global_route
from repro.vlsi.floorplan import (
    Floorplan,
    FloorplanInterface,
    PinInterval,
    Placement,
)
from repro.vlsi.netlist import Net, NetList, synthetic_netlist
from repro.vlsi.shapes import shapes_for_area


@pytest.fixture
def workload():
    cells = [f"c{i}" for i in range(8)]
    netlist = synthetic_netlist(cells, SeededRng(42))
    shape_functions = {c: shapes_for_area(c, 4.0 + i)
                       for i, c in enumerate(cells)}
    interface = FloorplanInterface("cud", 40.0, 40.0)
    return cells, netlist, shape_functions, interface


class TestBipartition:
    def test_partitions_cover_all_cells(self, workload):
        cells, netlist, __, __i = workload
        part_a, part_b = bipartition(netlist, {c: 1.0 for c in cells})
        assert part_a | part_b == set(cells)
        assert part_a & part_b == set()

    def test_balanced(self, workload):
        cells, netlist, __, __i = workload
        part_a, part_b = bipartition(netlist, {c: 1.0 for c in cells})
        assert abs(len(part_a) - len(part_b)) <= 2

    def test_improves_over_naive_split(self, workload):
        cells, netlist, __, __i = workload
        areas = {c: 1.0 for c in cells}
        part_a, part_b = bipartition(netlist, areas)
        optimised = netlist.cut_size(part_a, part_b)
        # compare to an arbitrary odd/even split
        odd = {c for i, c in enumerate(cells) if i % 2}
        even = set(cells) - odd
        naive = netlist.cut_size(odd, even)
        assert optimised <= naive

    def test_single_cell(self):
        netlist = NetList(cells=["a"], nets=[])
        part_a, part_b = bipartition(netlist, {"a": 1.0})
        assert part_a == {"a"}
        assert part_b == set()

    def test_two_cells(self):
        netlist = NetList(cells=["a", "b"], nets=[Net("n", ("a", "b"))])
        part_a, part_b = bipartition(netlist, {"a": 1.0, "b": 1.0})
        assert len(part_a) == 1 and len(part_b) == 1


def _reference_bipartition(netlist, areas, rng=None, passes=4):
    """The loop :func:`bipartition` had before it kept pin counts,
    verbatim: every candidate move is made, the whole cut is counted
    again and the move is undone."""
    cells = list(netlist.cells)
    if len(cells) < 2:
        return set(cells), set()
    if rng is not None:
        rng.shuffle(cells)
    else:
        cells.sort(key=lambda c: -areas.get(c, 1.0))

    total = sum(areas.get(c, 1.0) for c in cells)
    part_a: set[str] = set()
    part_b: set[str] = set()
    area_a = area_b = 0.0
    for cell in cells:
        if area_a <= area_b:
            part_a.add(cell)
            area_a += areas.get(cell, 1.0)
        else:
            part_b.add(cell)
            area_b += areas.get(cell, 1.0)

    def balanced_after(cell: str, src: set[str]) -> bool:
        moved = areas.get(cell, 1.0)
        if src is part_a:
            new_a, new_b = area_a - moved, area_b + moved
        else:
            new_a, new_b = area_a + moved, area_b - moved
        if total <= 0:
            return True
        share = new_a / total
        return 0.4 <= share <= 0.6 or min(len(part_a), len(part_b)) <= 1

    for _ in range(passes):
        best_gain = 0
        best_move: tuple[str, set[str], set[str]] | None = None
        current_cut = netlist.cut_size(part_a, part_b)
        for cell in cells:
            src, dst = (part_a, part_b) if cell in part_a \
                else (part_b, part_a)
            if len(src) <= 1 or not balanced_after(cell, src):
                continue
            src.remove(cell)
            dst.add(cell)
            gain = current_cut - netlist.cut_size(part_a, part_b)
            dst.remove(cell)
            src.add(cell)
            if gain > best_gain:
                best_gain, best_move = gain, (cell, src, dst)
        if best_move is None:
            break
        cell, src, dst = best_move
        src.remove(cell)
        dst.add(cell)
        moved = areas.get(cell, 1.0)
        if src is part_a:
            area_a -= moved
            area_b += moved
        else:
            area_a += moved
            area_b -= moved
    return part_a, part_b


def _reference_partition_of_a_subset(cells, nets, areas, rng, passes):
    """What ``_place_cells`` did per recursion level before: a fresh
    net list restricted to the subset, then the reference loop."""
    keep = set(cells)
    restricted = []
    for net in nets:
        members = tuple(c for c in net.cells if c in keep)
        if len(members) >= 2:
            restricted.append(Net(net.name, members))
    return _reference_bipartition(NetList(cells=cells, nets=restricted),
                                  areas, rng, passes)


@st.composite
def partition_inputs(draw):
    """2-24 cells, nets of 1-5 pins (some inside one half, some cells
    on no net), positive areas for some of the cells (the others count
    1.0), a seed or none, 0-6 passes."""
    cells = [f"c{i}" for i in range(draw(st.integers(2, 24)))]
    pins = st.lists(st.sampled_from(cells), min_size=1,
                    max_size=min(5, len(cells)), unique=True)
    nets = [Net(f"n{i}", tuple(members))
            for i, members in enumerate(draw(st.lists(pins, max_size=40)))]
    areas = draw(st.dictionaries(
        st.sampled_from(cells),
        st.floats(0.05, 60.0, allow_nan=False, allow_infinity=False)))
    seed = draw(st.none() | st.integers(0, 2 ** 16))
    return NetList(cells=cells, nets=nets), areas, seed, \
        draw(st.integers(0, 6))


def agrees_with_the_reference(partition, netlist, areas, seed, passes):
    rng, reference_rng = (None, None) if seed is None \
        else (SeededRng(seed), SeededRng(seed))
    result = partition(netlist, areas, rng, passes)
    expected = _reference_bipartition(netlist, areas, reference_rng, passes)
    if seed is not None:
        assert rng.random() == reference_rng.random()
    return result == expected


class TestPinCountsDecideWhatTheRecountDecided:
    @given(partition_inputs())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_equal_halves_and_an_equally_advanced_rng(self, inputs):
        assert agrees_with_the_reference(bipartition, *inputs)

    def test_a_forgotten_count_update_is_noticed(self):
        """Mutation check: the same source without the update of the
        moved cell's nets stops agreeing after its first move."""
        source = inspect.getsource(chip_planner)
        update = ("            counts[here] -= 1\n"
                  "            counts[there] += 1\n")
        assert source.count(update) == 1
        mutant = {"__name__": chip_planner.__name__}
        exec(compile(source.replace(update, "            pass\n"),
                     "<mutant>", "exec"), mutant)

        def cases():
            for seed in range(40):
                cells = [f"c{i}" for i in range(6 + seed % 12)]
                netlist = synthetic_netlist(cells, SeededRng(seed))
                areas = {c: 1.0 + (i % 3) for i, c in enumerate(cells)}
                yield netlist, areas, seed, 4

        assert all(agrees_with_the_reference(bipartition, *case)
                   for case in cases())
        assert not all(agrees_with_the_reference(mutant["bipartition"],
                                                 *case)
                       for case in cases())

    def test_a_repeated_pin_counts_once(self):
        """A net list built around ``NetList``'s own check still gets
        the answer ``Net.crosses`` gives: membership, not multiplicity."""
        netlist = NetList(cells=["a", "b", "c", "d"], nets=[])
        netlist.nets.extend([Net("n0", ("a", "a", "c")),
                             Net("n1", ("b", "d", "d")),
                             Net("n2", ("a", "b"))])
        for seed in (None, 0, 1, 2, 3):
            assert agrees_with_the_reference(bipartition, netlist, {},
                                             seed, 4)

    @pytest.mark.parametrize("seed", [0, 7, 1009])
    def test_the_plan_is_the_plan_of_the_reference(self, seed,
                                                   monkeypatch):
        cells = [f"c{i}" for i in range(14)]  # c10 sorts before c2
        netlist = synthetic_netlist(cells, SeededRng(seed))
        shape_functions = {c: shapes_for_area(c, 3.0 + (i * 7) % 5)
                           for i, c in enumerate(cells[:-2])}
        interface = FloorplanInterface("cud", 30.0, 30.0)
        planner = ChipPlanner(iterations=3, seed=seed)
        plan = planner.plan("cud", netlist, shape_functions, interface)
        monkeypatch.setattr(chip_planner, "_bipartition",
                            _reference_partition_of_a_subset)
        reference = planner.plan("cud", netlist, shape_functions,
                                 interface)
        assert plan.to_dict() == reference.to_dict()


class TestFloorplanGeometry:
    def test_planner_produces_valid_floorplan(self, workload):
        cells, netlist, shape_functions, interface = workload
        plan = ChipPlanner(iterations=3, seed=1).plan(
            "cud", netlist, shape_functions, interface)
        assert plan.validate() == []
        assert set(plan.placements) == set(cells)
        assert plan.width > 0 and plan.height > 0
        assert 0 < plan.utilisation <= 1.0

    def test_deterministic_given_seed(self, workload):
        __, netlist, shape_functions, interface = workload
        plan_a = ChipPlanner(iterations=2, seed=9).plan(
            "cud", netlist, shape_functions, interface)
        plan_b = ChipPlanner(iterations=2, seed=9).plan(
            "cud", netlist, shape_functions, interface)
        assert plan_a.to_dict() == plan_b.to_dict()

    def test_more_iterations_never_worse(self, workload):
        __, netlist, shape_functions, interface = workload
        single = ChipPlanner(iterations=1, seed=4).plan(
            "cud", netlist, shape_functions, interface)
        many = ChipPlanner(iterations=6, seed=4).plan(
            "cud", netlist, shape_functions, interface)
        # the driver keeps the best (overflow, wirelength) plan
        def key(plan):
            overflow = max(0.0, plan.width - interface.max_width) \
                + max(0.0, plan.height - interface.max_height)
            return (overflow, plan.wirelength)
        assert key(many) <= key(single)

    def test_subcell_interfaces_match_placements(self, workload):
        cells, netlist, shape_functions, interface = workload
        plan = ChipPlanner(seed=2).plan("cud", netlist, shape_functions,
                                        interface)
        interfaces = plan.subcell_interfaces()
        assert {i.cell for i in interfaces} == set(cells)
        for sub in interfaces:
            placement = plan.placements[sub.cell]
            assert sub.max_width == placement.width
            assert sub.origin == (placement.x, placement.y)

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            ChipPlanner(iterations=0)

    def test_fits(self, workload):
        __, netlist, shape_functions, interface = workload
        planner = ChipPlanner(seed=3)
        plan = planner.plan("cud", netlist, shape_functions, interface)
        assert planner.fits(plan, interface) == (
            plan.width <= interface.max_width
            and plan.height <= interface.max_height)


class TestGlobalRoute:
    def test_hpwl_of_two_points(self):
        plan = Floorplan("cud", 10.0, 10.0)
        plan.placements["a"] = Placement("a", 0.0, 0.0, 2.0, 2.0)
        plan.placements["b"] = Placement("b", 8.0, 8.0, 2.0, 2.0)
        netlist = NetList(cells=["a", "b"], nets=[Net("n", ("a", "b"))])
        # centres (1,1) and (9,9): HPWL = 8 + 8
        assert global_route(plan, netlist) == pytest.approx(16.0)

    def test_single_pin_net_free(self):
        plan = Floorplan("cud", 10.0, 10.0)
        plan.placements["a"] = Placement("a", 0.0, 0.0, 2.0, 2.0)
        netlist = NetList(cells=["a", "b"],
                          nets=[Net("n", ("a", "b"))])
        # 'b' unplaced -> only one point -> contributes nothing
        assert global_route(plan, netlist) == 0.0


class TestFloorplanValidation:
    def test_overlap_detected(self):
        plan = Floorplan("cud", 10.0, 10.0)
        plan.placements["a"] = Placement("a", 0.0, 0.0, 5.0, 5.0)
        plan.placements["b"] = Placement("b", 3.0, 3.0, 5.0, 5.0)
        problems = plan.validate()
        assert any("overlaps" in p for p in problems)

    def test_out_of_bounds_detected(self):
        plan = Floorplan("cud", 4.0, 4.0)
        plan.placements["a"] = Placement("a", 2.0, 2.0, 5.0, 5.0)
        assert any("out of bounds" in p for p in plan.validate())

    def test_touching_is_not_overlap(self):
        plan = Floorplan("cud", 10.0, 10.0)
        plan.placements["a"] = Placement("a", 0.0, 0.0, 5.0, 5.0)
        plan.placements["b"] = Placement("b", 5.0, 0.0, 5.0, 5.0)
        assert plan.validate() == []

    def test_dict_roundtrip(self):
        plan = Floorplan("cud", 10.0, 8.0, cut_nets=3, wirelength=12.5)
        plan.placements["a"] = Placement("a", 1.0, 2.0, 3.0, 4.0)
        back = Floorplan.from_dict(plan.to_dict())
        assert back.width == 10.0
        assert back.placements["a"] == Placement("a", 1.0, 2.0, 3.0, 4.0)
        assert back.cut_nets == 3


class TestInterface:
    def test_area_limit(self):
        interface = FloorplanInterface("c", 10.0, 5.0)
        assert interface.area_limit == 50.0

    def test_pin_interval_length(self):
        pin = PinInterval("north", 2.0, 6.0)
        assert pin.length() == 4.0

    def test_dict_roundtrip_with_pins(self):
        interface = FloorplanInterface(
            "c", 10.0, 5.0, origin=(1.0, 2.0),
            pins=(PinInterval("north", 0.0, 2.0, net="clk"),))
        back = FloorplanInterface.from_dict(interface.to_dict())
        assert back.origin == (1.0, 2.0)
        assert back.pins[0].net == "clk"
