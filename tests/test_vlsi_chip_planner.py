"""Unit tests for the chip planner toolbox and floorplans."""

from __future__ import annotations

import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import SeededRng
from repro.vlsi import chip_planner
from repro.vlsi.chip_planner import ChipPlanner
from repro.vlsi.floorplan import (
    Floorplan,
    FloorplanInterface,
    PinInterval,
    Placement,
)
from repro.vlsi.netlist import Net, NetList, synthetic_netlist
from repro.vlsi.shapes import Shape, ShapeFunction, shapes_for_area


@pytest.fixture
def workload():
    cells = [f"c{i}" for i in range(8)]
    netlist = synthetic_netlist(cells, SeededRng(42))
    shape_functions = {c: shapes_for_area(c, 4.0 + i)
                       for i, c in enumerate(cells)}
    interface = FloorplanInterface("cud", 40.0, 40.0)
    return cells, netlist, shape_functions, interface


def cut_size(netlist, part_a, part_b):
    """The nets with a pin in either half: the cut the reference loop
    recounts (membership, not multiplicity)."""
    return sum(1 for net in netlist.nets
               if any(c in part_a for c in net.cells)
               and any(c in part_b for c in net.cells))


def bipartition(netlist, areas, rng=None, passes=4,
                partition=chip_planner._bipartition):
    """The planner's bipartitioning over a whole net list, by name: the
    cells' own nets by position, the cells shuffled by *rng* (or, with
    none, sorted by falling area), then the partition's halves."""
    cells = list(netlist.cells)
    index = {cell: position for position, cell in enumerate(cells)}
    nets = chip_planner._nets_on(index, (net.cells for net in netlist.nets))
    area = [areas.get(cell, 1.0) for cell in cells]
    order = list(range(len(cells)))
    if rng is not None:
        rng.shuffle(order)
    else:
        order.sort(key=lambda position: -area[position])
    side = [0] * len(cells)
    partition(order, area, chip_planner._nets_of(len(cells), nets), side,
              len(nets), passes)
    return ({cells[p] for p in order if not side[p]},
            {cells[p] for p in order if side[p]})


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
        optimised = cut_size(netlist, part_a, part_b)
        # compare to an arbitrary odd/even split
        odd = {c for i, c in enumerate(cells) if i % 2}
        even = set(cells) - odd
        naive = cut_size(netlist, odd, even)
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
        current_cut = cut_size(netlist, part_a, part_b)
        for cell in cells:
            src, dst = (part_a, part_b) if cell in part_a \
                else (part_b, part_a)
            if len(src) <= 1 or not balanced_after(cell, src):
                continue
            src.remove(cell)
            dst.add(cell)
            gain = current_cut - cut_size(netlist, part_a, part_b)
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


def _reference_partition_of_a_subset(netlist, cells, areas, rng, passes):
    """What ``_place_cells`` did per recursion level before: the subset
    in net-list order, a fresh net list restricted to it, then the
    reference loop."""
    keep = set(cells)
    restricted = []
    for net in netlist.nets:
        members = tuple(c for c in net.cells if c in keep)
        if len(members) >= 2:
            restricted.append(Net(net.name, members))
    ordered = [c for c in netlist.cells if c in keep]
    return _reference_bipartition(NetList(cells=ordered, nets=restricted),
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
        update = ("                count_a[net] -= 1\n"
                  "                count_b[net] += 1\n")
        assert source.count(update) == 1
        mutant = {"__name__": chip_planner.__name__}
        exec(compile(source.replace(update, "                pass\n"),
                     "<mutant>", "exec"), mutant)

        def cases():
            for seed in range(40):
                cells = [f"c{i}" for i in range(6 + seed % 12)]
                netlist = synthetic_netlist(cells, SeededRng(seed))
                areas = {c: 1.0 + (i % 3) for i, c in enumerate(cells)}
                yield netlist, areas, seed, 4

        assert all(agrees_with_the_reference(bipartition, *case)
                   for case in cases())
        def mutant_bipartition(*args):
            return bipartition(*args, partition=mutant["_bipartition"])

        assert not all(agrees_with_the_reference(mutant_bipartition, *case)
                       for case in cases())

    def test_a_repeated_pin_counts_once(self):
        """A net list built around ``NetList``'s own check still gets
        the answer the recount gives: membership, not multiplicity."""
        netlist = NetList(cells=["a", "b", "c", "d"], nets=[])
        netlist.nets.extend([Net("n0", ("a", "a", "c")),
                             Net("n1", ("b", "d", "d")),
                             Net("n2", ("a", "b"))])
        for seed in (None, 0, 1, 2, 3):
            assert agrees_with_the_reference(bipartition, netlist, {},
                                             seed, 4)

    @pytest.mark.parametrize("seed", [0, 7, 1009])
    def test_the_plan_is_the_plan_of_the_reference(self, seed):
        cells = [f"c{i}" for i in range(14)]  # c10 sorts before c2
        netlist = synthetic_netlist(cells, SeededRng(seed))
        shape_functions = {c: shapes_for_area(c, 3.0 + (i * 7) % 5)
                           for i, c in enumerate(cells[:-2])}
        interface = FloorplanInterface("cud", 30.0, 30.0)
        assert_the_plan_of_the_reference(netlist, shape_functions,
                                         interface, 3, seed)


# ---------------------------------------------------------------------------
# the planner before it worked on positions, kept as the oracle
# ---------------------------------------------------------------------------

def _reference_place_cells(netlist, cells, shapes, areas, rng, horizontal):
    """``_place_cells`` over names, verbatim but for the partition: the
    recount reference on a net list restricted to each level's cells."""
    if len(cells) == 1:
        cell = cells[0]
        width, height = shapes[cell][not horizontal]
        return width, height, [(cell, 0.0, 0.0, width, height)]
    part_a, part_b = _reference_partition_of_a_subset(
        netlist, list(cells), areas, rng, 4)
    if not part_a or not part_b:
        ordered = sorted(cells)
        half = max(1, len(cells) // 2)
        part_a, part_b = set(ordered[:half]), set(ordered[half:])
    cells_a = [c for c in cells if c in part_a]
    cells_b = [c for c in cells if c in part_b]
    width_a, height_a, placed = _reference_place_cells(
        netlist, cells_a, shapes, areas, rng, not horizontal)
    width_b, height_b, right = _reference_place_cells(
        netlist, cells_b, shapes, areas, rng, not horizontal)
    if horizontal:
        placed += [(cell, x + width_a, y, w, h)
                   for cell, x, y, w, h in right]
        return width_a + width_b, max(height_a, height_b), placed
    placed += [(cell, x, y + height_a, w, h) for cell, x, y, w, h in right]
    return max(width_a, width_b), height_a + height_b, placed


def _reference_pick_shape(shape_fn, area, prefer_wide):
    if shape_fn is None:
        side = round(max(area, 1e-9) ** 0.5, 3)
        return Shape(side, side)
    if prefer_wide:
        return max(shape_fn.shapes, key=lambda s: s.aspect)
    return min(shape_fn.shapes, key=lambda s: s.aspect)


def _reference_plan(cud, netlist, shape_functions, interface, iterations,
                    seed):
    """``ChipPlanner.plan`` over names: a ``SeededRng`` per attempt,
    ``zip`` / ``max`` / ``min`` global routing over a centres map and
    the cut recounted over the whole net list."""
    areas = {c: (shape_functions[c].min_area()
                 if c in shape_functions else 1.0)
             for c in netlist.cells}
    shapes = {c: (_reference_pick_shape(shape_functions.get(c), areas[c],
                                        True),
                  _reference_pick_shape(shape_functions.get(c), areas[c],
                                        False))
              for c in netlist.cells}
    nets = [pins for pins in (list(dict.fromkeys(net.cells))
                              for net in netlist.nets) if len(pins) > 1]
    best = None
    for attempt in range(iterations):
        rng = SeededRng(seed * 7919 + attempt)
        width, height, placed = _reference_place_cells(
            netlist, list(netlist.cells), shapes, areas, rng, True)
        centres = {cell: (x + w / 2.0, y + h / 2.0)
                   for cell, x, y, w, h in placed}
        wirelength = 0.0
        for pins in nets:
            xs, ys = zip(*[centres[c] for c in pins])
            wirelength += (max(xs) - min(xs)) + (max(ys) - min(ys))
        overflow = max(0.0, round(width, 3) - interface.max_width) \
            + max(0.0, round(height, 3) - interface.max_height)
        key = (overflow, round(wirelength, 3))
        if best is None or key < best[0]:
            best = (key, width, height, placed, centres)
    key, width, height, placed, centres = best
    part_a = {cell for cell, (x, _y) in centres.items() if x < width / 2}
    return Floorplan(
        cud=cud, width=round(width, 3), height=round(height, 3),
        placements={item[0]: Placement(*item) for item in placed},
        cut_nets=cut_size(netlist, part_a, set(netlist.cells) - part_a),
        wirelength=key[1], iterations=iterations)


def assert_the_plan_of_the_reference(netlist, shape_functions, interface,
                                     iterations, seed):
    plan = ChipPlanner(iterations, seed).plan("cud", netlist,
                                               shape_functions, interface)
    reference = _reference_plan("cud", netlist, shape_functions, interface,
                                iterations, seed)
    assert plan.to_dict() == reference.to_dict()
    # the same floats, placed in the same order
    assert repr(plan.to_dict()) == repr(reference.to_dict())


def random_plan_inputs(rng):
    """A seeded random planning problem: 1-24 cells named out of order,
    a synthetic or a random net list (nets of 1-5 distinct pins), and
    per cell a staircase, a zero-area shape function, a few free shapes
    or none at all."""
    size = rng.choice([1, 2, 2, 3, 3, 3, 4, 5, 6, 7, 9, 12, 17, 24])
    cells = [f"c{i}" for i in range(size)]
    rng.shuffle(cells)
    if rng.random() < 0.4:
        netlist = synthetic_netlist(cells, SeededRng(rng.randrange(10 ** 6)))
    else:
        netlist = NetList(cells=cells, nets=[
            Net(f"n{k}", tuple(rng.sample(cells,
                                          rng.randint(1, min(5, size)))))
            for k in range(rng.randrange(2 * size + 2))])
    shape_functions = {}
    for cell in cells:
        kind = rng.random()
        if kind < 0.15:
            continue
        if kind < 0.35:   # no area: a side of zero length
            shape_functions[cell] = ShapeFunction(cell, [
                Shape(0.0, rng.choice([1.0, 2.0])),
                Shape(rng.choice([0.0, 1.0]), 0.0)])
        elif kind < 0.45:
            shape_functions[cell] = ShapeFunction(cell, [
                Shape(rng.choice([1.0, 2.0, 3.0]), rng.choice([1.0, 2.0, 3.0]))
                for _ in range(rng.randint(1, 4))])
        else:
            shape_functions[cell] = shapes_for_area(
                cell, rng.choice([0.5, 1.0, 4.0, 4.0, 7.3, 12.0]))
    interface = FloorplanInterface("cud", rng.choice([5.0, 20.0, 500.0]),
                                   rng.choice([5.0, 20.0, 500.0]))
    return (netlist, shape_functions, interface, rng.randint(1, 4),
            rng.randrange(1000))


class TestThePlanIsThePlanOfTheReference:
    """The planner on positions makes the draws, partitions, shapes,
    coordinates, wirelength and cut of the planner on names it
    replaced.  Two- and three-cell slices and cells without area are
    where a shortcut for a small slice could go astray."""

    @pytest.mark.parametrize("seed", range(12))
    def test_on_seeded_random_problems(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            assert_the_plan_of_the_reference(*random_plan_inputs(rng))

    @pytest.mark.parametrize("areas", [(4.0, 4.0), (0.0, 4.0), (4.0, 0.0),
                                       (0.0, 0.0)])
    @pytest.mark.parametrize("seed", range(6))
    def test_two_cells(self, areas, seed):
        cells = ["b", "a"]   # out of name order
        shape_functions = {
            cell: (shapes_for_area(cell, area) if area else
                   ShapeFunction(cell, [Shape(0.0, 2.0)]))
            for cell, area in zip(cells, areas)}
        netlist = NetList(cells=cells, nets=[Net("n", ("a", "b"))])
        assert_the_plan_of_the_reference(
            netlist, shape_functions, FloorplanInterface("cud", 9.0, 9.0),
            3, seed)

    @pytest.mark.parametrize("zero", [(), (0,), (1,), (0, 1), (0, 1, 2)])
    @pytest.mark.parametrize("seed", range(8))
    def test_three_cells(self, zero, seed):
        cells = ["z", "y", "x"]
        rng = random.Random(seed)
        netlist = NetList(cells=cells, nets=[
            Net(f"n{k}", tuple(rng.sample(cells, rng.randint(2, 3))))
            for k in range(rng.randint(1, 5))])
        shape_functions = {
            cell: (ShapeFunction(cell, [Shape(0.0, 1.0)]) if i in zero
                   else shapes_for_area(cell, rng.choice([1.0, 4.0, 9.0])))
            for i, cell in enumerate(cells)}
        assert_the_plan_of_the_reference(
            netlist, shape_functions, FloorplanInterface("cud", 9.0, 9.0),
            3, seed)


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


class TestGlobalRoute:
    """Global routing scores an attempt from its cells' centres."""

    def test_hpwl_of_two_points(self):
        # centres (1,1) and (9,9): HPWL = 8 + 8
        assert chip_planner._global_route([1.0, 9.0], [1.0, 9.0],
                                          [[0, 1]]) == pytest.approx(16.0)

    def test_a_net_with_one_pin_is_free(self):
        """The plan's own nets leave out a net with fewer than two
        distinct pins on its cells: it spans nothing."""
        nets = chip_planner._nets_on({"a": 0, "b": 1},
                                     [("a",), ("b", "b"), ("a", "off")])
        assert nets == []
        assert chip_planner._global_route([1.0, 9.0], [1.0, 9.0],
                                          nets) == 0.0

    def test_the_plan_reports_the_wirelength_of_its_placements(self):
        """``plan(...).wirelength`` is the half perimeter over the
        centres of the placements it returns."""
        netlist = NetList(cells=["a", "b"], nets=[Net("n", ("a", "b"))])
        plan = ChipPlanner(iterations=2, seed=3).plan(
            "cud", netlist,
            {"a": shapes_for_area("a", 4.0), "b": shapes_for_area("b", 9.0)},
            FloorplanInterface("cud", 40.0, 40.0))
        (ax, ay), (bx, by) = ((p.x + p.width / 2, p.y + p.height / 2)
                              for p in (plan.placements["a"],
                                        plan.placements["b"]))
        assert plan.wirelength == round(abs(ax - bx) + abs(ay - by), 3)
        assert plan.wirelength > 0


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

    def test_touching_a_rounding_error_apart_is_not_overlap(self):
        """2.732 + 1.225 is 3.9570000000000003: the planner placed c2
        against c6 exactly, and validation read the last bit as an
        overlap (10 cells, seed 24 of the floorplan property test)."""
        plan = Floorplan("cud", 10.0, 10.0)
        plan.placements["c6"] = Placement("c6", 2.732, 0.0, 1.225, 2.449)
        plan.placements["c2"] = Placement("c2", 3.957, 0.0, 1.414, 2.828)
        assert plan.validate() == []
        cells = [f"c{i}" for i in range(10)]
        plan = ChipPlanner(iterations=2, seed=24).plan(
            "cud", synthetic_netlist(cells, SeededRng(24)),
            {c: shapes_for_area(c, 2.0 + (i % 5))
             for i, c in enumerate(cells)},
            FloorplanInterface("cud", 1e6, 1e6))
        assert plan.validate() == []

    def test_dict_roundtrip(self):
        plan = Floorplan("cud", 10.0, 8.0, cut_nets=3, wirelength=12.5)
        plan.placements["a"] = Placement("a", 1.0, 2.0, 3.0, 4.0)
        back = Floorplan.from_dict(plan.to_dict())
        assert back.width == 10.0
        assert back.placements["a"] == Placement("a", 1.0, 2.0, 3.0, 4.0)
        assert back.cut_nets == 3


class TestInterface:
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
